(* One bounded FIFO — of chunks on the pool's request path, and of the
   auditor's samples. The unit of transfer is a chunk (a contiguous slice
   of a batch), so operations are rare enough that one mutex covers the
   ring: its acquire/release pairs order memory between producers and
   consumers, which the pool relies on for publishing its shared EPT and
   each chunk to the worker that pops it. The ring never allocates after
   creation. Only consumers wait: the pool sizes the ring to its largest
   batch plan, and the auditor sheds a sample that finds it full. A push
   makes work for exactly one waiting consumer, so it signals one; only
   [close] changes what every waiter may do, so only it broadcasts. *)

type stats = {
  pushes : int;
  pops : int;
  pop_waits : int;  (* pops that found the ring empty and blocked *)
  pop_wait_s : float;  (* total consumer blocking time *)
  max_occupancy : int;  (* high-water mark of occupied slots *)
}

type 'a t = {
  ring : 'a option array;
  mutable head : int;
  mutable len : int;
  mutable closed : bool;
  lock : Mutex.t;
  not_empty : Condition.t;
  (* Contention accounting, all written under [lock]. The clock is only
     read when a pop actually blocks, so the uncontended fast path stays a
     lock/unlock pair. *)
  mutable pushes : int;
  mutable pops : int;
  mutable pop_waits : int;
  mutable pop_wait_s : float;
  mutable max_occupancy : int;
}

let create ~capacity =
  if capacity < 1 then
    invalid_arg (Printf.sprintf "Work_queue.create: capacity %d < 1" capacity);
  { ring = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false;
    lock = Mutex.create ();
    not_empty = Condition.create ();
    pushes = 0;
    pops = 0;
    pop_waits = 0;
    pop_wait_s = 0.0;
    max_occupancy = 0 }

let length t =
  Mutex.lock t.lock;
  let n = t.len in
  Mutex.unlock t.lock;
  n

let try_push t v =
  Mutex.lock t.lock;
  let r =
    if t.closed then `Closed
    else if t.len = Array.length t.ring then `Full
    else begin
      t.ring.((t.head + t.len) mod Array.length t.ring) <- Some v;
      t.len <- t.len + 1;
      t.pushes <- t.pushes + 1;
      if t.len > t.max_occupancy then t.max_occupancy <- t.len;
      Condition.signal t.not_empty;
      `Ok
    end
  in
  Mutex.unlock t.lock;
  r

let push t v =
  match try_push t v with
  | `Ok -> ()
  | `Full -> invalid_arg "Work_queue.push: ring full"
  | `Closed -> invalid_arg "Work_queue.push: queue closed"

(* Dequeue the head under the lock, or [None] on an empty ring. *)
let dequeue t =
  if t.len = 0 then None
  else begin
    let v = t.ring.(t.head) in
    t.ring.(t.head) <- None;
    t.head <- (t.head + 1) mod Array.length t.ring;
    t.len <- t.len - 1;
    t.pops <- t.pops + 1;
    v
  end

let pop t =
  Mutex.lock t.lock;
  if t.len = 0 && not t.closed then begin
    let w0 = Obs.now_mono () in
    t.pop_waits <- t.pop_waits + 1;
    while t.len = 0 && not t.closed do
      Condition.wait t.not_empty t.lock
    done;
    t.pop_wait_s <- t.pop_wait_s +. (Obs.now_mono () -. w0)
  end;
  let r = dequeue t (* [None] here: closed and drained *) in
  Mutex.unlock t.lock;
  r

(* Non-blocking dequeue: the submitter drains its own batch's queued chunks
   with it, and an empty ring answers [None] at once. *)
let try_pop t =
  Mutex.lock t.lock;
  let r = dequeue t in
  Mutex.unlock t.lock;
  r

let stats t =
  Mutex.lock t.lock;
  let s =
    { pushes = t.pushes;
      pops = t.pops;
      pop_waits = t.pop_waits;
      pop_wait_s = t.pop_wait_s;
      max_occupancy = t.max_occupancy }
  in
  Mutex.unlock t.lock;
  s

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock

let closed t =
  Mutex.lock t.lock;
  let c = t.closed in
  Mutex.unlock t.lock;
  c
