(* Single-threaded TCP load generator speaking Net.Frame over a few
   connections, driven by one select loop. A closed loop keeps exactly one
   request in flight per connection; an open loop sends on a fixed
   schedule and pipelines, timing every request from its intended send
   time so a stalled server cannot hide its queue. *)

let now = Obs.now_mono

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  out : Buffer.t;
  inflight : (float * Inputs.request) Queue.t;  (* start time, request *)
}

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let send c payload =
  Buffer.clear c.out;
  Net.Frame.encode c.out payload;
  write_all c.fd (Buffer.contents c.out) 0 (Buffer.length c.out)

(* Read what the socket has and hand every complete reply payload to [f]. *)
let pump c f =
  if c.rlen = Bytes.length c.rbuf then begin
    let bigger = Bytes.create (2 * Bytes.length c.rbuf) in
    Bytes.blit c.rbuf 0 bigger 0 c.rlen;
    c.rbuf <- bigger
  end;
  let n = Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) in
  if n = 0 then failwith "server closed the connection";
  c.rlen <- c.rlen + n;
  let rec frames off =
    match Net.Frame.decode c.rbuf ~off ~len:(c.rlen - off) with
    | Net.Frame.Frame { payload; consumed } ->
      f payload;
      frames (off + consumed)
    | Net.Frame.Need_more -> off
    | Net.Frame.Too_large _ | Net.Frame.Crc_mismatch ->
      failwith "malformed reply frame"
  in
  let used = frames 0 in
  Bytes.blit c.rbuf used c.rbuf 0 (c.rlen - used);
  c.rlen <- c.rlen - used

let recv_one c =
  let got = ref None in
  while !got = None do
    pump c (fun p -> got := Some p)
  done;
  Option.get !got

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c =
    { fd; rbuf = Bytes.create 65536; rlen = 0; out = Buffer.create 4096;
      inflight = Queue.create () }
  in
  send c Net.Frame.hello;
  let greeting = recv_one c in
  if not (String.length greeting > 8 && String.sub greeting 0 8 = "OK xseed") then
    failwith ("handshake refused: " ^ greeting);
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Blocking request/reply on an idle connection. *)
let request c payload =
  send c payload;
  recv_one c

type reply = {
  conn : int;
  req : Inputs.request;
  payload : string;
  latency : float;  (* seconds, from start (closed) or due time (open) *)
  at : float;  (* receive time *)
  hol : float;
      (* head-of-line wait: from start until the reply received just before
         this one (the server answers frames one at a time, so that reply
         marks when it could begin on this request); 0 when none *)
}

let last_reply = ref neg_infinity

let ready_loop conns ~timeout f =
  let fds =
    Array.to_list conns
    |> List.filter (fun c -> not (Queue.is_empty c.inflight))
    |> List.map (fun c -> c.fd)
  in
  if fds <> [] then begin
    let readable, _, _ =
      try Unix.select fds [] [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    Array.iteri
      (fun i c ->
        if List.mem c.fd readable then
          pump c (fun payload ->
              let start, req = Queue.pop c.inflight in
              let at = now () in
              let hol = Float.max 0.0 (!last_reply -. start) in
              last_reply := at;
              f { conn = i; req; payload; latency = at -. start; at; hol }))
      conns
  end

let inflight conns =
  Array.fold_left (fun n c -> n + Queue.length c.inflight) 0 conns

let issue c req =
  let t = now () in
  send c (Inputs.payload req);
  Queue.push (t, req) c.inflight

(* Closed loop for [seconds] (or until [requests] have been issued): each
   reply triggers the connection's next request until the window ends,
   then the in-flight replies drain. *)
let closed ?(requests = max_int) conns streams ~seconds on_reply =
  let t_end = now () +. seconds in
  let issued = ref 0 in
  let next i =
    if !issued < requests then begin
      incr issued;
      issue conns.(i) (streams.(i) ())
    end
  in
  Array.iteri (fun i _ -> next i) conns;
  while inflight conns > 0 do
    ready_loop conns ~timeout:1.0 (fun r ->
        on_reply r;
        if r.at < t_end then next r.conn)
  done

type open_stats = { sent : int; lag : float array; backlog_at_end : int }

(* Open loop at [rate] requests/s spread round-robin over the connections.
   Latency runs from each request's due time; [lag] is how late the
   generator itself sent each one. *)
let open_loop conns next ~rate ~seconds on_reply =
  let total = int_of_float (rate *. seconds) in
  let interval = 1.0 /. rate in
  let lag = Stat.vec () in
  let t0 = now () in
  let k = ref 0 and backlog = ref 0 in
  let drain_deadline = ref infinity in
  while !k < total || inflight conns > 0 do
    let t = now () in
    while !k < total && t0 +. (float_of_int !k *. interval) <= t do
      let due = t0 +. (float_of_int !k *. interval) in
      let c = conns.(!k mod Array.length conns) in
      let req = next () in
      send c (Inputs.payload req);
      Stat.push lag (now () -. due);
      Queue.push (due, req) c.inflight;
      incr k
    done;
    if !k >= total && !drain_deadline = infinity then begin
      backlog := inflight conns;
      drain_deadline := now () +. 10.0
    end;
    if now () > !drain_deadline then failwith "replies did not drain";
    let timeout =
      if !k < total then Float.max 0.0 (t0 +. (float_of_int !k *. interval) -. now ())
      else 0.05
    in
    if inflight conns > 0 then ready_loop conns ~timeout on_reply
    else if timeout > 0.0 then Unix.sleepf timeout
  done;
  { sent = total; lag = Stat.to_array lag; backlog_at_end = !backlog }
