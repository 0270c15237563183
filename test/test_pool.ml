(* The serving pool: work-queue semantics, chunk planning, epoch-based
   invalidation, deterministic scheduling tests, and a multi-domain stress
   run.

   The scheduling tests stay deterministic without sleeps by parking
   worker domains in a chaos gate: a worker serving the gate's query
   blocks inside it until the test opens the gate, so the test knows
   exactly which domains are still free to pop the shared queue. One-chunk
   requests never leave the submitting thread, so these tests reach the
   domains through batches of several chunks.
   [STRESS_OPS] scales the per-client op count (default 800 for `dune
   runtest`; `make stress` runs 10_000). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let bits = Int64.bits_of_float

(* ------------------------------------------------------------------ *)
(* Work queue *)

let test_queue_fifo () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Work_queue.create: capacity 0 < 1") (fun () ->
      ignore (Engine.Work_queue.create ~capacity:0 : int Engine.Work_queue.t));
  let q = Engine.Work_queue.create ~capacity:4 in
  checki "capacity" 4 (Engine.Work_queue.capacity q);
  checki "empty" 0 (Engine.Work_queue.length q);
  for i = 1 to 4 do
    checkb "push accepted" true (Engine.Work_queue.push q i)
  done;
  checki "full" 4 (Engine.Work_queue.length q);
  checkb "pop 1" true (Engine.Work_queue.pop q = Some 1);
  checkb "push 5 after pop" true (Engine.Work_queue.push q 5);
  (* FIFO across the ring seam *)
  List.iter
    (fun expect ->
      checkb "fifo order" true (Engine.Work_queue.pop q = Some expect))
    [ 2; 3; 4; 5 ]

let test_queue_close_drains () =
  let q = Engine.Work_queue.create ~capacity:4 in
  checkb "push a" true (Engine.Work_queue.push q "a");
  checkb "push b" true (Engine.Work_queue.push q "b");
  Engine.Work_queue.close q;
  checkb "closed" true (Engine.Work_queue.closed q);
  checkb "push refused" false (Engine.Work_queue.push q "c");
  checkb "drains a" true (Engine.Work_queue.pop q = Some "a");
  checkb "drains b" true (Engine.Work_queue.pop q = Some "b");
  checkb "then None" true (Engine.Work_queue.pop q = None);
  checkb "still None" true (Engine.Work_queue.pop q = None)

(* Producers block on a full ring until consumers make room; close wakes
   everyone. Run to completion = no deadlock. *)
let test_queue_concurrent () =
  let q = Engine.Work_queue.create ~capacity:2 in
  let n = 500 in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to n - 1 do
              ignore (Engine.Work_queue.push q ((p * n) + i) : bool)
            done))
  in
  let seen = Array.make (2 * n) false in
  let consumed = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let rec loop () =
          match Engine.Work_queue.pop q with
          | None -> ()
          | Some v ->
            seen.(v) <- true;
            incr consumed;
            loop ()
        in
        loop ())
  in
  List.iter Domain.join producers;
  Engine.Work_queue.close q;
  Domain.join consumer;
  checki "all consumed" (2 * n) !consumed;
  checkb "every item exactly once" true (Array.for_all Fun.id seen)

(* Several consumers blocked on an empty queue. A push wakes one of them
   ([Condition.signal]), so N pushes must release all N, each with one
   distinct item — a lost wakeup hangs this test. Then close must wake
   every consumer still blocked into the drained exit. The wait counter
   ticks under the lock before a consumer sleeps, so spinning on it is
   the rendezvous with provably blocked consumers. *)
let test_queue_blocked_consumers () =
  let q = Engine.Work_queue.create ~capacity:4 in
  let pop_waits () = (Engine.Work_queue.stats q).Engine.Work_queue.pop_waits in
  let block k =
    let before = pop_waits () in
    let consumers =
      List.init k (fun _ -> Domain.spawn (fun () -> Engine.Work_queue.pop q))
    in
    while pop_waits () < before + k do Domain.cpu_relax () done;
    consumers
  in
  let consumers = block 3 in
  for i = 1 to 3 do
    checkb "push" true (Engine.Work_queue.push q i)
  done;
  checkb "each blocked consumer takes one distinct item" true
    (List.sort compare (List.map Domain.join consumers)
    = [ Some 1; Some 2; Some 3 ]);
  let late = block 2 in
  Engine.Work_queue.close q;
  List.iter
    (fun d -> checkb "close wakes a blocked consumer" true (Domain.join d = None))
    late

(* ------------------------------------------------------------------ *)
(* Drift shard accounting (regression: per-shard records must sum into the
   DRIFT summary, and rotation must clear every shard's landing slot in
   lockstep with the owner's window). *)

let test_drift_shards_sum () =
  let d = Engine.Drift.create ~slots:3 ~per_slot:2 () in
  let s0 = Engine.Drift.register_shard d in
  let s1 = Engine.Drift.register_shard d in
  let s2 = Engine.Drift.register_shard d in
  Engine.Drift.note_shard s0 ~cache_hit:false;
  for _ = 1 to 5 do Engine.Drift.note_shard s1 ~cache_hit:true done;
  for _ = 1 to 3 do Engine.Drift.note_shard s2 ~cache_hit:false done;
  checki "shard volumes" 5 (Engine.Drift.shard_estimates s1);
  checki "window = all shards" (1 + 5 + 3) (Engine.Drift.window_estimates d);
  checki "hits = shard hits" 5 (Engine.Drift.window_hits d);
  (* 2 observations fill a slot; 6 roll the 3-slot window over entirely,
     expiring the volumes above with the slots they were counted in. *)
  for _ = 1 to 6 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:1 : float)
  done;
  for _ = 1 to 2 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:1 : float)
  done;
  checki "old shard volumes expired with their slots" 0
    (Engine.Drift.shard_estimates s0 + Engine.Drift.shard_estimates s1
    + Engine.Drift.shard_estimates s2);
  Engine.Drift.note_shard s1 ~cache_hit:false;
  checki "fresh shard counts land in the live window" 1
    (Engine.Drift.shard_estimates s1);
  match Engine.Drift.to_json d with
  | Obs.Json.Obj fields ->
    checkb "summary volume covers shards" true
      (List.assoc "window_estimates" fields
      = Obs.Json.Int (Engine.Drift.window_estimates d))
  | _ -> Alcotest.fail "drift summary not an object"

(* ------------------------------------------------------------------ *)
(* Chunk plan: the pure partition function, QCheck-pinned. *)

let prop_plan_partition =
  QCheck.Test.make ~count:500
    ~name:"plan_chunks partitions [0,n) exactly, in order"
    QCheck.(pair (int_bound 200) (int_range 1 8))
    (fun (n, workers) ->
      let plan = Engine.Pool.plan_chunks ~n ~workers in
      let count = Array.length plan in
      (* Count law: never more chunks than slots, at least one per worker
         (for parallelism), near 8 slots each. *)
      let expect_count =
        if n <= 0 then 0 else min n (max workers ((n + 7) / 8))
      in
      if count <> expect_count then
        QCheck.Test.fail_reportf "n=%d workers=%d: %d chunks, not %d" n
          workers count expect_count;
      (* Exact contiguous cover: every index exactly once, in order. *)
      let next = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          if lo <> !next then
            QCheck.Test.fail_reportf "gap/overlap: chunk starts at %d, not %d"
              lo !next;
          if hi <= lo then QCheck.Test.fail_reportf "empty chunk at %d" lo;
          next := hi)
        plan;
      if !next <> max 0 n then
        QCheck.Test.fail_reportf "cover ends at %d, not %d" !next n;
      (* Sizes differ by at most one, longer chunks first. *)
      let sizes = Array.map (fun (lo, hi) -> hi - lo) plan in
      for i = 1 to count - 1 do
        if sizes.(i) > sizes.(i - 1) then
          QCheck.Test.fail_reportf "short chunk before long at %d" i
      done;
      if count > 0 && sizes.(0) - sizes.(count - 1) > 1 then
        QCheck.Test.fail_reportf "chunk sizes differ by more than one";
      true)

let test_plan_chunks_edges () =
  let sizes plan = Array.map (fun (lo, hi) -> hi - lo) plan in
  checki "n=0 plans nothing"
    0 (Array.length (Engine.Pool.plan_chunks ~n:0 ~workers:4));
  (match Engine.Pool.plan_chunks ~n:1 ~workers:4 with
   | [| (0, 1) |] -> ()
   | _ -> Alcotest.fail "n=1 is one length-1 chunk");
  (* n < workers: one slot per chunk, never an empty chunk. *)
  let p = Engine.Pool.plan_chunks ~n:3 ~workers:8 in
  checki "n < workers plans n chunks" 3 (Array.length p);
  Array.iteri
    (fun i (lo, hi) ->
      checki "lo" i lo;
      checki "hi" (i + 1) hi)
    p;
  (* Longer chunks first: 10 slots over 4 chunks is 3,3,2,2. *)
  checkb "sizes 3,3,2,2" true
    (sizes (Engine.Pool.plan_chunks ~n:10 ~workers:4) = [| 3; 3; 2; 2 |]);
  (* Past 8 slots per worker the chunks stay at 8: 24 slots over 2
     workers are three chunks. *)
  checkb "sizes 8,8,8" true
    (sizes (Engine.Pool.plan_chunks ~n:24 ~workers:2) = [| 8; 8; 8 |])

(* ------------------------------------------------------------------ *)
(* Pool basics *)

let build_pool ?(workers = 2) ?chaos doc =
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  let estimator = Core.Estimator.create ~het kernel in
  (path_tree, Engine.Pool.create ~workers ?chaos estimator)

let test_pool_lifecycle () =
  Alcotest.check_raises "workers >= 1"
    (Invalid_argument "Pool.create: workers 0 < 1") (fun () ->
      ignore
        (Engine.Pool.create ~workers:0
           (Core.Estimator.create
              (Core.Builder.of_string Datagen.Paper_example.document))));
  let _, pool = build_pool ~workers:2 Datagen.Paper_example.document in
  checki "workers" 2 (Engine.Pool.workers pool);
  checki "epoch starts at 0" 0 (Engine.Pool.epoch pool);
  (match Engine.Pool.estimate pool "/site/regions" with
   | Ok r -> checkb "finite" true (Float.is_finite r.Engine.Serve.value)
   | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e));
  (match Engine.Pool.estimate pool "/site[" with
   | Ok _ -> Alcotest.fail "bad query served"
   | Error e ->
     checkb "typed parse error" true
       (Core.Error.kind e = Core.Error.Malformed_query));
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool;  (* idempotent *)
  (match Engine.Pool.estimate pool "/site" with
   | Ok _ -> Alcotest.fail "served after shutdown"
   | Error e ->
     checkb "shutdown error" true (Core.Error.kind e = Core.Error.Internal))

let test_pool_invalidate_bumps_epoch () =
  let _, pool = build_pool Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let e0 = Engine.Pool.epoch pool in
  Engine.Pool.invalidate pool;
  checki "invalidate bumps" (e0 + 1) (Engine.Pool.epoch pool);
  (* Estimates still work after invalidation (caches repopulate). *)
  match Engine.Pool.estimate pool "/site/regions" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-invalidate: %s" (Core.Error.to_string e)

let expect_singles pool queries =
  List.map
    (fun q ->
      match Engine.Pool.estimate pool q with
      | Ok r -> r.Engine.Serve.value
      | Error e -> Alcotest.failf "single %s: %s" q (Core.Error.to_string e))
    queries

let check_replies ~expected replies =
  List.iteri
    (fun i reply ->
      match reply with
      | Ok r ->
        Alcotest.(check int64)
          (Printf.sprintf "slot %d" i)
          (bits (List.nth expected i))
          (bits r.Engine.Serve.value)
      | Error e -> Alcotest.failf "slot %d: %s" i (Core.Error.to_string e))
    replies

let test_pool_batch_order () =
  let path_tree, pool = build_pool Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    List.map Xpath.Ast.to_string (Datagen.Workload.all_simple_paths path_tree)
  in
  (* Sequential singles establish the expected values... *)
  let expected = expect_singles pool queries in
  (* ...then one batch (larger than the worker count, including repeats)
     must return them in submission order. *)
  let batch = Engine.Pool.estimate_batch pool (queries @ queries) in
  checki "batch size" (2 * List.length queries) (List.length batch);
  check_replies ~expected:(expected @ expected) batch

(* Random batch shapes against sequential singles: submission order and
   bit-identity hold for every n (0, 1, n < workers, n >> workers) on a
   3-domain pool. Fixed seed, one pool. *)
let test_pool_batch_random_shapes () =
  let path_tree, pool =
    build_pool ~workers:3 Datagen.Paper_example.document
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (Datagen.Workload.all_simple_paths path_tree))
  in
  let expected =
    Array.map
      (fun q ->
        match Engine.Pool.estimate pool q with
        | Ok r -> r.Engine.Serve.value
        | Error e -> Alcotest.failf "single %s: %s" q (Core.Error.to_string e))
      queries
  in
  let rng = Datagen.Rng.create ~seed:42 in
  for round = 1 to 50 do
    (* Cover the edges deterministically, then random widths. *)
    let n =
      match round with
      | 1 -> 0
      | 2 -> 1
      | 3 -> 2 (* n < workers *)
      | _ -> Datagen.Rng.int rng 40
    in
    let idx =
      List.init n (fun _ -> Datagen.Rng.int rng (Array.length queries))
    in
    let batch =
      Engine.Pool.estimate_batch pool (List.map (fun i -> queries.(i)) idx)
    in
    checki (Printf.sprintf "round %d size" round) n (List.length batch);
    List.iteri
      (fun slot reply ->
        let i = List.nth idx slot in
        match reply with
        | Ok r ->
          Alcotest.(check int64)
            (Printf.sprintf "round %d slot %d (%s)" round slot queries.(i))
            (bits expected.(i))
            (bits r.Engine.Serve.value)
        | Error e ->
          Alcotest.failf "round %d slot %d: %s" round slot
            (Core.Error.to_string e))
      batch
  done

(* ------------------------------------------------------------------ *)
(* Work-queue contention stats. The queue counts a wait (and starts its
   clock) under the lock *before* sleeping, so polling [stats] until
   [push_waits]/[pop_waits] ticks is a deterministic rendezvous with a
   blocked domain — no sleeps, no flakes. *)

let test_queue_stats () =
  let q = Engine.Work_queue.create ~capacity:2 in
  let s0 = Engine.Work_queue.stats q in
  checki "fresh pushes" 0 s0.Engine.Work_queue.pushes;
  checki "fresh pops" 0 s0.Engine.Work_queue.pops;
  checki "fresh high-water" 0 s0.Engine.Work_queue.max_occupancy;
  checkb "push 1" true (Engine.Work_queue.push q 1);
  checkb "push 2" true (Engine.Work_queue.push q 2);
  let s1 = Engine.Work_queue.stats q in
  checki "two pushes" 2 s1.Engine.Work_queue.pushes;
  checki "high-water follows occupancy" 2 s1.Engine.Work_queue.max_occupancy;
  checki "uncontended pushes never wait" 0 s1.Engine.Work_queue.push_waits;
  let producer = Domain.spawn (fun () -> Engine.Work_queue.push q 3) in
  while (Engine.Work_queue.stats q).Engine.Work_queue.push_waits = 0 do
    Domain.cpu_relax ()
  done;
  checkb "pop releases the blocked producer" true
    (Engine.Work_queue.pop q = Some 1);
  checkb "blocked push lands" true (Domain.join producer);
  let s2 = Engine.Work_queue.stats q in
  checki "blocked push counted once" 1 s2.Engine.Work_queue.push_waits;
  checkb "producer blocking time accumulates" true
    (s2.Engine.Work_queue.push_wait_s > 0.0);
  (* Symmetric consumer-side wait on an empty ring. *)
  checkb "drain 2" true (Engine.Work_queue.pop q = Some 2);
  checkb "drain 3" true (Engine.Work_queue.pop q = Some 3);
  let consumer = Domain.spawn (fun () -> Engine.Work_queue.pop q) in
  while (Engine.Work_queue.stats q).Engine.Work_queue.pop_waits = 0 do
    Domain.cpu_relax ()
  done;
  checkb "push releases the blocked consumer" true
    (Engine.Work_queue.push q 9);
  checkb "blocked pop sees the push" true (Domain.join consumer = Some 9);
  let s3 = Engine.Work_queue.stats q in
  checki "all pushes counted" 4 s3.Engine.Work_queue.pushes;
  checki "all pops counted" 4 s3.Engine.Work_queue.pops;
  checki "blocked pop counted once" 1 s3.Engine.Work_queue.pop_waits;
  checkb "consumer blocking time accumulates" true
    (s3.Engine.Work_queue.pop_wait_s > 0.0)

(* ------------------------------------------------------------------ *)
(* PROFILE: per-stage percentiles over one measured batch, and the
   protocol spelling of the same. *)

let serve_handle server ?(payload = []) line =
  let remaining = ref payload in
  let read_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      remaining := rest;
      Some l
  in
  match Engine.Serve.handle_request server ~read_line line with
  | Some r -> r
  | None -> Alcotest.failf "no response to %S" line

let test_pool_profile () =
  let _, pool = build_pool ~workers:4 Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    List.init 12 (fun i -> if i mod 2 = 0 then "/site/regions" else "/site")
  in
  (match Engine.Pool.profile pool queries with
   | Error e -> Alcotest.failf "profile: %s" (Core.Error.to_string e)
   | Ok p ->
     checki "every query measured" 12 p.Engine.Serve.profiled;
     let ordered (s : Engine.Serve.stage_percentiles) =
       0.0 <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99
     in
     checkb "queue-wait percentiles ordered" true
       (ordered p.Engine.Serve.queue_wait_us);
     checkb "execute percentiles ordered" true
       (ordered p.Engine.Serve.execute_us);
     checkb "reassemble percentiles ordered" true
       (ordered p.Engine.Serve.reassemble_us);
     checkb "execute time is measured" true
       (p.Engine.Serve.execute_us.Engine.Serve.p99 > 0.0));
  (* The protocol verb frames like BATCH (count, then payload lines) and
     answers in one line; a bad query is timed, not failed. *)
  let server = Engine.Pool.server pool in
  let r =
    serve_handle server
      ~payload:[ "/site/regions"; "/site"; "/site[" ]
      "PROFILE 3"
  in
  checkb "single-line reply" true (not (String.contains r '\n'));
  checkb "profile reply shape" true
    (String.starts_with ~prefix:"OK 3 queue_wait_us " r);
  match String.split_on_char ' ' r with
  | "OK" :: "3" :: rest ->
    let kvs = List.filter (fun tok -> String.contains tok '=') rest in
    checki "eleven stage fields" 11 (List.length kvs);
    List.iter
      (fun tok ->
        let i = String.index tok '=' in
        let v = String.sub tok (i + 1) (String.length tok - i - 1) in
        match float_of_string_opt v with
        | Some f ->
          checkb (tok ^ " is a finite stage time") true
            (Float.is_finite f && f >= 0.0)
        | None -> Alcotest.failf "unparseable field %S" tok)
      kvs
  | _ -> Alcotest.failf "unexpected PROFILE reply %S" r

(* ------------------------------------------------------------------ *)
(* Causal trace: a traced 4-worker pool exports a lint-clean Perfetto
   trace whose slices land on the right tracks and whose flows resolve. *)

let trace_events json =
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "trace without traceEvents"

let ev_str field ev =
  match Obs.Json.member field ev with
  | Some (Obs.Json.String s) -> Some s
  | _ -> None

let ev_int field ev =
  match Obs.Json.member field ev with
  | Some (Obs.Json.Int n) -> Some n
  | Some (Obs.Json.Float f) -> Some (int_of_float f)
  | _ -> None

let count pred evs = List.length (List.filter pred evs)

let test_pool_trace () =
  let path_tree =
    Pathtree.Path_tree.of_string Datagen.Paper_example.document
  in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table
      Datagen.Paper_example.document
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  let estimator = Core.Estimator.create ~het kernel in
  let tr = Obs.Trace.create () in
  let pool = Engine.Pool.create ~workers:4 ~trace:tr estimator in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* 16 queries over 4 workers plan as exactly 4 chunks
     (min 16 (max 4 (ceil 16/8))). *)
  let queries =
    List.init 16 (fun i -> if i mod 2 = 0 then "/site/regions" else "/site")
  in
  checki "batch answered" 16
    (List.length (Engine.Pool.estimate_batch pool queries));
  (match Engine.Pool.feedback pool "/site/regions" ~actual:3 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  (match Engine.Pool.explain pool "/site/regions" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "explain: %s" (Core.Error.to_string e));
  let json = Obs.Trace.to_json tr in
  (match Obs.Trace.lint json with
   | [] -> ()
   | problems ->
     Alcotest.failf "pool trace lint: %s" (String.concat "; " problems));
  let evs = trace_events json in
  let named ph name ev =
    ev_str "ph" ev = Some ph && ev_str "name" ev = Some name
  in
  checki "one dispatch instant per planned chunk" 4
    (count (named "i" "chunk_dispatch") evs);
  let executes = List.filter (named "X" "execute") evs in
  checki "one execute slice per chunk" 4 (List.length executes);
  checkb "execute slices live on shard tracks" true
    (List.for_all
       (fun ev ->
         match ev_int "tid" ev with
         | Some tid -> tid >= 1 && tid <= 4
         | None -> false)
       executes);
  checkb "coordinator frames the batch" true
    (count (named "X" "batch_submit") evs >= 1
    && count (named "X" "batch_gather") evs >= 1);
  let flows_started = count (fun ev -> ev_str "ph" ev = Some "s") evs in
  checki "one flow per planned chunk" 4 flows_started;
  checki "every flow lands" flows_started
    (count (fun ev -> ev_str "ph" ev = Some "f") evs);
  checki "queue-wait spans balance"
    (count (fun ev -> ev_str "ph" ev = Some "b") evs)
    (count (fun ev -> ev_str "ph" ev = Some "e") evs);
  checkb "gc counters sampled" true
    (count (fun ev -> ev_str "ph" ev = Some "C") evs > 0);
  checki "drained feedback traced" 1 (count (named "X" "feedback") evs);
  checki "drained explain traced" 1 (count (named "X" "explain") evs);
  checki "coordinator + 4 shard name rows" 5
    (count
       (fun ev ->
         ev_str "ph" ev = Some "M" && ev_str "name" ev = Some "thread_name")
       evs)

(* ------------------------------------------------------------------ *)
(* The chaos gate. A thread serving the gate's query blocks inside the
   chaos hook until the gate opens, then serves the query normally; the
   entry count is the rendezvous proving how many threads are parked.

   The submitter serves a batch's first chunk itself and then takes back
   whatever is still queued. To pin queued chunks on the domains, a test
   fills the first chunk with [barrier] slots: the hook holds the
   submitter there until the domains have popped [g_pops] chunks in all
   (the queue's own counter), so the submitter finds nothing left to take
   back. *)

let pool_stat pool key =
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc_opt "pool" fields with
     | Some (Obs.Json.Obj pf) ->
       (match List.assoc_opt key pf with
        | Some (Obs.Json.Int n) -> n
        | _ -> Alcotest.failf "pool stats lack int %s" key)
     | _ -> Alcotest.fail "stats without pool object")
  | _ -> Alcotest.fail "stats_json not an object"

let queue_pops pool = pool_stat pool "queue_pops"
let barrier = "//barrier"

type gate = {
  g_query : string;
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable g_entered : int;
  mutable g_released : bool;
  mutable g_pool : Engine.Pool.t option;  (* the pool the barrier watches *)
  mutable g_pops : int;  (* queue pops the barrier waits for *)
}

let gate ?(query = "//sleepy") () =
  { g_query = query; g_lock = Mutex.create (); g_cond = Condition.create ();
    g_entered = 0; g_released = false; g_pool = None; g_pops = 0 }

let gate_hook g q =
  if q = g.g_query then begin
    Mutex.lock g.g_lock;
    g.g_entered <- g.g_entered + 1;
    Condition.broadcast g.g_cond;
    while not g.g_released do Condition.wait g.g_cond g.g_lock done;
    Mutex.unlock g.g_lock
  end
  else if q = barrier then
    Option.iter
      (fun pool ->
        while queue_pops pool < g.g_pops do Domain.cpu_relax () done)
      g.g_pool;
  false (* then serve normally *)

(* A gated pool whose barrier watches it. *)
let gated_pool g create =
  let pool = create ~chaos:(gate_hook g) in
  g.g_pool <- Some pool;
  pool

(* A batch of [8 * workers] slots — exactly [workers] chunks of 8 — whose
   slots in chunk [k] are [fill k]. *)
let chunked ~workers fill =
  List.concat
    (List.init workers (fun k -> List.init 8 (fun _ -> fill k)))

(* Submit a [chunked] batch whose chunk 0 is all [barrier], holding the
   submitter until the domains have popped [pops] of its chunks. *)
let submit_pinned pool g ~pops queries =
  g.g_pops <- queue_pops pool + pops;
  Engine.Pool.estimate_batch pool queries

let gate_await_entered ?(n = 1) g =
  Mutex.lock g.g_lock;
  while g.g_entered < n do Condition.wait g.g_cond g.g_lock done;
  Mutex.unlock g.g_lock

let gate_release g =
  Mutex.lock g.g_lock;
  g.g_released <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_lock

(* Park [n] of the [workers - 1] worker domains of a gated pool: one
   pinned batch whose chunks 1..n carry the gate's query and any later
   ones a plain query. Each domain stops at the first slot of the chunk it
   popped, so chunks 1..n (popped first, in FIFO order) park [n] distinct
   domains, and the barrier keeps the submitter off them. Returns the
   parked batch's submitter; the queue is empty again when it returns. *)
let park pool g ~workers n =
  let queries =
    chunked ~workers (fun k ->
        if k = 0 then barrier else if k <= n then g.g_query else "/site")
  in
  let d = Domain.spawn (fun () -> submit_pinned pool g ~pops:n queries) in
  gate_await_entered ~n g;
  d

(* Open the gate and collect the parked batch's replies. *)
let unpark g sleeper =
  gate_release g;
  List.iter
    (function
      | Ok (_ : Engine.Serve.estimate_reply) -> ()
      | Error e -> Alcotest.failf "parked query: %s" (Core.Error.to_string e))
    (Domain.join sleeper)

let paper_estimator () =
  let doc = Datagen.Paper_example.document in
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  Core.Estimator.create ~het kernel

(* A parked worker does not strand a batch: with one of a 3-worker pool's
   two domains parked, a 24-slot batch (three 8-slot chunks) completes on
   the submitter and the other domain while the gate is still closed —
   bit-identical to single estimates and in submission order. The wait is
   bounded, so a stranded chunk fails the test instead of hanging it. *)
let test_pool_parked_worker () =
  let g = gate () in
  let pool =
    gated_pool g (fun ~chaos ->
        Engine.Pool.create ~workers:3 ~chaos (paper_estimator ()))
  in
  Fun.protect
    ~finally:(fun () ->
      gate_release g;
      Engine.Pool.shutdown pool)
  @@ fun () ->
  let queries =
    List.init 24 (fun i ->
        match i mod 3 with
        | 0 -> "/site"
        | 1 -> "/site/regions"
        | _ -> "/site/people")
  in
  let expected = expect_singles pool queries in
  (* Cold caches, so the batch runs the matcher rather than cache hits. *)
  Engine.Pool.invalidate pool;
  let sleeper = park pool g ~workers:3 1 in
  let served = Atomic.make None in
  let batcher =
    Domain.spawn (fun () ->
        Atomic.set served (Some (Engine.Pool.estimate_batch pool queries)))
  in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Atomic.get served = None && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  let while_parked = Atomic.get served in
  unpark g sleeper;
  Domain.join batcher;
  match while_parked with
  | None -> Alcotest.fail "batch stranded behind the parked worker"
  | Some batch ->
    checki "all slots answered" 24 (List.length batch);
    check_replies ~expected batch

(* ------------------------------------------------------------------ *)
(* The submitter is worker 0: one-chunk requests never leave it, and the
   worker domains start with the first batch that queues a chunk. *)

let test_pool_one_chunk_stays_home () =
  let path_tree, pool = build_pool ~workers:4 Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (Datagen.Workload.all_simple_paths path_tree))
  in
  let pick i = queries.(i mod Array.length queries) in
  for i = 1 to 1000 do
    match Engine.Pool.estimate pool (pick i) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "single %d: %s" i (Core.Error.to_string e)
  done;
  for i = 1 to 20 do
    let width = 1 + (i mod 8) in
    checki "batch answered" width
      (List.length
         (Engine.Pool.estimate_batch pool
            (List.init width (fun k -> pick (i + k)))))
  done;
  checki "singles and BATCH <= 8 push nothing" 0
    (pool_stat pool "queue_pushes");
  checki "no domain started" 0 (Engine.Pool.domains pool);
  (* BATCH 9 plans four chunks at four workers: the first stays with the
     submitter and the other three are queued. *)
  checki "BATCH 9 answered" 9
    (List.length (Engine.Pool.estimate_batch pool (List.init 9 pick)));
  checki "BATCH 9 queues three chunks" 3 (pool_stat pool "queue_pushes");
  checki "the first queued chunk starts every domain" 3
    (Engine.Pool.domains pool);
  checki "workers still counts the submitter" 4 (Engine.Pool.workers pool)

(* A pool that never queued a chunk has no domain to join: shutting it
   down returns at once. *)
let test_pool_shutdown_without_domains () =
  let _, pool = build_pool ~workers:4 Datagen.Paper_example.document in
  checki "batch answered" 8
    (List.length
       (Engine.Pool.estimate_batch pool (List.init 8 (fun _ -> "/site"))));
  checki "no domain started" 0 (Engine.Pool.domains pool);
  let t0 = Unix.gettimeofday () in
  Engine.Pool.shutdown pool;
  checkb "shutdown returns at once" true (Unix.gettimeofday () -. t0 < 1.0);
  match Engine.Pool.estimate pool "/site" with
  | Ok _ -> Alcotest.fail "served after shutdown"
  | Error e ->
    checkb "shutdown error" true (Core.Error.kind e = Core.Error.Internal)

(* A batch of 2,100 slots (263 chunks) through a one-slot queue. Under
   [`Block] it completes at 1, 2 and 4 workers, bit-identical to singles:
   the submitter may only block on a push while worker domains drain the
   queue, never on a queue that only it drains. Under shed-newest only
   queued chunks are shed — whole chunks, never the submitter's first —
   and every served slot is still bit-identical. *)
let test_pool_huge_batch_tiny_queue () =
  let path_tree =
    Pathtree.Path_tree.of_string Datagen.Paper_example.document
  in
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (Datagen.Workload.all_simple_paths path_tree))
  in
  let n = 2100 in
  let batch = List.init n (fun i -> queries.(i mod Array.length queries)) in
  let expected =
    let pool = Engine.Pool.create ~workers:1 (paper_estimator ()) in
    Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
    Array.of_list (expect_singles pool (Array.to_list queries))
  in
  let expect slot = expected.(slot mod Array.length queries) in
  List.iter
    (fun workers ->
      List.iter
        (fun shed_policy ->
          let label =
            Printf.sprintf "%d workers, %s" workers
              (if shed_policy = `Block then "block" else "shed-newest")
          in
          let pool =
            Engine.Pool.create ~workers ~queue_capacity:1 ~shed_policy
              (paper_estimator ())
          in
          Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool)
          @@ fun () ->
          let replies = Array.of_list (Engine.Pool.estimate_batch pool batch) in
          checki (label ^ ": all slots answered") n (Array.length replies);
          let plan = Engine.Pool.plan_chunks ~n ~workers in
          if workers > 1 then
            checki (label ^ ": 263 chunks") 263 (Array.length plan);
          let shed = ref 0 in
          Array.iteri
            (fun k (lo, hi) ->
              let served =
                match replies.(lo) with Ok _ -> true | Error _ -> false
              in
              if k = 0 then checkb (label ^ ": first chunk served") true served;
              for slot = lo to hi - 1 do
                match replies.(slot) with
                | Ok r when served ->
                  Alcotest.(check int64)
                    (Printf.sprintf "%s: slot %d bit-identical" label slot)
                    (bits (expect slot)) (bits r.Engine.Serve.value)
                | Error e when not served ->
                  checkb (label ^ ": refused slots are shed") true
                    (Core.Error.kind e = Core.Error.Overloaded);
                  incr shed
                | _ -> Alcotest.failf "%s: chunk %d split by a shed" label k
              done)
            plan;
          checki (label ^ ": shed_total counts the shed slots") !shed
            (Engine.Pool.shed_total pool);
          if shed_policy = `Block then
            checki (label ^ ": nothing shed") 0 !shed)
        [ `Block; `Shed_newest ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Contention telemetry surfaces in the merged exposition and STATS. *)

(* A metrics exposition parses iff every non-comment line is
   "name{labels} value" with a finite value and names are sorted runs
   grouped by series (the deterministic-merge contract). *)
let lint_prometheus text =
  let lines = String.split_on_char '\n' text in
  List.iter
    (fun line ->
      if line <> "" && line.[0] <> '#' then begin
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "torn metrics line: %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (* NaN is legal exposition (empty drift window); a torn line is
             not parseable at all. *)
          (match float_of_string_opt v with
           | Some _ -> ()
           | None -> Alcotest.failf "unparseable value in %S" line)
      end)
    lines

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let metric_value text name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> Some v
      | _ -> None)
    (String.split_on_char '\n' text)

(* High-water counters are one peak across shards, not a sum of per-shard
   peaks: a 2-worker pool whose shards both served reads the inline pool's
   frontier peak after the same queries. The 16 slots (the 4 queries four
   times) plan as two 8-slot chunks; the gate parks the submitter inside
   the first query of chunk 0, so only the domain can pop chunk 1, and both
   shards estimate every query — a sum would double the peak. *)
let test_pool_metrics_high_water () =
  let doc = Datagen.Xmark.generate ~seed:4 ~items:20 () in
  let queries =
    List.concat
      (List.init 4 (fun _ ->
           [ "//item"; "/site/regions//item/name"; "//person";
             "//open_auction/bidder" ]))
  in
  let inline_text =
    let _, pool = build_pool ~workers:1 doc in
    Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
    ignore
      (Engine.Pool.estimate_batch pool queries
        : (Engine.Serve.estimate_reply, Core.Error.t) result list);
    Engine.Pool.metrics_text pool
  in
  let g = gate ~query:"//item" () in
  let _, pool = build_pool ~workers:2 ~chaos:(gate_hook g) doc in
  let two_text =
    Fun.protect
      ~finally:(fun () ->
        gate_release g;
        Engine.Pool.shutdown pool)
    @@ fun () ->
    let batcher =
      Domain.spawn (fun () -> Engine.Pool.estimate_batch pool queries)
    in
    gate_await_entered g;
    while queue_pops pool < 1 do Domain.cpu_relax () done;
    gate_release g;
    ignore
      (Domain.join batcher
        : (Engine.Serve.estimate_reply, Core.Error.t) result list);
    Engine.Pool.metrics_text pool
  in
  List.iter
    (fun shard ->
      let name =
        Printf.sprintf "xseed_engine_pool_busy_fraction{shard=\"%d\"}" shard
      in
      match Option.bind (metric_value two_text name) float_of_string_opt with
      | Some f -> checkb (name ^ " > 0") true (f > 0.0)
      | None -> Alcotest.failf "%s missing" name)
    [ 0; 1 ];
  let name = "xseed_matcher_frontier_peak" in
  let inline_v = metric_value inline_text name in
  checkb (name ^ " present") true (inline_v <> None);
  Alcotest.(check (option string)) name inline_v (metric_value two_text name)

let test_pool_telemetry_metrics () =
  let _, pool = build_pool ~workers:2 Datagen.Paper_example.document in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  ignore
    (Engine.Pool.estimate_batch pool (List.init 32 (fun _ -> "/site/regions"))
      : (Engine.Serve.estimate_reply, Core.Error.t) result list);
  let text = Engine.Pool.metrics_text pool in
  lint_prometheus text;
  List.iter
    (fun needle -> checkb needle true (contains ~needle text))
    [ "xseed_engine_pool_queue_wait_us_count";
      "xseed_engine_pool_batch_chunk_count";
      "xseed_engine_pool_queue_pushes";
      "xseed_engine_pool_queue_max_occupancy";
      "xseed_engine_gc_minor_words{shard=\"0\"}";
      "xseed_engine_gc_minor_words{shard=\"1\"}";
      "xseed_engine_pool_busy_fraction{shard=\"0\"}";
      "xseed_engine_pool_busy_fraction{shard=\"1\"}" ];
  (* Scrape self-observability: the first scrape latches its own duration,
     and after fresh traffic the next scrape publishes it. Once published,
     a quiet re-scrape re-emits the latched values byte-for-byte (asserted
     wholesale by the stress run's quiet-scrape law). *)
  ignore
    (Engine.Pool.estimate pool "/site/regions"
      : (Engine.Serve.estimate_reply, Core.Error.t) result);
  let text2 = Engine.Pool.metrics_text pool in
  List.iter
    (fun needle -> checkb needle true (contains ~needle text2))
    [ "xseed_scrape_total 1"; "xseed_scrape_duration_seconds" ];
  (* STATS mirrors the queue's contention counters. *)
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc_opt "pool" fields with
     | Some (Obs.Json.Obj pf) ->
       List.iter
         (fun k -> checkb ("pool stats has " ^ k) true (List.mem_assoc k pf))
         [ "queue_pushes"; "queue_pops"; "queue_push_waits";
           "queue_pop_waits"; "queue_push_wait_s"; "queue_pop_wait_s";
           "queue_max_occupancy" ];
       (match List.assoc "queue_pushes" pf with
        | Obs.Json.Int n ->
          (* Chunked dispatch: the 32-query batch planned four 8-slot
             chunks and queued all but the first; the single estimate
             queued nothing — pushes count chunks, not slots. *)
          checkb "batch traffic counted in chunks" true (n >= 3)
        | _ -> Alcotest.fail "queue_pushes not an int")
     | _ -> Alcotest.fail "stats without pool object")
  | _ -> Alcotest.fail "stats_json not an object"

(* ------------------------------------------------------------------ *)
(* Stress: 4 client domains x STRESS_OPS mixed operations, fixed seed,
   against a STRESS_WORKERS-worker pool: singles and small batches take
   turns on the submission lock, larger batches fan out as several chunks
   over the one shared queue under real contention. *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some s ->
    (match int_of_string_opt s with
     | Some n when n > 0 -> n
     | _ -> invalid_arg (name ^ " must be a positive integer"))
  | None -> default

let stress_ops () = env_int "STRESS_OPS" 800
let stress_workers () = env_int "STRESS_WORKERS" 4

let test_pool_stress () =
  let ops = stress_ops () in
  let clients = 4 in
  let doc = Datagen.Xmark.generate ~seed:11 ~items:30 () in
  let path_tree, pool = build_pool ~workers:(stress_workers ()) doc in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let server = Engine.Pool.server pool in
  let queries =
    Array.of_list
      (List.map Xpath.Ast.to_string
         (let rng = Datagen.Rng.create ~seed:5 in
          Datagen.Workload.all_simple_paths path_tree
          @ Datagen.Workload.branching path_tree ~rng ~count:20 ()))
  in
  let failures = Atomic.make 0 in
  let epoch_regressions = Atomic.make 0 in
  let client c =
    let rng = Datagen.Rng.create ~seed:(100 + c) in
    let last_epoch = ref 0 in
    let ok_value (r : Engine.Serve.estimate_reply) =
      Float.is_finite r.Engine.Serve.value && r.Engine.Serve.value >= 0.0
    in
    for _ = 1 to ops do
      (* Epoch reads from client domains must be monotone non-decreasing. *)
      let e = Engine.Pool.epoch pool in
      if e < !last_epoch then Atomic.incr epoch_regressions;
      last_epoch := e;
      match Datagen.Rng.int rng 100 with
      | n when n < 55 ->
        let q = queries.(Datagen.Rng.int rng (Array.length queries)) in
        (match Engine.Pool.estimate pool q with
         | Ok r -> if not (ok_value r) then Atomic.incr failures
         | Error _ -> Atomic.incr failures)
      | n when n < 70 ->
        (* Up to 25 slots: a batch of more than 8 queues chunks for the
           worker domains, a smaller one stays on its submitter. *)
        let width = 2 + Datagen.Rng.int rng 24 in
        let batch =
          List.init width (fun _ ->
              queries.(Datagen.Rng.int rng (Array.length queries)))
        in
        List.iter
          (fun reply ->
            match reply with
            | Ok r -> if not (ok_value r) then Atomic.incr failures
            | Error _ -> Atomic.incr failures)
          (Engine.Pool.estimate_batch pool batch)
      | n when n < 80 ->
        let q = queries.(Datagen.Rng.int rng (Array.length queries)) in
        (match
           Engine.Pool.feedback pool q ~actual:(Datagen.Rng.int rng 50)
         with
         | Ok _ -> ()
         | Error _ -> Atomic.incr failures)
      | n when n < 90 -> ignore (Engine.Pool.stats_json pool : Obs.Json.t)
      | _ -> lint_prometheus (Engine.Pool.metrics_text pool)
    done
  in
  let domains = List.init clients (fun c -> Domain.spawn (fun () -> client c)) in
  List.iter Domain.join domains;
  checki "no failed operations" 0 (Atomic.get failures);
  checki "no epoch regressions" 0 (Atomic.get epoch_regressions);
  (* Post-run audits, quiesced. *)
  let merged = Engine.Pool.cache_counters pool in
  let per_shard = Engine.Pool.shard_cache_counters pool in
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 per_shard in
  checki "hits sum" merged.Engine.Lru_cache.hits
    (sum (fun c -> c.Engine.Lru_cache.hits));
  checki "misses sum" merged.Engine.Lru_cache.misses
    (sum (fun c -> c.Engine.Lru_cache.misses));
  checki "insertions sum" merged.Engine.Lru_cache.insertions
    (sum (fun c -> c.Engine.Lru_cache.insertions));
  checki "evictions sum" merged.Engine.Lru_cache.evictions
    (sum (fun c -> c.Engine.Lru_cache.evictions));
  checkb "some traffic was served" true
    (merged.Engine.Lru_cache.hits + merged.Engine.Lru_cache.misses > 0);
  (* Quiet pool: two scrapes must be byte-identical (no torn/duplicated
     series, idempotent republication). *)
  let m1 = Engine.Pool.metrics_text pool in
  let m2 = Engine.Pool.metrics_text pool in
  lint_prometheus m1;
  checks "quiet scrapes identical" m1 m2;
  (* Per-shard drift volumes sum into the DRIFT summary. As long as no
     window slot has expired (observations fit in slots x per_slot), the
     summed window volume must equal every estimate the shards served plus
     the feedback path's own notes — records from 4 worker rings and the
     coordinator reconciling exactly. *)
  (match Engine.Pool.drift pool with
   | None -> Alcotest.fail "stress pool has telemetry"
   | Some d ->
     let v =
       match Obs.Json.member "window_estimates" (Engine.Drift.to_json d) with
       | Some (Obs.Json.Int v) -> v
       | _ -> Alcotest.fail "DRIFT summary lacks window_estimates"
     in
     checki "drift summary = window volume" (Engine.Drift.window_estimates d) v;
     if Engine.Pool.feedback_seen pool <= 6 * 64 then
       checki "shard volumes sum to all served traffic"
         (merged.Engine.Lru_cache.hits + merged.Engine.Lru_cache.misses
         + Engine.Pool.feedback_seen pool)
         v);
  (* The protocol front door still answers coherently. *)
  (match server.Engine.Serve.stats_json () with
   | Obs.Json.Obj fields -> checkb "stats has pool" true (List.mem_assoc "pool" fields)
   | _ -> Alcotest.fail "stats_json not an object")

(* ------------------------------------------------------------------ *)
(* Close racing blocked producers/consumers. The wait counters tick under
   the queue lock before the domain sleeps, so spinning on them is a
   deterministic rendezvous with a domain that is provably blocked inside
   push/pop when close lands. *)

let test_queue_close_vs_blocked_push () =
  let q = Engine.Work_queue.create ~capacity:1 in
  checkb "fill" true (Engine.Work_queue.push q 1);
  let producer = Domain.spawn (fun () -> Engine.Work_queue.push q 2) in
  while (Engine.Work_queue.stats q).Engine.Work_queue.push_waits = 0 do
    Domain.cpu_relax ()
  done;
  (* The producer is asleep inside push; close must wake it and refuse. *)
  Engine.Work_queue.close q;
  checkb "blocked push returns false on close" false (Domain.join producer);
  checkb "pre-close item drains" true (Engine.Work_queue.pop q = Some 1);
  checkb "refused item was never enqueued" true (Engine.Work_queue.pop q = None);
  (* try_push answers `Closed without blocking. *)
  checkb "try_push sees closed" true (Engine.Work_queue.try_push q 3 = `Closed)

let test_queue_close_vs_blocked_pop () =
  let q = Engine.Work_queue.create ~capacity:1 in
  let consumer = Domain.spawn (fun () -> Engine.Work_queue.pop q) in
  while (Engine.Work_queue.stats q).Engine.Work_queue.pop_waits = 0 do
    Domain.cpu_relax ()
  done;
  (* The consumer is asleep inside pop on an empty ring; close wakes it
     into the drained-and-closed case. *)
  Engine.Work_queue.close q;
  checkb "blocked pop returns None on close" true (Domain.join consumer = None)

let test_queue_try_push () =
  let q = Engine.Work_queue.create ~capacity:2 in
  checkb "try_push 1" true (Engine.Work_queue.try_push q 1 = `Ok);
  checkb "try_push 2" true (Engine.Work_queue.try_push q 2 = `Ok);
  checkb "try_push full" true (Engine.Work_queue.try_push q 3 = `Full);
  let s = Engine.Work_queue.stats q in
  checki "refused push not counted" 2 s.Engine.Work_queue.pushes;
  checkb "pop makes room" true (Engine.Work_queue.pop q = Some 1);
  checkb "try_push after pop" true (Engine.Work_queue.try_push q 3 = `Ok)

(* ------------------------------------------------------------------ *)
(* Failure handling: deadlines, shedding, supervision, quarantine. *)

(* A negative deadline is already exceeded at dequeue, so every request is
   refused deterministically — no sleeps, no clock races. *)
let test_pool_deadline () =
  let pool =
    Engine.Pool.create ~workers:2 ~deadline_s:(-1.0) (paper_estimator ())
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries = [ "/site/regions"; "/site"; "/site/people" ] in
  List.iter
    (fun reply ->
      match reply with
      | Ok _ -> Alcotest.fail "expired request was served"
      | Error e ->
        checkb "ERR timeout" true (Core.Error.kind e = Core.Error.Timeout);
        checki "timeout exits 75" 75 (Core.Error.exit_code e))
    (Engine.Pool.estimate_batch pool queries);
  checki "timeout_total counts refused slots" 3
    (Engine.Pool.timeout_total pool);
  (* The refusals are visible in PROFILE and in the flight records. *)
  (match Engine.Pool.profile pool queries with
   | Ok p ->
     checki "profile reports timeouts" 3 p.Engine.Serve.timed_out;
     checki "profile reports no sheds" 0 p.Engine.Serve.shed
   | Error e -> Alcotest.failf "profile: %s" (Core.Error.to_string e));
  checkb "timeouts leave flight records" true
    (List.exists
       (fun (r : Engine.Flight_recorder.record) ->
         r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Timed_out)
       (Engine.Pool.recent pool));
  (* Failure counters surface in STATS. *)
  match Engine.Pool.stats_json pool with
  | Obs.Json.Obj fields ->
    (match List.assoc "pool" fields with
     | Obs.Json.Obj pf ->
       checkb "stats has timeout_total" true
         (List.assoc "timeout_total" pf = Obs.Json.Int 6)
       (* 3 from the batch + 3 from the profile run *)
     | _ -> Alcotest.fail "pool stats not an object")
  | _ -> Alcotest.fail "stats_json not an object"

(* Shed-newest under chunked dispatch: with the 2-worker pool's one domain
   parked in the gate, nothing but the submitter drains the capacity-1
   queue. A 24-slot batch (three 8-slot chunks) queues chunk 1, sheds
   chunk 2 — exactly eight slots — without blocking, and the submitter
   serves chunks 0 and 1 itself. Shedding needs a queue, so the pool runs
   a worker domain (a one-worker pool serves inline and never queues). *)
let test_pool_shed_newest () =
  let g = gate () in
  let pool =
    gated_pool g (fun ~chaos ->
        Engine.Pool.create ~workers:2 ~queue_capacity:1
          ~shed_policy:`Shed_newest ~chaos (paper_estimator ()))
  in
  Fun.protect
    ~finally:(fun () ->
      gate_release g;
      Engine.Pool.shutdown pool)
  @@ fun () ->
  let sleeper = park pool g ~workers:2 1 in
  let batch =
    Engine.Pool.estimate_batch pool (List.init 24 (fun _ -> "/site"))
  in
  checki "exactly eight sheds" 8 (Engine.Pool.shed_total pool);
  unpark g sleeper;
  checki "all slots answered" 24 (List.length batch);
  List.iteri
    (fun slot reply ->
      match reply with
      | Ok _ when slot < 16 -> ()
      | Error e when slot < 16 ->
        Alcotest.failf "admitted slot %d: %s" slot (Core.Error.to_string e)
      | Ok _ -> Alcotest.fail "shed slot was served"
      | Error e ->
        checkb "ERR overloaded" true
          (Core.Error.kind e = Core.Error.Overloaded);
        checki "overloaded exits 75" 75 (Core.Error.exit_code e);
        (* The shed diagnostic names the live queue capacity in the
           unified limit= form. *)
        checkb "names limit=1" true
          (let msg = Core.Error.message e in
           let needle = "limit=1" in
           let nl = String.length needle and n = String.length msg in
           let rec scan i =
             i + nl <= n && (String.sub msg i nl = needle || scan (i + 1))
           in
           scan 0))
    batch;
  checkb "sheds leave flight records" true
    (List.exists
       (fun (r : Engine.Flight_recorder.record) ->
         r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Shed)
       (Engine.Pool.recent pool))

(* Run [f] on a pool for the supervision tests, at one worker (a chunk is
   served on the submitter, so the crash cleanup runs there) or two. [f]
   gets [submit], which sends 8 queries: at one worker as one batch; at two
   as the queued chunk 1 of a 16-slot batch whose barrier chunk 0 holds
   the submitter until the domain has popped it, so every kill lands on
   the domain and [supervise] must re-enter the queue after the cleanup
   for the next submission to finish. *)
let supervised ~workers ~kill f =
  let g = gate () in
  let pool =
    gated_pool g (fun ~chaos ->
        Engine.Pool.create ~workers
          ~chaos:(fun q -> kill q || chaos q)
          (paper_estimator ()))
  in
  Fun.protect
    ~finally:(fun () ->
      gate_release g;
      Engine.Pool.shutdown pool)
  @@ fun () ->
  let submit queries =
    if workers = 1 then Engine.Pool.estimate_batch pool queries
    else
      List.filteri
        (fun slot _ -> slot >= 8)
        (submit_pinned pool g ~pops:1
           (List.init 8 (fun _ -> barrier) @ queries))
  in
  f pool submit

(* One injected worker death: the in-flight slot answers ERR internal (the
   batch never hangs), the worker restarts in place, and the pool keeps
   serving. A second death of the same query quarantines it. *)
let supervision ~workers =
  let kills = Atomic.make 0 in
  let kill q =
    if q = "//kill" then begin
      Atomic.incr kills;
      true
    end
    else false
  in
  supervised ~workers ~kill @@ fun pool submit ->
  let estimate q =
    if workers = 1 then Engine.Pool.estimate pool q
    else List.hd (submit (List.init 8 (fun _ -> q)))
  in
  (* First crash: answered, restarted, not yet quarantined. *)
  (match estimate "//kill" with
   | Ok _ -> Alcotest.fail "killed query was served"
   | Error e ->
     checkb "ERR internal" true (Core.Error.kind e = Core.Error.Internal);
     checkb "diagnostic names the crash" true
       (let msg = Core.Error.message e in
        let has needle =
          let nl = String.length needle and ml = String.length msg in
          let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
          go 0
        in
        has "died" && has "restarted"));
  checki "one restart" 1 (Engine.Pool.worker_restarts pool);
  checki "not yet quarantined" 0 (Engine.Pool.quarantined_count pool);
  (* The restarted worker still serves. *)
  (match estimate "/site/regions" with
   | Ok r -> checkb "finite" true (Float.is_finite r.Engine.Serve.value)
   | Error e -> Alcotest.failf "post-restart: %s" (Core.Error.to_string e));
  (* Second crash of the same query: quarantined. *)
  (match estimate "//kill" with
   | Ok _ -> Alcotest.fail "killed query was served"
   | Error e ->
     checkb "second crash is internal" true
       (Core.Error.kind e = Core.Error.Internal));
  checki "two restarts" 2 (Engine.Pool.worker_restarts pool);
  checki "quarantined after two kills" 1 (Engine.Pool.quarantined_count pool);
  (* Third submission is refused at dequeue without executing: the chaos
     hook never fires again. *)
  (match estimate "//kill" with
   | Ok _ -> Alcotest.fail "quarantined query was served"
   | Error e ->
     checkb "quarantine is internal" true
       (Core.Error.kind e = Core.Error.Internal));
  checki "no third kill" 2 (Atomic.get kills);
  checki "no third restart" 2 (Engine.Pool.worker_restarts pool);
  (* Untouched queries keep working around the quarantine. *)
  match estimate "/site" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-quarantine: %s" (Core.Error.to_string e)

let test_pool_supervision () =
  supervision ~workers:1;
  supervision ~workers:2

(* A worker killed mid-chunk: the already-served slots keep their answers,
   the unserved remainder of the chunk answers ERR internal, and the batch
   still completes in submission order. The 8 slots are one chunk, on the
   submitter at one worker and on the domain at two; the kill at slot 5 is
   mid-chunk either way. *)
let supervision_mid_chunk ~workers =
  supervised ~workers ~kill:(fun q -> q = "//kill") @@ fun pool submit ->
  let queries =
    [ "/site"; "/site/regions"; "/site/people"; "/site";
      "/site/regions"; "//kill"; "/site"; "/site/people" ]
  in
  let batch = submit queries in
  checki "all slots answered" 8 (List.length batch);
  List.iteri
    (fun i reply ->
      match (i, reply) with
      | i, Ok r when i < 5 ->
        checkb (Printf.sprintf "slot %d served before the crash" i) true
          (Float.is_finite r.Engine.Serve.value)
      | i, Ok _ -> Alcotest.failf "slot %d served after the crash" i
      | i, Error e when i < 5 ->
        Alcotest.failf "pre-crash slot %d failed: %s" i
          (Core.Error.to_string e)
      | _, Error e ->
        checkb "post-crash slots answer internal" true
          (Core.Error.kind e = Core.Error.Internal))
    batch;
  checki "one restart" 1 (Engine.Pool.worker_restarts pool);
  (* The pool keeps serving after the mid-chunk recovery. *)
  match Engine.Pool.estimate pool "/site" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-crash estimate: %s" (Core.Error.to_string e)

let test_pool_supervision_mid_chunk () =
  supervision_mid_chunk ~workers:1;
  supervision_mid_chunk ~workers:2

(* Flight records take a served miss's HET hits from the matcher's own
   overrides. On a synopsis with branching HET entries, each miss records
   the joint plus single overrides EXPLAIN reports for its query, and a hit
   records 0. At two workers the 16-slot batch's chunk 1 is pinned on the
   domain (its barrier chunk 0 holds the submitter until the domain popped
   it), so a domain-served miss is among those checked. *)
let het_hits ~workers =
  let doc = Datagen.Xmark.generate ~items:60 () in
  let syn = Core.Synopsis.build ~mbp:3 ~bsel_threshold:0.9 doc in
  let g = gate () in
  let pool =
    gated_pool g (fun ~chaos ->
        Engine.Pool.create ~workers ~chaos (Core.Synopsis.estimator syn))
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let queries =
    [ "//open_auction[bidder][seller][initial]/current";
      "//open_auction[bidder]/current"; "//item[mailbox]/name";
      "//item[location][quantity]/name"; "//person[name][emailaddress]/phone";
      "//closed_auction[seller][buyer]/price";
      "//open_auction[seller][initial]/current"; "/site/regions" ]
  in
  let ok replies =
    List.iter
      (function
        | Ok (_ : Engine.Serve.estimate_reply) -> ()
        | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e))
      replies
  in
  ok
    (submit_pinned pool g ~pops:(workers - 1)
       (List.init 8 (fun _ -> barrier) @ queries));
  checki "domains started" (workers - 1) (Engine.Pool.domains pool);
  (* Served twice on the submitter: the second pass is all hits. *)
  ok (Engine.Pool.estimate_batch pool queries);
  ok (Engine.Pool.estimate_batch pool queries);
  let records = Engine.Pool.recent pool in
  let overrides q =
    match Engine.Pool.explain pool q with
    | Ok r ->
      r.Core.Explain.matcher.Core.Matcher.het_joint_overrides
      + r.Core.Explain.matcher.Core.Matcher.het_single_overrides
    | Error e -> Alcotest.failf "explain %s: %s" q (Core.Error.to_string e)
  in
  let hits = ref 0 and misses = ref 0 and overridden = ref 0 in
  List.iter
    (fun (r : Engine.Flight_recorder.record) ->
      let q = r.Engine.Flight_recorder.query in
      match r.Engine.Flight_recorder.cache with
      | Engine.Flight_recorder.Hit ->
        incr hits;
        checki ("hit records no HET hits: " ^ q) 0
          r.Engine.Flight_recorder.het_hits
      | Engine.Flight_recorder.Miss ->
        incr misses;
        let n = overrides q in
        if n > 0 then incr overridden;
        checki ("miss records EXPLAIN's overrides: " ^ q) n
          r.Engine.Flight_recorder.het_hits
      | _ -> Alcotest.failf "unexpected flight record for %s" q)
    records;
  checkb "every query hit at least once" true (!hits >= List.length queries);
  checkb "every query missed at least once" true
    (!misses >= List.length queries);
  checkb "some misses used branching HET entries" true (!overridden > 0)

let test_pool_het_hits () =
  het_hits ~workers:1;
  het_hits ~workers:2

let () =
  Alcotest.run "pool"
    [ ( "work-queue",
        [ Alcotest.test_case "fifo ring" `Quick test_queue_fifo;
          Alcotest.test_case "close drains" `Quick test_queue_close_drains;
          Alcotest.test_case "concurrent producers" `Quick test_queue_concurrent;
          Alcotest.test_case "blocked consumers each take one" `Quick
            test_queue_blocked_consumers;
          Alcotest.test_case "contention stats" `Quick test_queue_stats;
          Alcotest.test_case "try_push never blocks" `Quick test_queue_try_push;
          Alcotest.test_case "close vs blocked push" `Quick
            test_queue_close_vs_blocked_push;
          Alcotest.test_case "close vs blocked pop" `Quick
            test_queue_close_vs_blocked_pop
        ] );
      ( "chunk-plan",
        [ QCheck_alcotest.to_alcotest prop_plan_partition;
          Alcotest.test_case "edge cases" `Quick test_plan_chunks_edges ] );
      ( "drift",
        [ Alcotest.test_case "shard accounting" `Quick test_drift_shards_sum ] );
      ( "pool",
        [ Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
          Alcotest.test_case "invalidate bumps epoch" `Quick
            test_pool_invalidate_bumps_epoch;
          Alcotest.test_case "batch order" `Quick test_pool_batch_order;
          Alcotest.test_case "random batch shapes" `Quick
            test_pool_batch_random_shapes;
          Alcotest.test_case "parked worker strands no batch" `Quick
            test_pool_parked_worker;
          Alcotest.test_case "one-chunk requests stay on the submitter" `Quick
            test_pool_one_chunk_stays_home;
          Alcotest.test_case "shutdown without domains" `Quick
            test_pool_shutdown_without_domains;
          Alcotest.test_case "huge batch through a one-slot queue" `Quick
            test_pool_huge_batch_tiny_queue;
          Alcotest.test_case "profile stages" `Quick test_pool_profile;
          Alcotest.test_case "causal trace" `Quick test_pool_trace;
          Alcotest.test_case "deadline refusals" `Quick test_pool_deadline;
          Alcotest.test_case "shed-newest overload" `Quick
            test_pool_shed_newest;
          Alcotest.test_case "supervision and quarantine" `Quick
            test_pool_supervision;
          Alcotest.test_case "supervision mid-chunk" `Quick
            test_pool_supervision_mid_chunk;
          Alcotest.test_case "telemetry metrics" `Quick
            test_pool_telemetry_metrics;
          Alcotest.test_case "high-water metrics merge by max" `Quick
            test_pool_metrics_high_water;
          Alcotest.test_case "flight HET hits = matcher overrides" `Quick
            test_pool_het_hits ] );
      ("stress", [ Alcotest.test_case "4-domain mixed ops" `Slow test_pool_stress ])
    ]
