(* Differential-testing oracle suite.

   Five oracles, each comparing the estimator against an independent
   source of truth:

   - a total-function oracle: over random documents and queries (well-formed
     or hostile), estimation never raises and never returns NaN, infinity,
     or a negative;
   - an exactness oracle: simple linear paths covered by a HET simple entry
     must estimate the NoK operator's exact cardinality — the HET override
     replaces the kernel approximation with recorded truth;
   - a pool-vs-engine oracle: the single-threaded engine (a one-worker
     pool, serving every chunk inline on the caller) and pools of 2 and 4
     workers running singles and multi-chunk batches must return
     bit-identical floats over the same synopsis for every query,
     including after an identical feedback observation on both and around
     a mid-batch deadline;
   - a matcher oracle: the flat matcher and the frozen recursive one
     (Matcher_reference) must agree on every estimate's bits, every match
     statistic and the HET counters each query moves, on random documents
     (no HET, a HET at mbp 2, a value synopsis), random synthetic and
     TreeSketch EPTs, and the generated corpora's workloads;
   - a HET builder oracle: the one-scan builder and the frozen per-pattern
     NoK one (Het_builder_reference) must write the same HET bytes and
     report the same statistics over mbp, bsel and card thresholds and
     zero entries, on random documents, small generated corpora and a
     document of many labels and wide child sets, with storages over the
     kernel's label table and over their own. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Random documents: small label alphabet so paths collide and recur. *)

let gen_doc_string rand =
  let open QCheck in
  let buf = Buffer.create 256 in
  let label r = String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 r)) in
  let rec emit depth r =
    let l = label r in
    Buffer.add_string buf ("<" ^ l ^ ">");
    if depth < 4 then begin
      let kids = Gen.int_bound (4 - depth) r in
      for _ = 1 to kids do
        emit (depth + 1) r
      done
    end;
    Buffer.add_string buf ("</" ^ l ^ ">")
  in
  Buffer.add_string buf "<r>";
  let top = 1 + Gen.int_bound 5 rand in
  for _ = 1 to top do
    emit 1 rand
  done;
  Buffer.add_string buf "</r>";
  Buffer.contents buf

let gen_query_string rand =
  let open QCheck in
  match Gen.int_bound 6 rand with
  | 0 ->
    (* hostile: raw noise *)
    Gen.string_size ~gen:Gen.printable (Gen.int_bound 30) rand
  | 1 -> ""
  | 2 ->
    (* very deep linear path *)
    "/" ^ String.concat "/" (List.init (1 + Gen.int_bound 80 rand) (fun _ -> "a"))
  | _ ->
    let step r =
      let name =
        if Gen.int_bound 6 r = 0 then "*"
        else String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 5 r))
      in
      let pred =
        if Gen.int_bound 3 r = 0 then
          "[" ^ String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 5 r)) ^ "]"
        else ""
      in
      (if Gen.int_bound 4 r = 0 then "//" else "/") ^ name ^ pred
    in
    (if Gen.int_bound 2 rand = 0 then "/r" else "")
    ^ String.concat "" (List.init (1 + Gen.int_bound 5 rand) (fun _ -> step rand))

(* Oracle 1: estimate_result is total — no exception, no NaN/negative. *)
let prop_never_raises =
  QCheck.Test.make ~count:300 ~name:"estimator total on random doc x query"
    (QCheck.make (fun rand -> (gen_doc_string rand, gen_query_string rand)))
    (fun (doc, query) ->
      let kernel = Core.Builder.of_string doc in
      let estimator = Core.Estimator.create ~het:(Core.Het.create ()) kernel in
      match Core.Estimator.estimate_string_result estimator query with
      | Error _ -> true  (* a typed error is a valid total answer *)
      | Ok o ->
        Float.is_finite o.Core.Estimator.value && o.Core.Estimator.value >= 0.0
      | exception e ->
        QCheck.Test.fail_reportf "raised %s on doc=%S query=%S"
          (Printexc.to_string e) doc query)

(* The serving engine inherits totality (cache + canonicalization
   layers). *)
let prop_engine_never_raises =
  QCheck.Test.make ~count:200 ~name:"engine total on random doc x query"
    (QCheck.make (fun rand ->
         (gen_doc_string rand,
          List.init 8 (fun _ -> gen_query_string rand))))
    (fun (doc, queries) ->
      let kernel = Core.Builder.of_string doc in
      let engine =
        Engine.Pool.create ~workers:1
          (Core.Estimator.create ~het:(Core.Het.create ()) kernel)
      in
      List.for_all
        (fun q ->
          match Engine.Pool.estimate engine q with
          | Error _ -> true
          | Ok r ->
            Float.is_finite r.Engine.Serve.value && r.Engine.Serve.value >= 0.0
          | exception e ->
            QCheck.Test.fail_reportf "engine raised %s on %S"
              (Printexc.to_string e) q)
        queries)

(* ------------------------------------------------------------------ *)
(* Oracle 2: HET-covered simple paths are exact. *)

let exactness_on doc =
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, stats = Core.Het_builder.build ~kernel ~path_tree () in
  checkb "some simple entries built" true (stats.Core.Het_builder.simple_entries > 0);
  let estimator = Core.Estimator.create ~het kernel in
  let storage =
    Nok.Storage.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let queries = Datagen.Workload.all_simple_paths path_tree in
  checkb "workload non-empty" true (queries <> []);
  List.iter
    (fun ast ->
      let actual = Nok.Eval.cardinality storage ast in
      match Core.Estimator.estimate_result estimator ast with
      | Error e ->
        Alcotest.failf "estimate %s: %s" (Xpath.Ast.to_string ast)
          (Core.Error.to_string e)
      | Ok o ->
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "HET-exact %s" (Xpath.Ast.to_string ast))
          (float_of_int actual) o.Core.Estimator.value)
    queries

let test_het_simple_paths_exact_paper () =
  exactness_on Datagen.Paper_example.document

let test_het_simple_paths_exact_random () =
  (* Deterministic pseudo-random documents, same oracle. *)
  let rng = Datagen.Rng.create ~seed:42 in
  for _ = 1 to 5 do
    let buf = Buffer.create 256 in
    let rec emit depth =
      let l = String.make 1 (Char.chr (Char.code 'a' + Datagen.Rng.int rng 5)) in
      Buffer.add_string buf ("<" ^ l ^ ">");
      if depth < 4 then
        for _ = 1 to Datagen.Rng.int rng (5 - depth) do
          emit (depth + 1)
        done;
      Buffer.add_string buf ("</" ^ l ^ ">")
    in
    Buffer.add_string buf "<r>";
    for _ = 1 to 1 + Datagen.Rng.int rng 4 do
      emit 1
    done;
    Buffer.add_string buf "</r>";
    exactness_on (Buffer.contents buf)
  done

(* ------------------------------------------------------------------ *)
(* Oracle 3: the inline engine and a multi-worker pool are bit-identical.
   The engine side is a one-worker pool, which serves every chunk on the
   submitting thread; on the other side the submitter serves one-chunk
   requests and the first chunk of a larger batch, and worker domains pop
   the other chunks from one shared queue. *)

let bits = Int64.bits_of_float

let build_stack doc =
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  (path_tree, Core.Estimator.create ~het kernel)

let pool_queries path_tree =
  let rng = Datagen.Rng.create ~seed:7 in
  List.map Xpath.Ast.to_string
    (Datagen.Workload.all_simple_paths path_tree
    @ Datagen.Workload.branching path_tree ~rng ~count:10 ()
    @ Datagen.Workload.complex path_tree ~rng ~count:10 ())

let value_of side pool q =
  match Engine.Pool.estimate pool q with
  | Ok r -> r.Engine.Serve.value
  | Error e -> Alcotest.failf "%s %s: %s" side q (Core.Error.to_string e)

let engine_value = value_of "engine"
let pool_value = value_of "pool"

(* Two independent synopsis stacks over the same document, so feedback on
   one side cannot leak into the other: the inline engine, and a pool of
   [workers] (default 2). *)
let with_pair ?(workers = 2) doc f =
  let path_tree, engine_est = build_stack doc in
  let _, pool_est = build_stack doc in
  let engine = Engine.Pool.create ~workers:1 engine_est in
  let pool = Engine.Pool.create ~workers pool_est in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown pool;
      Engine.Pool.shutdown engine)
  @@ fun () -> f path_tree engine pool

let test_pool_bit_identical () =
  with_pair Datagen.Paper_example.document @@ fun path_tree engine pool ->
  let queries = pool_queries path_tree in
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "bit-identical %s" q)
        (bits (engine_value engine q))
        (bits (pool_value pool q)))
    queries;
  (* Batch replies are in submission order and identical too, on both
     sides. *)
  let batch = Engine.Pool.estimate_batch pool queries in
  let inline_batch = Engine.Pool.estimate_batch engine queries in
  List.iter2
    (fun (q, reply) inline_reply ->
      match (reply, inline_reply) with
      | Ok r, Ok e ->
        Alcotest.(check int64)
          (Printf.sprintf "batch bit-identical %s" q)
          (bits e.Engine.Serve.value)
          (bits r.Engine.Serve.value)
      | Error e, _ | _, Error e ->
        Alcotest.failf "batch %s: %s" q (Core.Error.to_string e))
    (List.combine queries batch)
    inline_batch;
  (* One identical feedback observation on both sides; each drains,
     refines and bumps its epoch — estimates and the judged q-errors must
     still agree bit for bit. *)
  let fq = List.hd queries in
  let wrong_actual = 10 * (1 + int_of_float (engine_value engine fq)) in
  let epoch_before = Engine.Pool.epoch pool in
  let judged side p =
    match Engine.Pool.feedback p fq ~actual:wrong_actual with
    | Ok fb ->
      checkb (side ^ " refined") true fb.Engine.Feedback.refined;
      fb.Engine.Feedback.q_error
    | Error e -> Alcotest.failf "%s feedback: %s" side (Core.Error.to_string e)
  in
  let engine_q = judged "engine" engine in
  Alcotest.(check int64) "feedback q-error bit-identical" (bits engine_q)
    (bits (judged "pool" pool));
  checki "refining feedback bumps the epoch" (epoch_before + 1)
    (Engine.Pool.epoch pool);
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "post-feedback bit-identical %s" q)
        (bits (engine_value engine q))
        (bits (pool_value pool q)))
    queries

(* The same oracle on hostile inputs: random documents, a query mix that
   includes malformed and degenerate spellings, and a 2-worker pool whose
   batches of several dozen queries split into chunks of up to 8 that the
   submitter or the domain may serve. Errors must agree by kind, values
   bit for bit, including after an identical feedback observation bumps
   both epochs. *)

let rng_doc rng =
  let buf = Buffer.create 256 in
  let rec emit depth =
    let l = String.make 1 (Char.chr (Char.code 'a' + Datagen.Rng.int rng 5)) in
    Buffer.add_string buf ("<" ^ l ^ ">");
    if depth < 4 then
      for _ = 1 to Datagen.Rng.int rng (5 - depth) do
        emit (depth + 1)
      done;
    Buffer.add_string buf ("</" ^ l ^ ">")
  in
  Buffer.add_string buf "<r>";
  for _ = 1 to 1 + Datagen.Rng.int rng 4 do
    emit 1
  done;
  Buffer.add_string buf "</r>";
  Buffer.contents buf

let hostile_queries path_tree =
  let rng = Datagen.Rng.create ~seed:13 in
  let valid =
    List.map Xpath.Ast.to_string
      (Datagen.Workload.all_simple_paths path_tree
      @ Datagen.Workload.branching path_tree ~rng ~count:8 ())
  in
  let hostile =
    [ ""; "/r["; "///"; "/r//*[z"; "$%#@!"; "//*"; "/*/*/*";
      "/" ^ String.concat "/" (List.init 60 (fun _ -> "a")) ]
  in
  (* Interleave so hostile slots land mid-chunk, not in a block. *)
  let rec weave = function
    | [], rest | rest, [] -> rest
    | a :: xs, b :: ys -> a :: b :: weave (xs, ys)
  in
  weave (valid, hostile) @ valid

let check_agree ~label engine reply q =
  let expected = Engine.Pool.estimate engine q in
  match (expected, reply) with
  | Ok e, Ok (r : Engine.Serve.estimate_reply) ->
    Alcotest.(check int64)
      (Printf.sprintf "%s bit-identical %S" label q)
      (bits e.Engine.Serve.value)
      (bits r.Engine.Serve.value)
  | Error e1, Error e2 ->
    checkb
      (Printf.sprintf "%s same error kind %S" label q)
      true
      (Core.Error.kind e1 = Core.Error.kind e2)
  | Ok _, Error e ->
    Alcotest.failf "%s: pool refused %S the engine served: %s" label q
      (Core.Error.to_string e)
  | Error e, Ok _ ->
    Alcotest.failf "%s: pool served %S the engine refused: %s" label q
      (Core.Error.to_string e)

let test_pool_chunked_hostile_bit_identical () =
  let rng = Datagen.Rng.create ~seed:99 in
  for round = 1 to 3 do
    with_pair (rng_doc rng) @@ fun path_tree engine pool ->
    let queries = hostile_queries path_tree in
    let label = Printf.sprintf "round %d" round in
    (* Singles agree... *)
    List.iter
      (fun q -> check_agree ~label engine (Engine.Pool.estimate pool q) q)
      queries;
    (* ...and a multi-chunk batch agrees slot for slot in submission
       order. *)
    checkb (label ^ " batch spans several chunks") true
      (List.length queries > 16);
    let batch = Engine.Pool.estimate_batch pool queries in
    checki (label ^ " batch width") (List.length queries) (List.length batch);
    List.iter2 (fun q reply -> check_agree ~label:(label ^ " batch") engine reply q)
      queries batch;
    (* One identical feedback on both sides: the pool drains it with its
       domains parked, the engine on the caller — and the two must still
       agree bit for bit. *)
    let fq =
      List.find
        (fun q ->
          match Engine.Pool.estimate engine q with
          | Ok _ -> true
          | Error _ -> false)
        queries
    in
    let wrong_actual = 10 * (1 + int_of_float (engine_value engine fq)) in
    let epoch_before = Engine.Pool.epoch pool in
    let judged side p =
      match Engine.Pool.feedback p fq ~actual:wrong_actual with
      | Ok fb -> fb.Engine.Feedback.q_error
      | Error e ->
        Alcotest.failf "%s %s feedback: %s" label side (Core.Error.to_string e)
    in
    let engine_q = judged "engine" engine in
    Alcotest.(check int64) (label ^ " feedback q-error bit-identical")
      (bits engine_q) (bits (judged "pool" pool));
    checkb (label ^ " epoch bumped or kept") true
      (Engine.Pool.epoch pool >= epoch_before);
    let batch2 = Engine.Pool.estimate_batch pool queries in
    List.iter2
      (fun q reply -> check_agree ~label:(label ^ " post-feedback") engine reply q)
      queries batch2
  done

(* Every dispatch shape against the inline engine: singles and BATCH 8
   (served whole on the submitter), BATCH 9 and 64 (chunks queued for the
   worker domains) at 1, 2 and 4 workers, before and after one identical
   refining feedback on both sides. *)
let test_pool_shapes_bit_identical () =
  List.iter
    (fun workers ->
      with_pair ~workers Datagen.Paper_example.document
      @@ fun path_tree engine pool ->
      let queries = Array.of_list (pool_queries path_tree) in
      let pick i = queries.(i mod Array.length queries) in
      let agree phase =
        let label = Printf.sprintf "%d workers, %s" workers phase in
        Array.iter
          (fun q ->
            check_agree ~label:(label ^ ", single") engine
              (Engine.Pool.estimate pool q) q)
          queries;
        List.iter
          (fun width ->
            let batch = List.init width (fun i -> pick (i + width)) in
            List.iter2
              (check_agree
                 ~label:(Printf.sprintf "%s, BATCH %d" label width)
                 engine)
              (Engine.Pool.estimate_batch pool batch)
              batch)
          [ 8; 9; 64 ]
      in
      agree "before feedback";
      let fq = queries.(0) in
      let wrong_actual = 10 * (1 + int_of_float (engine_value engine fq)) in
      List.iter
        (fun (side, p) ->
          match Engine.Pool.feedback p fq ~actual:wrong_actual with
          | Ok fb ->
            checkb
              (Printf.sprintf "%d workers, %s refined" workers side)
              true fb.Engine.Feedback.refined
          | Error e ->
            Alcotest.failf "%s feedback: %s" side (Core.Error.to_string e))
        [ ("engine", engine); ("pool", pool) ];
      agree "after feedback")
    [ 1; 2; 4 ]

(* Mid-batch deadline expiry. One batch against a 50 ms budget measured
   from the batch's admission, with a gate parking the serving thread
   inside slot 2: slots before it are served within budget (and must match
   the other kind of pool bit for bit), the gated slot and everything
   after it expire, and the refusals must not disturb submission order or
   later traffic. The scenario runs on the inline engine (one 8-slot
   chunk, parked on the submitting domain) and on a 2-worker pool whose
   domain is parked first, in the gated second chunk of a 16-slot batch,
   whose first chunk holds its submitter at a barrier until the domain has
   popped it. The test batch is then 16 slots too: the submitter parks
   inside slot 2 of its own first chunk, and the second chunk waits out
   the budget in the queue. *)

type gate = {
  g_lock : Mutex.t;
  g_cond : Condition.t;
  mutable g_entered : int;
  mutable g_released : bool;
  mutable g_popped : unit -> bool;  (* the barrier's condition *)
}

let gate () =
  { g_lock = Mutex.create (); g_cond = Condition.create ();
    g_entered = 0; g_released = false; g_popped = (fun () -> true) }

let gate_hook g = function
  | "//sleepy" ->
    Mutex.lock g.g_lock;
    g.g_entered <- g.g_entered + 1;
    Condition.broadcast g.g_cond;
    while not g.g_released do Condition.wait g.g_cond g.g_lock done;
    Mutex.unlock g.g_lock;
    false
  | "//barrier" ->
    while not (g.g_popped ()) do Domain.cpu_relax () done;
    false
  | _ -> false

let gate_await g n =
  Mutex.lock g.g_lock;
  while g.g_entered < n do Condition.wait g.g_cond g.g_lock done;
  Mutex.unlock g.g_lock

let expect_timeout what = function
  | Ok (_ : Engine.Serve.estimate_reply) ->
    Alcotest.failf "%s served after expiry" what
  | Error e ->
    checkb (what ^ " expired with ERR timeout") true
      (Core.Error.kind e = Core.Error.Timeout)

let queue_pops pool =
  match Obs.Json.member "pool" (Engine.Pool.stats_json pool) with
  | Some pf ->
    (match Obs.Json.member "queue_pops" pf with
     | Some (Obs.Json.Int n) -> n
     | _ -> Alcotest.fail "pool stats lack queue_pops")
  | None -> Alcotest.fail "stats without pool object"

let deadline_mid_batch ~label ~workers ~reference =
  let doc = Datagen.Paper_example.document in
  let path_tree, gated_est = build_stack doc in
  let _, reference_est = build_stack doc in
  let g = gate () in
  let deadline_s = 0.05 in
  let pool =
    Engine.Pool.create ~workers ~deadline_s ~chaos:(gate_hook g) gated_est
  in
  let other = reference reference_est in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown pool;
      Engine.Pool.shutdown other)
  @@ fun () ->
  let fast =
    List.map Xpath.Ast.to_string (Datagen.Workload.all_simple_paths path_tree)
  in
  let q0 = List.nth fast 0 and q1 = List.nth fast 1 in
  let first_chunk = [ q0; q1; "//sleepy"; q0; q1; q0; q1; q0 ] in
  (* At two workers the domain parks first, on a batch of its own. *)
  let parked =
    if workers = 1 then None
    else begin
      let pops = queue_pops pool + 1 in
      g.g_popped <- (fun () -> queue_pops pool >= pops);
      let d =
        Domain.spawn (fun () ->
            Engine.Pool.estimate_batch pool
              (List.init 8 (fun _ -> "//barrier")
              @ List.init 8 (fun _ -> "//sleepy")))
      in
      gate_await g 1;
      Some d
    end
  in
  let queries =
    if workers = 1 then first_chunk else first_chunk @ List.init 8 (fun _ -> q0)
  in
  let batcher =
    Domain.spawn (fun () -> Engine.Pool.estimate_batch pool queries)
  in
  (* Slots 0-1 are served and the serving thread is now parked inside
     slot 2; hold it past the whole batch's budget before letting go. *)
  gate_await g workers;
  Unix.sleepf (5.0 *. deadline_s);
  Mutex.lock g.g_lock;
  g.g_released <- true;
  Condition.broadcast g.g_cond;
  Mutex.unlock g.g_lock;
  let batch = Domain.join batcher in
  (* The parked batch's gated chunk expired too; its barrier chunk may or
     may not have beaten the budget. *)
  let parked_timeouts =
    match parked with
    | None -> 0
    | Some d ->
      List.fold_left ( + ) 0
        (List.mapi
           (fun slot reply ->
             if slot >= 8 then begin
               expect_timeout (label ^ " parked slot") reply;
               1
             end
             else match reply with Ok _ -> 0 | Error _ -> 1)
           (Domain.join d))
  in
  let n = List.length queries in
  checki (label ^ " all slots answered") n (List.length batch);
  List.iteri
    (fun i reply ->
      match reply with
      | Ok (r : Engine.Serve.estimate_reply) when i < 2 ->
        Alcotest.(check int64)
          (Printf.sprintf "%s pre-expiry slot %d bit-identical" label i)
          (bits (value_of "reference" other (List.nth queries i)))
          (bits r.Engine.Serve.value)
      | Error e when i < 2 ->
        Alcotest.failf "%s pre-expiry slot %d refused: %s" label i
          (Core.Error.to_string e)
      | reply -> expect_timeout (Printf.sprintf "%s slot %d" label i) reply)
    batch;
  checki
    (label ^ " every slot from the gated one on timed out, plus the parked")
    (n - 2 + parked_timeouts)
    (Engine.Pool.timeout_total pool);
  (* The pool is unharmed: fresh traffic still agrees bit for bit. *)
  List.iter
    (fun q ->
      Alcotest.(check int64)
        (Printf.sprintf "%s post-expiry bit-identical %s" label q)
        (bits (value_of "reference" other q))
        (bits (value_of label pool q)))
    fast

let test_pool_deadline_mid_batch () =
  deadline_mid_batch ~label:"inline" ~workers:1
    ~reference:(fun est -> Engine.Pool.create ~workers:2 est);
  deadline_mid_batch ~label:"2 workers" ~workers:2
    ~reference:(fun est -> Engine.Pool.create ~workers:1 est)

(* ------------------------------------------------------------------ *)
(* Oracle 4: Core.Matcher against the frozen recursive reference
   (Matcher_reference). Each side drains its own EPT from a fresh traveler
   over the same synopsis; per query they must agree on the float's bits,
   on every match statistic and on the HET counters the query moved. *)

type oracle = {
  o_kernel : Core.Kernel.t;
  o_het : Core.Het.t option;
  o_values : Core.Value_synopsis.t option;
  o_threshold : float;
}

let oracle_of_synopsis syn =
  { o_kernel = Core.Synopsis.kernel syn; o_het = Core.Synopsis.het syn;
    o_values = Core.Synopsis.values syn;
    o_threshold = Core.Synopsis.card_threshold syn }

let traveler o =
  Core.Traveler.create ~card_threshold:o.o_threshold ?het:o.o_het o.o_kernel

let het_snapshot o = Option.map Core.Het.counters o.o_het

let het_delta o before =
  match (o.o_het, before) with
  | Some h, Some before ->
    Some (Core.Het.diff_counters ~before ~after:(Core.Het.counters h))
  | _ -> None

let stats_string (ms : Core.Matcher.match_stats) =
  Printf.sprintf
    "ept_nodes=%d frontier=%d peak=%d sum=%d steps=%d joint=%d single=%d \
     indep=%d"
    ms.ept_nodes ms.frontier ms.frontier_peak ms.frontier_sum ms.match_steps
    ms.het_joint_overrides ms.het_single_overrides ms.independence_preds

(* Totals over a run, so a suite can assert its overrides actually fired. *)
type tally = { mutable queries : int; mutable joint : int; mutable single : int }

let new_tally () = { queries = 0; joint = 0; single = 0 }

let agree_on ~tally ~label o ~flat ~reference qt =
  let table = Core.Kernel.table o.o_kernel in
  let het = o.o_het and values = o.o_values in
  let before = het_snapshot o in
  let expected =
    Matcher_reference.estimate_with_stats ?het ?values ~table reference qt
  in
  let ref_delta = het_delta o before in
  let before = het_snapshot o in
  let got = Core.Matcher.estimate_with_stats ?het ?values ~table flat qt in
  let delta = het_delta o before in
  let ev, ems = expected and gv, gms = got in
  if bits ev <> bits gv then
    Alcotest.failf "%s: estimate %h (reference) vs %h (matcher)" label ev gv;
  if ems <> gms then
    Alcotest.failf "%s: stats %s (reference) vs %s (matcher)" label
      (stats_string ems) (stats_string gms);
  if ref_delta <> delta then Alcotest.failf "%s: HET counter deltas differ" label;
  tally.queries <- tally.queries + 1;
  tally.joint <- tally.joint + gms.het_joint_overrides;
  tally.single <- tally.single + gms.het_single_overrides

let agree_on_path ~tally ~label o ~flat ~reference path =
  match Xpath.Query_tree.of_path path with
  | qt when qt.Xpath.Query_tree.size > 62 ->
    (* Both refuse; the estimator's guard turns this into an ERR. *)
    let refuses f = match f () with _ -> false | exception Invalid_argument _ -> true in
    let table = Core.Kernel.table o.o_kernel in
    checkb (label ^ " reference refuses > 62 steps") true
      (refuses (fun () -> Matcher_reference.estimate_with_stats ~table reference qt));
    checkb (label ^ " matcher refuses > 62 steps") true
      (refuses (fun () -> Core.Matcher.estimate_with_stats ~table flat qt))
  | qt -> agree_on ~tally ~label o ~flat ~reference qt

let agree_on_synopsis ~tally ~label o paths =
  let flat = Core.Matcher.materialize (traveler o) in
  let reference = Matcher_reference.materialize (traveler o) in
  checki (label ^ " EPT sizes") (Matcher_reference.node_count reference)
    (Core.Matcher.node_count flat);
  List.iter
    (fun path ->
      agree_on_path ~tally
        ~label:(label ^ " " ^ Xpath.Ast.to_string path)
        o ~flat ~reference path)
    paths

let parse_all queries =
  List.filter_map
    (fun q ->
      match Xpath.Parser.parse_result q with
      | Ok (_ :: _ as path) -> Some path
      | Ok [] | Error _ -> None)
    queries

(* Random recursive documents whose leaves carry a small number and whose
   elements sometimes carry an attribute, for the value-synopsis arm. *)
let gen_valued_doc rand =
  let open QCheck in
  let buf = Buffer.create 256 in
  let rec emit depth r =
    let l = String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 r)) in
    let attr =
      if Gen.int_bound 3 r = 0 then
        Printf.sprintf " k=\"%c\"" (Char.chr (Char.code 'x' + Gen.int_bound 1 r))
      else ""
    in
    Buffer.add_string buf ("<" ^ l ^ attr ^ ">");
    let kids = if depth < 4 then Gen.int_bound (4 - depth) r else 0 in
    if kids = 0 then Buffer.add_string buf (string_of_int (Gen.int_bound 4 r))
    else
      for _ = 1 to kids do
        emit (depth + 1) r
      done;
    Buffer.add_string buf ("</" ^ l ^ ">")
  in
  Buffer.add_string buf "<r>";
  for _ = 1 to 1 + Gen.int_bound 5 rand do
    emit 1 rand
  done;
  Buffer.add_string buf "</r>";
  Buffer.contents buf

let gen_valued_query rand =
  let open QCheck in
  let letter r = String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 r)) in
  let value_pred r =
    match Gen.int_bound 3 r with
    | 0 -> Printf.sprintf "[%s<%d]" (letter r) (Gen.int_bound 4 r)
    | 1 -> Printf.sprintf "[%s='%d']" (letter r) (Gen.int_bound 4 r)
    | 2 -> Printf.sprintf "[@k='%c']" (Char.chr (Char.code 'x' + Gen.int_bound 1 r))
    | _ -> "[" ^ letter r ^ "]"
  in
  let step r =
    (if Gen.int_bound 3 r = 0 then "//" else "/")
    ^ (if Gen.int_bound 6 r = 0 then "*" else letter r)
    ^ (if Gen.int_bound 2 r = 0 then value_pred r else "")
  in
  String.concat "" (List.init (1 + Gen.int_bound 4 rand) (fun _ -> step rand))

(* Branching queries with up to two single-name predicates per step, so
   joint p[q1][q2]/r patterns reach the HET. *)
let gen_branching_query rand =
  let open QCheck in
  if Gen.int_bound 3 rand = 0 then gen_query_string rand
  else
    let letter r = String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 r)) in
    let step r =
      (if Gen.int_bound 5 r = 0 then "//" else "/")
      ^ letter r
      ^ String.concat ""
          (List.init (Gen.int_bound 2 r) (fun _ -> "[" ^ letter r ^ "]"))
    in
    (if Gen.bool rand then "/r" else "")
    ^ String.concat "" (List.init (1 + Gen.int_bound 3 rand) (fun _ -> step rand))

(* Twig queries whose predicates reach below one child: wildcards,
   descendant steps, nested predicates. These read the bottom-up pass's
   folds over many EPT children, where the sibling order shows in the
   float's bits. *)
let gen_twig_query rand =
  let open QCheck in
  let letter r = String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 r)) in
  let name r = if Gen.int_bound 3 r = 0 then "*" else letter r in
  let pred r =
    match Gen.int_bound 5 r with
    | 0 -> "[" ^ name r ^ "]"
    | 1 -> "[.//" ^ name r ^ "]"
    | 2 -> "[" ^ name r ^ "//" ^ name r ^ "]"
    | 3 -> "[" ^ name r ^ "[" ^ name r ^ "]]"
    | 4 -> "[*/" ^ name r ^ "]"
    | _ -> "[.//" ^ name r ^ "[.//" ^ name r ^ "]]"
  in
  let step r =
    (if Gen.int_bound 3 r = 0 then "//" else "/")
    ^ name r
    ^ String.concat "" (List.init (Gen.int_bound 3 r) (fun _ -> pred r))
  in
  String.concat "" (List.init (1 + Gen.int_bound 3 rand) (fun _ -> step rand))

(* The three synopsis flavours a random document is matched under: no HET;
   a HET at mbp 2 with every path-tree node enumerated (bsel threshold 1),
   so joint and single branching overrides fire; a value synopsis. *)
let oracle_prop ~name ~count ~gen_doc ~gen_query ~build ~check_tally =
  let tally = new_tally () in
  let prop =
    QCheck.Test.make ~count ~name
      (QCheck.make (fun rand ->
           (gen_doc rand, List.init 12 (fun _ -> gen_query rand))))
      (fun (doc, queries) ->
        let o = oracle_of_synopsis (build doc) in
        agree_on_synopsis ~tally ~label:name o (parse_all queries);
        true)
  in
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  (name, speed, fun () -> run (); check_tally tally)

let oracle_no_het =
  oracle_prop ~name:"matcher = reference, no HET" ~count:150
    ~gen_doc:gen_doc_string
    ~gen_query:(fun r ->
      if QCheck.Gen.bool r then gen_query_string r else gen_twig_query r)
    ~build:(fun doc -> Core.Synopsis.build ~with_het:false doc)
    ~check_tally:(fun t -> checkb "queries compared" true (t.queries > 500))

let oracle_het =
  oracle_prop ~name:"matcher = reference, HET mbp 2" ~count:150
    ~gen_doc:gen_doc_string ~gen_query:gen_branching_query
    ~build:(fun doc -> Core.Synopsis.build ~mbp:2 ~bsel_threshold:1.0 doc)
    ~check_tally:(fun t ->
      checkb "joint overrides fired" true (t.joint > 0);
      checkb "single overrides fired" true (t.single > 0))

let oracle_values =
  oracle_prop ~name:"matcher = reference, value synopsis" ~count:150
    ~gen_doc:gen_valued_doc ~gen_query:gen_valued_query
    ~build:(fun doc ->
      Core.Synopsis.build ~with_values:true ~mbp:2 ~bsel_threshold:1.0 doc)
    ~check_tally:(fun t -> checkb "queries compared" true (t.queries > 500))

(* Random synthetic EPTs: repeated sibling labels and fractional
   selectivities everywhere, so wildcard and descendant steps fold many
   non-trivial children and the sibling order shows in the float's bits. *)
type shape = Shape of int * float * float * shape list

let gen_shape rand =
  let open QCheck in
  let rec node depth r =
    let kids = if depth >= 4 then 0 else Gen.int_bound (5 - depth) r in
    Shape
      ( Gen.int_bound 4 r,
        1.0 +. Gen.float_bound_inclusive 50.0 r,
        Gen.float_bound_inclusive 1.0 r,
        List.init kids (fun _ -> node (depth + 1) r) )
  in
  node 0 rand

let rec build_shape node (Shape (label, card, bsel, kids)) =
  node ~label ~card ~bsel ~children:(List.map (build_shape node) kids)

let oracle_synthetic =
  let table = Xml.Label.create_table () in
  List.iter
    (fun l -> ignore (Xml.Label.intern table l : int))
    [ "a"; "b"; "c"; "d"; "e" ];
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"matcher = reference, random synthetic EPTs"
       (QCheck.make (fun rand ->
            (gen_shape rand, List.init 12 (fun _ -> gen_twig_query rand))))
       (fun (shape, queries) ->
         let flat =
           Core.Matcher.of_synthetic
             (build_shape Core.Matcher.synthetic_node shape)
         in
         let reference =
           Matcher_reference.of_synthetic
             (build_shape Matcher_reference.synthetic_node shape)
         in
         List.for_all
           (fun path ->
             let qt = Xpath.Query_tree.of_path path in
             qt.Xpath.Query_tree.size > 62
             ||
             let ev, ems = Matcher_reference.estimate_with_stats ~table reference qt in
             let gv, gms = Core.Matcher.estimate_with_stats ~table flat qt in
             if bits ev <> bits gv || ems <> gms then
               QCheck.Test.fail_reportf "%s: %h (%s) vs %h (%s)"
                 (Xpath.Ast.to_string path) ev (stats_string ems) gv
                 (stats_string gms);
             true)
           (parse_all queries)))

(* TreeSketch expansions: the same estimated path tree built once as a
   synthetic EPT and once as a reference tree. *)
let test_oracle_treesketch () =
  let tally = new_tally () in
  let rng = Datagen.Rng.create ~seed:5 in
  List.iter
    (fun (name, doc) ->
      let storage = Nok.Storage.of_string doc in
      let path_tree = Pathtree.Path_tree.of_string doc in
      let queries =
        Datagen.Workload.all_simple_paths path_tree
        @ Datagen.Workload.branching path_tree ~rng ~count:40 ~mbp:2 ()
        @ Datagen.Workload.complex path_tree ~rng ~count:40 ()
      in
      List.iter
        (fun budget_bytes ->
          let sketch, _ = Treesketch.Sketch.build ?budget_bytes storage in
          let flat =
            Core.Matcher.of_synthetic
              (Treesketch.Sketch.expand sketch ~node:Core.Matcher.synthetic_node)
          in
          let reference =
            Matcher_reference.of_synthetic
              (Treesketch.Sketch.expand sketch
                 ~node:Matcher_reference.synthetic_node)
          in
          let table = Treesketch.Sketch.table sketch in
          List.iter
            (fun path ->
              let qt = Xpath.Query_tree.of_path path in
              let label = name ^ " " ^ Xpath.Ast.to_string path in
              let ev, ems =
                Matcher_reference.estimate_with_stats ~table reference qt
              in
              let gv, gms = Core.Matcher.estimate_with_stats ~table flat qt in
              if bits ev <> bits gv then
                Alcotest.failf "%s: %h (reference) vs %h (matcher)" label ev gv;
              if ems <> gms then
                Alcotest.failf "%s: stats %s vs %s" label (stats_string ems)
                  (stats_string gms);
              Alcotest.(check int64)
                (label ^ " = Sketch.estimate")
                (bits gv)
                (bits (Treesketch.Sketch.estimate sketch path));
              tally.queries <- tally.queries + 1)
            queries)
        [ None; Some 2048 ])
    [ ("xmark", Datagen.Xmark.generate ~seed:3 ~items:20 ());
      ("treebank", Datagen.Treebank.generate ~seed:3 ~sentences:15 ()) ];
  checkb "queries compared" true (tally.queries > 100)

(* The generated corpora under their bench settings, with and without the
   HET, over simple, branching and complex workloads. *)
let test_oracle_workloads () =
  let tally = new_tally () in
  List.iter
    (fun (name, doc, card_threshold, bsel_threshold) ->
      let rng = Datagen.Rng.create ~seed:11 in
      let path_tree = Pathtree.Path_tree.of_string doc in
      let paths =
        Datagen.Workload.all_simple_paths path_tree
        @ Datagen.Workload.branching path_tree ~rng ~count:60 ~mbp:2 ()
        @ Datagen.Workload.complex path_tree ~rng ~count:60 ~mbp:2 ()
      in
      let syn =
        Core.Synopsis.build ~mbp:2 ~bsel_threshold ~card_threshold doc
      in
      let o = oracle_of_synopsis syn in
      agree_on_synopsis ~tally ~label:(name ^ " +het") o paths;
      agree_on_synopsis ~tally ~label:(name ^ " kernel") { o with o_het = None }
        paths)
    [ ("treebank", Datagen.Treebank.generate ~seed:2 ~sentences:40 (), 20.0, 0.001);
      ("xmark", Datagen.Xmark.generate ~seed:2 ~items:30 (), 0.5, 0.1);
      ("dblp", Datagen.Dblp.generate ~seed:2 ~records:80 (), 0.5, 0.1) ];
  checkb "HET overrides fired" true (tally.joint + tally.single > 0)

(* ------------------------------------------------------------------ *)
(* Oracle 5: Core.Het_builder, which takes every branching pattern's counts
   from one scan of the storage, against the frozen per-pattern NoK builder
   (Het_builder_reference). Over every option set both must produce the
   same HET bytes and the same statistics. *)

let het_options =
  List.concat_map
    (fun mbp ->
      List.concat_map
        (fun bsel_threshold ->
          List.concat_map
            (fun card_threshold ->
              List.map
                (fun zero_entries ->
                  (mbp, bsel_threshold, card_threshold, zero_entries))
                [ true; false ])
            [ 0.5; 20.0 ])
        [ 0.1; 0.5; 1.0 ])
    [ 1; 2; 3 ]

let het_stats_string s = Format.asprintf "%a" Core.Het_builder.pp_stats s

(* Compares one option set; returns the branching entries compared, so a
   run that never reaches a pattern count cannot pass unnoticed. *)
let het_agree ?max_branching_candidates ~label ~kernel ~path_tree ~storage
    (mbp, bsel_threshold, card_threshold, zero_entries) =
  let label =
    Printf.sprintf "%s, mbp %d, bsel %g, card %g, zero entries %b" label mbp
      bsel_threshold card_threshold zero_entries
  in
  let ref_het, ref_stats =
    Het_builder_reference.build ~mbp ~bsel_threshold ~card_threshold
      ?max_branching_candidates ~zero_entries ~kernel ~path_tree ~storage ()
  in
  let het, stats =
    Core.Het_builder.build ~mbp ~bsel_threshold ~card_threshold
      ?max_branching_candidates ~zero_entries ~kernel ~path_tree ~storage ()
  in
  if stats <> ref_stats then
    Alcotest.failf "%s: %s, reference %s" label (het_stats_string stats)
      (het_stats_string ref_stats);
  if Core.Het.to_string het <> Core.Het.to_string ref_het then
    Alcotest.failf "%s: HET bytes differ from the reference's" label;
  stats.branching_entries

(* A storage over [doc] with its own label table: the kernel's names
   interned in reverse, after one the document lacks, so every id differs
   from the kernel's and only resolution by name finds the counts. *)
let storage_own_table kernel_table doc =
  let own = Xml.Label.create_table () in
  ignore (Xml.Label.intern own "absent" : int);
  List.iter
    (fun name -> ignore (Xml.Label.intern own name : int))
    (List.rev (Xml.Label.names kernel_table));
  Nok.Storage.of_string ~table:own doc

(* Kernel, path tree and storage over one table, as Synopsis.build makes
   them. *)
let het_inputs doc =
  let table = Xml.Label.create_table () in
  let kernel = Core.Builder.of_string ~table doc in
  let path_tree = Pathtree.Path_tree.of_string ~table doc in
  (table, kernel, path_tree, Nok.Storage.of_string ~table doc)

let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let oracle_het_builder_random =
  let compared = ref 0 in
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"het builder = reference, random documents"
         (QCheck.make ~print:(fun (a, b) -> a ^ "\n" ^ b)
            (QCheck.Gen.pair gen_doc_string gen_doc_string))
         (fun (doc, other) ->
           let table, kernel, path_tree, storage = het_inputs doc in
           let own = storage_own_table table doc in
           compared :=
             !compared
             + sum
                 (fun options ->
                   het_agree ~label:"shared table" ~kernel ~path_tree ~storage
                     options
                   + het_agree ~label:"own table" ~kernel ~path_tree
                       ~storage:own options)
                 het_options
             (* Another document's storage lacks some of the kernel's
                labels: those patterns count 0 on both sides. *)
             + het_agree ~label:"other document" ~kernel ~path_tree
                 ~storage:(Nok.Storage.of_string other) (3, 1.0, 0.5, true);
           true))
  in
  ( name, speed,
    fun () ->
      run ();
      checkb "branching entries compared" true (!compared > 1000) )

let test_oracle_het_builder_corpora () =
  let compared =
    sum
      (fun (name, doc) ->
        let table, kernel, path_tree, storage = het_inputs doc in
        sum (het_agree ~label:name ~kernel ~path_tree ~storage) het_options
        + het_agree ~label:(name ^ ", own table") ~kernel ~path_tree
            ~storage:(storage_own_table table doc) (3, 1.0, 0.5, true))
      [ ("treebank", Datagen.Treebank.generate ~seed:2 ~sentences:40 ());
        ("xmark", Datagen.Xmark.generate ~seed:2 ~items:10 ());
        ("dblp", Datagen.Dblp.generate ~seed:2 ~records:25 ()) ]
  in
  checkb "branching entries compared" true (compared > 1000)

(* Records with 10 fields each has and [fields] (default 150) optional
   ones, each present with probability 0.15 and now and then twice: many
   labels, and wide child sets that share their smallest labels (the shared
   fields are interned first), so nearly every record's set is a group of
   its own. *)
let wide_records ?(fields = 150) ~seed ~records () =
  let rng = Random.State.make [| seed |] in
  let buf = Buffer.create 65536 in
  let field name = Printf.bprintf buf "<%s></%s>" name name in
  Buffer.add_string buf "<db>";
  for _ = 1 to records do
    Buffer.add_string buf "<record>";
    for f = 0 to 9 do
      field (Printf.sprintf "s%d" f)
    done;
    for f = 0 to fields - 1 do
      if Random.State.int rng 100 < 15 then begin
        field (Printf.sprintf "f%d" f);
        if Random.State.int rng 4 = 0 then field (Printf.sprintf "f%d" f)
      end
    done;
    Buffer.add_string buf "</record>"
  done;
  Buffer.add_string buf "</db>";
  Buffer.contents buf

let test_oracle_het_builder_wide () =
  let doc = wide_records ~seed:5 ~records:120 () in
  let table, kernel, path_tree, storage = het_inputs doc in
  let own = storage_own_table table doc in
  let compared =
    sum
      (fun options ->
        het_agree ~max_branching_candidates:1000 ~label:"wide records"
          ~kernel ~path_tree ~storage options
        + het_agree ~max_branching_candidates:1000
            ~label:"wide records, own table" ~kernel ~path_tree ~storage:own
            options)
      [ (1, 0.5, 0.5, true); (2, 1.0, 20.0, false) ]
  in
  checkb "more than 150 labels" true (Xml.Label.count table > 150);
  checkb "branching entries compared" true (compared > 1000)

(* The candidate cap: 40 records over 40 field labels at mbp 3 and bsel
   1.0 offer far more patterns than a cap of 0, 1 or 400, so the builder
   leaves its enumeration at the cap while the reference enumerates on;
   the HET bytes and stats must still agree, and the cap must be reached. *)
let test_oracle_het_builder_capped () =
  let doc = wide_records ~fields:30 ~seed:7 ~records:40 () in
  let table, kernel, path_tree, storage = het_inputs doc in
  let own = storage_own_table table doc in
  let options = (3, 1.0, 0.5, true) in
  let compared =
    sum
      (fun cap ->
        let label = Printf.sprintf "cap %d" cap in
        let _, stats =
          Core.Het_builder.build ~mbp:3 ~bsel_threshold:1.0
            ~max_branching_candidates:cap ~kernel ~path_tree ~storage ()
        in
        checki (label ^ " reached") cap
          stats.Core.Het_builder.branching_candidates;
        het_agree ~max_branching_candidates:cap ~label ~kernel ~path_tree
          ~storage options
        + het_agree ~max_branching_candidates:cap ~label:(label ^ ", own table")
            ~kernel ~path_tree ~storage:own options)
      [ 0; 1; 400 ]
  in
  checkb "branching entries compared" true (compared > 400)

let () =
  let qtests = List.map QCheck_alcotest.to_alcotest
      [ prop_never_raises; prop_engine_never_raises ]
  in
  Alcotest.run "differential"
    [ ("totality", List.map (fun t -> t) qtests);
      ( "het-exactness",
        [ Alcotest.test_case "paper example" `Quick
            test_het_simple_paths_exact_paper;
          Alcotest.test_case "random documents" `Quick
            test_het_simple_paths_exact_random ] );
      ( "pool-vs-engine",
        [ Alcotest.test_case "bit-identical" `Quick test_pool_bit_identical;
          Alcotest.test_case "multi-chunk batches on hostile inputs"
            `Quick test_pool_chunked_hostile_bit_identical;
          Alcotest.test_case "mid-batch deadline expiry" `Quick
            test_pool_deadline_mid_batch;
          Alcotest.test_case "every batch shape at every worker count"
            `Quick test_pool_shapes_bit_identical ]
      );
      ( "matcher-oracle",
        [ oracle_no_het; oracle_het; oracle_values; oracle_synthetic;
          Alcotest.test_case "TreeSketch synthetic EPTs" `Quick
              test_oracle_treesketch;
          Alcotest.test_case "treebank, xmark, dblp workloads" `Quick
            test_oracle_workloads ] );
      ( "builder-oracle",
        [ oracle_het_builder_random;
          Alcotest.test_case "treebank, xmark, dblp" `Quick
            test_oracle_het_builder_corpora;
          Alcotest.test_case "many labels, wide child sets" `Quick
            test_oracle_het_builder_wide;
          Alcotest.test_case "enumeration stops at the candidate cap" `Quick
            test_oracle_het_builder_capped ] ) ]
