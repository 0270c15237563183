(* Shadow accuracy auditor: the deterministic sampler, per-step error
   attribution, the engine/pool AUDIT surface, audit-driven feedback, and
   served-vs-offline float agreement (the invariant the audit smoke's
   window diff relies on). *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let doc = Datagen.Xmark.generate ~seed:77 ~items:30 ()
let storage () = Nok.Storage.of_string ~with_values:true doc

let synopsis () =
  Core.Synopsis.build ~with_het:true ~with_values:false ~bsel_threshold:0.1
    ~card_threshold:0.5 doc

let estimator_of syn =
  Core.Estimator.create
    ~card_threshold:(Core.Synopsis.card_threshold syn)
    ?het:(Core.Synopsis.het syn)
    ?values:(Core.Synopsis.values syn)
    (Core.Synopsis.kernel syn)

(* A fresh estimator per call: the Loaded source hands the auditor private
   property, so tests must never share one with the serving side. *)
let fresh_estimator () = estimator_of (synopsis ())

let canon q =
  let ast = Engine.Canonical.canonicalize (Xpath.Parser.parse q) in
  (ast, Engine.Canonical.of_ast ast)

let jfield name = function
  | Obs.Json.Obj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> Alcotest.failf "no %S field" name)
  | _ -> Alcotest.failf "expected an object around %S" name

let jint name j =
  match jfield name j with
  | Obs.Json.Int i -> i
  | _ -> Alcotest.failf "field %S is not an int" name

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Sampler *)

let test_sampler_exact_rates () =
  let seed = 0x5eed in
  for hash = -50 to 50 do
    checkb "rate 0 selects nothing" false
      (Engine.Auditor.in_sample ~seed ~rate:0.0 (hash * 7919));
    checkb "rate 1 selects everything" true
      (Engine.Auditor.in_sample ~seed ~rate:1.0 (hash * 7919))
  done

let test_sampler_rate_monotone_fraction () =
  (* A coarse sanity check that intermediate rates select roughly the
     requested fraction of hash space (the sampler is a fixed hash
     partition, not a per-query coin flip). *)
  let n = 20_000 in
  let hits rate =
    let c = ref 0 in
    for h = 1 to n do
      if Engine.Auditor.in_sample ~seed:1 ~rate h then incr c
    done;
    float_of_int !c /. float_of_int n
  in
  let f25 = hits 0.25 and f75 = hits 0.75 in
  checkb "~25% at rate 0.25" true (f25 > 0.2 && f25 < 0.3);
  checkb "~75% at rate 0.75" true (f75 > 0.7 && f75 < 0.8)

let qcheck_sampler_permutation_invariant =
  QCheck.Test.make ~count:200
    ~name:"sampler: same subset regardless of arrival order"
    QCheck.(triple small_nat (int_bound 100) (small_list int))
    (fun (seed, pct, hashes) ->
      let rate = float_of_int pct /. 100.0 in
      let subset l =
        List.sort_uniq compare
          (List.filter (Engine.Auditor.in_sample ~seed ~rate) l)
      in
      let forward = subset hashes
      and reversed = subset (List.rev hashes)
      and doubled = subset (hashes @ hashes) in
      forward = reversed && forward = doubled
      && (pct <> 0 || forward = [])
      && (pct <> 100 || forward = List.sort_uniq compare hashes))

(* ------------------------------------------------------------------ *)
(* Attribution arithmetic *)

let test_audit_one_attribution () =
  let estimator = fresh_estimator () in
  let ept = lazy (Core.Estimator.ept estimator) in
  let storage = storage () in
  let ast, _key = canon "//open_auction[bidder]/price" in
  let estimate =
    match Core.Estimator.estimate_result_on estimator ept ast with
    | Ok o -> o.Core.Estimator.value
    | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
  in
  match Engine.Auditor.audit_one ~estimator ~ept ~storage ~estimate ast with
  | Error msg -> Alcotest.failf "audit_one: %s" msg
  | Ok a ->
    checki "one step report per canonical step" (List.length ast)
      (List.length a.Engine.Auditor.steps);
    let last = List.nth a.Engine.Auditor.steps (List.length ast - 1) in
    checki "full query's actual is the last prefix's"
      last.Engine.Auditor.actual a.Engine.Auditor.actual;
    checkb "headline q-error is Feedback.q_error of the served estimate" true
      (a.Engine.Auditor.qerror
      = Engine.Feedback.q_error ~estimate ~actual:a.Engine.Auditor.actual);
    (match a.Engine.Auditor.worst with
     | None -> Alcotest.fail "no worst step"
     | Some w ->
       List.iter
         (fun (s : Engine.Auditor.step_report) ->
           checkb "worst step has the largest contribution" true
             (w.Engine.Auditor.contribution >= s.Engine.Auditor.contribution))
         a.Engine.Auditor.steps);
    List.iteri
      (fun i (s : Engine.Auditor.step_report) ->
        checki "indices are 1-based and ordered" (i + 1)
          s.Engine.Auditor.index)
      a.Engine.Auditor.steps

let test_audit_one_too_large () =
  let estimator = fresh_estimator () in
  let ept = lazy (Core.Estimator.ept estimator) in
  let storage = storage () in
  let deep =
    "/" ^ String.concat "/" (List.init 70 (fun _ -> "site"))
  in
  let ast, _ = canon deep in
  match
    Engine.Auditor.audit_one ~estimator ~ept ~storage ~estimate:1.0 ast
  with
  | Ok _ -> Alcotest.fail "70-step query must exceed the 62-step bitmasks"
  | Error msg ->
    (* Whichever side trips first (the matcher's 62-node bitset or the NoK
       evaluator's step cap), the failure is data, not an exception. *)
    if
      not (contains_sub ~sub:"bitset" msg)
      && not (contains_sub ~sub:"step limit" msg)
    then Alcotest.failf "error does not name a limit: %S" msg

(* ------------------------------------------------------------------ *)
(* Engine surface *)

let queries =
  [ "/site/people/person"; "//open_auction[bidder]/price"; "//item";
    "/site/regions//item[location]"; "//person[emailaddress]" ]

(* The engine under test is the one-worker pool, serving inline. *)
let audit_reply engine = (Engine.Pool.server engine).Engine.Serve.audit ()

let handle_line engine line =
  Engine.Serve.handle_request (Engine.Pool.server engine)
    ~read_line:(fun () -> None) line

let with_engine_auditor ?(feedback = false) ?(rate = 1.0) f =
  let auditor =
    Engine.Auditor.create ~feedback ~rate
      (Engine.Auditor.Loaded
         { estimator = fresh_estimator (); storage = storage () })
  in
  let engine =
    Engine.Pool.create ~workers:1 ~qerror_threshold:2.0 ~auditor
      (estimator_of (synopsis ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown engine;
      Engine.Auditor.shutdown auditor)
    (fun () -> f engine auditor)

let test_engine_audit_e2e () =
  with_engine_auditor @@ fun engine auditor ->
  List.iter
    (fun q ->
      match Engine.Pool.estimate engine q with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "estimate %s: %s" q (Core.Error.to_string e))
    queries;
  checkb "settles" true (Engine.Auditor.settle auditor);
  Engine.Pool.drain_audits engine;
  let reply =
    match audit_reply engine with
    | Ok j -> j
    | Error e -> Alcotest.failf "AUDIT: %s" (Core.Error.to_string e)
  in
  checki "every served query audited at rate 1.0" (List.length queries)
    (jint "completed" reply);
  checki "nothing shed" 0 (jint "shed" reply);
  checki "no audit errors" 0 (jint "errors" reply);
  checki "backlog empty after settle" 0 (jint "backlog" reply);
  checki "window covers every audit" (List.length queries)
    (jint "count" (jfield "window" reply));
  (* The attribution records land in the flight ring as Audited records. *)
  let audited =
    List.filter
      (fun (r : Engine.Flight_recorder.record) ->
        r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Audited)
      (Engine.Pool.recent engine)
  in
  checki "one Audited flight record per audit" (List.length queries)
    (List.length audited);
  List.iter
    (fun (r : Engine.Flight_recorder.record) ->
      match r.Engine.Flight_recorder.audit with
      | None -> Alcotest.fail "Audited record without attribution payload"
      | Some a ->
        checkb "attribution q-error is positive" true
          (a.Engine.Flight_recorder.audit_qerror >= 1.0))
    audited

let test_engine_audit_disabled () =
  let engine = Engine.Pool.create ~workers:1 (estimator_of (synopsis ())) in
  (match audit_reply engine with
   | Ok _ -> Alcotest.fail "AUDIT must fail without an auditor"
   | Error e ->
     checkb "internal error" true
       (contains_sub ~sub:"auditing is disabled" (Core.Error.to_string e)));
  (match handle_line engine "AUDIT" with
   | Some reply ->
     checkb "protocol ERR" true (String.length reply >= 3
                                && String.sub reply 0 3 = "ERR")
   | None -> Alcotest.fail "AUDIT must answer")

let test_protocol_audit () =
  with_engine_auditor @@ fun engine _auditor ->
  (match handle_line engine "ESTIMATE //item" with
   | Some r ->
     checkb "estimate ok" true (String.length r > 2 && String.sub r 0 2 = "OK")
   | None -> Alcotest.fail "ESTIMATE must answer");
  (match handle_line engine "AUDIT extra" with
   | Some r ->
     checkb "AUDIT takes no argument" true
       (String.length r >= 3 && String.sub r 0 3 = "ERR")
   | None -> Alcotest.fail "must answer");
  match handle_line engine "AUDIT" with
  | Some r ->
    checkb "AUDIT answers OK json" true
      (String.length r > 4 && String.sub r 0 4 = "OK {")
  | None -> Alcotest.fail "AUDIT must answer"

(* Audit-driven feedback: a served estimate that ground truth disproves
   must refine the HET through the same q-error gate client FEEDBACK
   uses — exercised by lying to the sampler about the served estimate. *)
let test_audit_feedback_refines () =
  with_engine_auditor ~feedback:true @@ fun engine auditor ->
  let ast, key = canon "/site/people/person" in
  Engine.Auditor.sample auditor ~query:key.Engine.Canonical.text
    ~hash:key.Engine.Canonical.hash ~ast ~estimate:1_000_000.0;
  checkb "settles" true (Engine.Auditor.settle auditor);
  checki "no refinement before the drain" 0
    (Engine.Pool.feedback_rounds engine);
  Engine.Pool.drain_audits engine;
  checki "the lie refined the HET" 1 (Engine.Pool.feedback_rounds engine);
  let reply =
    match audit_reply engine with
    | Ok j -> j
    | Error e -> Alcotest.failf "AUDIT: %s" (Core.Error.to_string e)
  in
  checki "refinement counted" 1 (jint "refined" reply)

let test_audit_feedback_off_never_refines () =
  with_engine_auditor ~feedback:false @@ fun engine auditor ->
  let ast, key = canon "/site/people/person" in
  Engine.Auditor.sample auditor ~query:key.Engine.Canonical.text
    ~hash:key.Engine.Canonical.hash ~ast ~estimate:1_000_000.0;
  checkb "settles" true (Engine.Auditor.settle auditor);
  Engine.Pool.drain_audits engine;
  checki "observation only, no refinement" 0
    (Engine.Pool.feedback_rounds engine)

(* Shedding: one queue slot and 200 samples pushed back to back force
   sheds; every accepted sample is still audited, so once settled the
   counts balance with nothing left in the backlog, and shutdown returns. *)
let test_shed_accounting () =
  let auditor =
    Engine.Auditor.create ~rate:1.0 ~queue_capacity:1
      (Engine.Auditor.Loaded
         { estimator = fresh_estimator (); storage = storage () })
  in
  Fun.protect ~finally:(fun () -> Engine.Auditor.shutdown auditor)
  @@ fun () ->
  let samples = Array.of_list (List.map canon queries) in
  for i = 0 to 199 do
    let ast, key = samples.(i mod Array.length samples) in
    Engine.Auditor.sample auditor ~query:key.Engine.Canonical.text
      ~hash:key.Engine.Canonical.hash ~ast ~estimate:1.0
  done;
  checkb "settles" true (Engine.Auditor.settle auditor);
  let status = Engine.Auditor.status_json auditor in
  let sampled = jint "sampled" status and shed = jint "shed" status in
  checki "every sample counted" 200 sampled;
  checkb "a one-slot queue sheds" true (shed > 0);
  checki "sampled = completed + errors + shed" sampled
    (jint "completed" status + jint "errors" status + shed);
  checki "backlog drained" 0 (jint "backlog" status)

(* ------------------------------------------------------------------ *)
(* Served vs offline agreement (what the audit smoke diffs). *)

let test_background_equals_offline () =
  let serve_est = estimator_of (synopsis ()) in
  let ept = lazy (Core.Estimator.ept serve_est) in
  let st = storage () in
  let auditor =
    Engine.Auditor.create ~rate:1.0
      ~queue_capacity:(List.length queries + 1)
      (Engine.Auditor.Loaded
         { estimator = fresh_estimator (); storage = storage () })
  in
  Fun.protect ~finally:(fun () -> Engine.Auditor.shutdown auditor)
  @@ fun () ->
  let offline = ref [] in
  List.iter
    (fun q ->
      let ast, key = canon q in
      let estimate =
        match Core.Estimator.estimate_result_on serve_est ept ast with
        | Ok o -> o.Core.Estimator.value
        | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
      in
      Engine.Auditor.sample auditor ~query:key.Engine.Canonical.text
        ~hash:key.Engine.Canonical.hash ~ast ~estimate;
      match
        Engine.Auditor.audit_one ~estimator:serve_est ~ept ~storage:st
          ~estimate ast
      with
      | Ok a -> offline := a :: !offline
      | Error msg -> Alcotest.failf "offline audit: %s" msg)
    queries;
  checkb "settles" true (Engine.Auditor.settle auditor);
  let background = ref [] in
  Engine.Auditor.drain auditor (fun a -> background := a :: !background);
  let background = List.rev !background and offline = List.rev !offline in
  checki "every sample audited" (List.length offline)
    (List.length background);
  List.iter2
    (fun (a : Engine.Auditor.audited) (b : Engine.Auditor.audited) ->
      checks "same canonical query" b.Engine.Auditor.query
        a.Engine.Auditor.query;
      checki "same exact cardinality" b.Engine.Auditor.actual
        a.Engine.Auditor.actual;
      checkb "float-equal q-error" true
        (a.Engine.Auditor.qerror = b.Engine.Auditor.qerror))
    background offline;
  let window l =
    Obs.Json.to_string
      (Engine.Auditor.window_json
         (Array.of_list (List.map (fun a -> a.Engine.Auditor.qerror) l)))
  in
  checks "byte-identical window rendering" (window offline)
    (window background)

(* ------------------------------------------------------------------ *)
(* Pool surface *)

let test_pool_audit () =
  let auditor =
    Engine.Auditor.create ~rate:1.0 ~queue_capacity:64
      (Engine.Auditor.Loaded
         { estimator = fresh_estimator (); storage = storage () })
  in
  let pool =
    Engine.Pool.create ~workers:2 ~auditor (estimator_of (synopsis ()))
  in
  Fun.protect
    ~finally:(fun () ->
      Engine.Pool.shutdown pool;
      Engine.Auditor.shutdown auditor)
  @@ fun () ->
  List.iter
    (fun q ->
      match Engine.Pool.estimate pool q with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "pool %s: %s" q (Core.Error.to_string e))
    queries;
  let reply =
    match (Engine.Pool.server pool).Engine.Serve.audit () with
    | Ok j -> j
    | Error e -> Alcotest.failf "pool AUDIT: %s" (Core.Error.to_string e)
  in
  checki "every pool-served query audited" (List.length queries)
    (jint "completed" reply);
  checki "window count matches" (List.length queries)
    (jint "count" (jfield "window" reply));
  (* The fold-back wrote Audited records into the coordinator ring. *)
  let audited =
    List.filter
      (fun (r : Engine.Flight_recorder.record) ->
        r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Audited)
      (Engine.Pool.recent pool)
  in
  checki "Audited records merged into RECENT" (List.length queries)
    (List.length audited)

let test_pool_audit_disabled () =
  let pool = Engine.Pool.create ~workers:2 (estimator_of (synopsis ())) in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  match (Engine.Pool.server pool).Engine.Serve.audit () with
  | Ok _ -> Alcotest.fail "pool AUDIT must fail without an auditor"
  | Error e ->
    checkb "internal error" true
      (contains_sub ~sub:"auditing is disabled" (Core.Error.to_string e))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "auditor"
    [ ( "sampler",
        [ Alcotest.test_case "rate 0 / rate 1 exact" `Quick
            test_sampler_exact_rates;
          Alcotest.test_case "intermediate-rate fractions" `Quick
            test_sampler_rate_monotone_fraction;
          QCheck_alcotest.to_alcotest qcheck_sampler_permutation_invariant ] );
      ( "attribution",
        [ Alcotest.test_case "per-step reports" `Quick
            test_audit_one_attribution;
          Alcotest.test_case "NoK limit as data" `Quick
            test_audit_one_too_large ] );
      ( "engine",
        [ Alcotest.test_case "AUDIT end to end" `Quick test_engine_audit_e2e;
          Alcotest.test_case "disabled without an auditor" `Quick
            test_engine_audit_disabled;
          Alcotest.test_case "protocol AUDIT verb" `Quick test_protocol_audit;
          Alcotest.test_case "audit feedback refines" `Quick
            test_audit_feedback_refines;
          Alcotest.test_case "no feedback without the flag" `Quick
            test_audit_feedback_off_never_refines;
          Alcotest.test_case "shedding accounting" `Quick
            test_shed_accounting ] );
      ( "agreement",
        [ Alcotest.test_case "background = offline (float)" `Quick
            test_background_equals_offline ] );
      ( "pool",
        [ Alcotest.test_case "pool AUDIT end to end" `Quick test_pool_audit;
          Alcotest.test_case "pool AUDIT disabled" `Quick
            test_pool_audit_disabled ] ) ]
