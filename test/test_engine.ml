(* Serving engine: canonicalization, the LRU estimate cache, HET collision
   handling, the feedback loop, and the serve line protocol. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Canonicalization *)

let key_text q =
  match Engine.Canonical.of_string q with
  | Ok k -> k.Engine.Canonical.text
  | Error e -> Alcotest.failf "canonical %s: %s" q (Core.Error.to_string e)

let key_hash q =
  match Engine.Canonical.of_string q with
  | Ok k -> k.Engine.Canonical.hash
  | Error e -> Alcotest.failf "canonical %s: %s" q (Core.Error.to_string e)

(* Equivalent spellings must share one cache slot: text AND hash agree. *)
let test_canonical_equivalent () =
  List.iter
    (fun (a, b) ->
      checks (Printf.sprintf "%s ~ %s" a b) (key_text a) (key_text b);
      checki (Printf.sprintf "%s ~ %s (hash)" a b) (key_hash a) (key_hash b))
    [ ("/a[c][b]", "/a[b][c]");  (* predicate order *)
      ("/a[b][b]", "/a[b]");  (* duplicated predicate *)
      ("/a[b[d]][b[c]]", "/a[b[c]][b[d]]");  (* nested predicate order *)
      (" / a / b ", "/a/b");  (* whitespace *)
      ("/a/./b", "/a/b");  (* redundant self step *)
      ("/./a", "/a");
      ("/a/.", "/a");
      ("/a/.//b", "/a//b");
      ("/a[./c]", "/a[c]");  (* self step opening a predicate *)
      ("/a[x='v'][b]", "/a[b][x='v']");  (* value vs structural order *)
      ("/a[@y=2][@x=1]", "/a[@x=1][@y=2]") ]

let test_canonical_distinct () =
  List.iter
    (fun (a, b) ->
      checkb (Printf.sprintf "%s <> %s" a b) false (key_text a = key_text b))
    [ ("/a/b", "/a//b");
      ("/a[b]", "/a[c]");
      ("/a[b]/c", "/a/b/c");
      ("/a[x=1]", "/a[x=2]");
      ("/a", "//a") ]

let gen_ast : Xpath.Ast.t QCheck.arbitrary =
  let open QCheck in
  let gen_name rand =
    String.make 1 (Char.chr (Char.code 'a' + Gen.int_bound 4 rand))
  in
  let gen_test rand =
    if Gen.int_bound 5 rand = 0 then Xpath.Ast.Wildcard
    else Xpath.Ast.Name (gen_name rand)
  in
  let gen_axis rand =
    if Gen.int_bound 3 rand = 0 then Xpath.Ast.Descendant else Xpath.Ast.Child
  in
  (* Literals the parser can produce: texts holding either quote kind but
     never both, integers, and non-integer, negative, tiny and >= 1e15
     numbers — any finite double in the last case. *)
  let gen_literal rand =
    let open Xpath.Ast in
    match Gen.int_bound 5 rand with
    | 0 ->
      let quote = if Gen.bool rand then '\'' else '"' in
      let chars = [| 'x'; ' '; '-'; '1'; quote |] in
      Text
        (String.init (Gen.int_bound 4 rand) (fun _ ->
             chars.(Gen.int_bound 4 rand)))
    | 1 -> Number (float_of_int (Gen.int_range (-1000) 1000 rand))
    | 2 -> Number (Gen.float_range (-1e6) 1e6 rand)
    | 3 ->
      Number
        (ldexp (Gen.float_range (-2.0) 2.0 rand)
           (Gen.int_range (-1074) (-10) rand))
    | 4 -> Number (Gen.float_range 1e15 1e22 rand)
    | _ ->
      let x = Int64.float_of_bits (Gen.ui64 rand) in
      Number (if Float.is_finite x then x else 0.5)
  in
  (* Only a number takes an ordered comparison. *)
  let gen_value_predicate rand =
    let literal = gen_literal rand in
    { Xpath.Ast.target =
        (if Gen.bool rand then Xpath.Ast.Child_text (gen_name rand)
         else Xpath.Ast.Attribute (gen_name rand));
      cmp =
        Gen.oneofl
          (match literal with
           | Xpath.Ast.Text _ -> Xpath.Ast.[ Eq; Ne ]
           | Xpath.Ast.Number _ -> Xpath.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ])
          rand;
      literal }
  in
  let rec gen_path depth len rand =
    List.init len (fun _ ->
        let predicates =
          if depth >= 2 then []
          else
            List.init (Gen.int_bound 2 rand) (fun _ ->
                gen_path (depth + 1) (1 + Gen.int_bound 1 rand) rand)
        in
        { Xpath.Ast.axis = gen_axis rand; test = gen_test rand; predicates;
          value_predicates =
            List.init
              (if Gen.int_bound 2 rand = 0 then 1 + Gen.int_bound 1 rand else 0)
              (fun _ -> gen_value_predicate rand) })
  in
  make ~print:Xpath.Ast.to_string (fun rand ->
      gen_path 0 (1 + Gen.int_bound 3 rand) rand)

(* Idempotent, and a normal form comes back as the very same value (the
   serving path relies on it not being copied). *)
let prop_canonical_idempotent =
  QCheck.Test.make ~count:500 ~name:"canonicalize idempotent" gen_ast (fun q ->
      let c = Engine.Canonical.canonicalize q in
      Engine.Canonical.canonicalize c == c)

(* Printing then parsing lands on the same key as the original AST, and
   that key names the very same query: every literal reads back as the
   value it printed. *)
let prop_canonical_round_trip =
  QCheck.Test.make ~count:500 ~name:"parse (to_string q) same key" gen_ast
    (fun q ->
      let c, k = Engine.Canonical.normal_form q in
      let c', k' =
        Engine.Canonical.normal_form
          (Xpath.Parser.parse (Xpath.Ast.to_string q))
      in
      Xpath.Ast.equal c c'
      && Engine.Canonical.equal k k'
      && k.Engine.Canonical.hash = k'.Engine.Canonical.hash)

(* Reordering predicates anywhere in the tree never changes the key. *)
let prop_canonical_predicate_order =
  let rec rev_preds path =
    List.map
      (fun (s : Xpath.Ast.step) ->
        { s with Xpath.Ast.predicates = List.rev_map rev_preds s.predicates })
      path
  in
  QCheck.Test.make ~count:500 ~name:"predicate order irrelevant" gen_ast
    (fun q ->
      Engine.Canonical.equal (Engine.Canonical.of_ast q)
        (Engine.Canonical.of_ast (rev_preds q)))

(* The cache key's bytes and hash, pinned: a digest of every key over
   generated XMark and Treebank BP/CP queries, XMark value queries, and
   hand-written value predicates whose literals are non-integer, negative,
   or too large to print as integers. Any change to the canonical form,
   the printer or the hash moves the digest (and every warm cache, journal
   replay and flight record with it). *)
let canonical_golden_queries () =
  let draw doc =
    let pt = Pathtree.Path_tree.of_string doc in
    let rng = Datagen.Rng.create ~seed:11 in
    Datagen.Workload.branching pt ~rng ~count:150 ~mbp:2 ()
    @ Datagen.Workload.complex pt ~rng ~count:150 ~mbp:2 ()
  in
  let xmark = Datagen.Xmark.generate ~seed:3 ~items:40 () in
  let valued =
    Datagen.Workload.valued
      (Pathtree.Path_tree.of_string xmark)
      ~storage:(Nok.Storage.of_string ~with_values:true xmark)
      ~rng:(Datagen.Rng.create ~seed:13) ~count:60 ()
  in
  let literals =
    List.map Xpath.Parser.parse
      [ "//item[price>2.675]";
        "//open_auction[initial<=0.5][bidder]/current";
        "//person[@income>=-12.25]/name";
        "/site//item[quantity!=1][location='United States']";
        "//a[b>1000000000000000][c<999999999999999]";
        "//a[b<123456.789][@x=0.1][@y=\"q\"]";
        "//a[b=-0][c>-3]" ]
  in
  draw xmark
  @ draw (Datagen.Treebank.generate ~seed:5 ~sentences:120 ())
  @ valued @ literals

let test_canonical_golden () =
  let queries = canonical_golden_queries () in
  let lines =
    List.map
      (fun q ->
        let k = Engine.Canonical.of_ast q in
        Printf.sprintf "%s\t%d\n" k.Engine.Canonical.text k.Engine.Canonical.hash)
      queries
  in
  checki "query count" 667 (List.length queries);
  checks "canonical keys digest" "9f1dc3e48440b5aa740c88138833aa76"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_lru_capacity_and_eviction_order () =
  let c = Engine.Lru_cache.create ~capacity:3 in
  Engine.Lru_cache.put c "a" 1;
  Engine.Lru_cache.put c "b" 2;
  Engine.Lru_cache.put c "c" 3;
  checki "full" 3 (Engine.Lru_cache.length c);
  (* Touch "a" so "b" is now the LRU entry. *)
  checkb "a hit" true (Engine.Lru_cache.find c "a" = Some 1);
  Engine.Lru_cache.put c "d" 4;
  checki "still bounded" 3 (Engine.Lru_cache.length c);
  checkb "b evicted" false (Engine.Lru_cache.mem c "b");
  checkb "a kept" true (Engine.Lru_cache.mem c "a");
  checkb "c kept" true (Engine.Lru_cache.mem c "c");
  checkb "d kept" true (Engine.Lru_cache.mem c "d");
  (* Evict twice more: LRU order is now c, a, d. *)
  Engine.Lru_cache.put c "e" 5;
  Engine.Lru_cache.put c "f" 6;
  checkb "c evicted second" false (Engine.Lru_cache.mem c "c");
  checkb "a evicted third" false (Engine.Lru_cache.mem c "a");
  checkb "d survives" true (Engine.Lru_cache.mem c "d");
  let k = Engine.Lru_cache.counters c in
  checki "evictions" 3 k.Engine.Lru_cache.evictions

let test_lru_counters_balance () =
  let c = Engine.Lru_cache.create ~capacity:2 in
  let lookups = ref 0 in
  let find key =
    incr lookups;
    ignore (Engine.Lru_cache.find c key)
  in
  find "x";
  Engine.Lru_cache.put c "x" 10;
  find "x";
  find "y";
  Engine.Lru_cache.put c "y" 20;
  Engine.Lru_cache.put c "z" 30;
  find "x";
  (* x was evicted by z *)
  let k = Engine.Lru_cache.counters c in
  checki "hits + misses = lookups" !lookups
    (k.Engine.Lru_cache.hits + k.Engine.Lru_cache.misses);
  checki "hits" 1 k.Engine.Lru_cache.hits;
  checki "misses" 3 k.Engine.Lru_cache.misses;
  checki "insertions" 3 k.Engine.Lru_cache.insertions;
  checki "evictions" 1 k.Engine.Lru_cache.evictions

let test_lru_refresh_and_invalidate () =
  let c = Engine.Lru_cache.create ~capacity:2 in
  Engine.Lru_cache.put c "a" 1;
  Engine.Lru_cache.put c "b" 2;
  Engine.Lru_cache.put c "a" 11;  (* refresh: value + recency, no eviction *)
  checkb "refreshed" true (Engine.Lru_cache.find c "a" = Some 11);
  Engine.Lru_cache.put c "c" 3;
  checkb "b was LRU after refresh" false (Engine.Lru_cache.mem c "b");
  Engine.Lru_cache.remove c "a";
  checkb "removed" false (Engine.Lru_cache.mem c "a");
  Engine.Lru_cache.clear c;
  checki "cleared" 0 (Engine.Lru_cache.length c);
  let k = Engine.Lru_cache.counters c in
  (* remove a (1) + clear of the single remaining entry c (1) *)
  checki "invalidations" 2 k.Engine.Lru_cache.invalidations;
  checki "evictions" 1 k.Engine.Lru_cache.evictions;
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru_cache.create: capacity 0 < 1") (fun () ->
      ignore (Engine.Lru_cache.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* HET collisions: two distinct paths forced onto one hash must coexist. *)

let test_het_forced_collision () =
  let lookup het path = Core.Het.lookup_simple het ~path 42 in
  let build order =
    let het = Core.Het.create () in
    List.iter
      (fun (path, card) ->
        Core.Het.add_simple het ~path ~hash:42 ~card ~bsel:None ~error:1.0)
      order;
    het
  in
  let check_both het tag =
    checkb (tag ^ ": first path answers") true
      (lookup het "1/2" = Some (10, None));
    checkb (tag ^ ": second path answers") true
      (lookup het "3/4" = Some (99, None));
    checkb (tag ^ ": stranger path misses") true (lookup het "5/6" = None)
  in
  let het = build [ ("1/2", 10); ("3/4", 99) ] in
  check_both het "insertion order A";
  checki "both retained" 2 (Core.Het.total_count het);
  checkb "collisions counted" true
    ((Core.Het.counters het).Core.Het.collisions > 0);
  (* Insertion order must not matter. *)
  check_both (build [ ("3/4", 99); ("1/2", 10) ]) "insertion order B";
  (* The dump round-trips both entries. *)
  (match Core.Het.of_string_result (Core.Het.to_string het) with
   | Ok het' ->
     check_both het' "after round trip";
     checki "round trip keeps both" 2 (Core.Het.total_count het')
   | Error e -> Alcotest.failf "round trip: %s" (Core.Error.to_string e));
  (* Same hash AND same path: a plain replace, as before. *)
  let het = build [ ("1/2", 10); ("1/2", 77); ("3/4", 99) ] in
  checkb "same path replaces" true (lookup het "1/2" = Some (77, None));
  checki "no duplicate binding" 2 (Core.Het.total_count het)

let test_het_legacy_pathless () =
  let het = Core.Het.create () in
  Core.Het.add_simple het ~hash:7 ~card:5 ~bsel:None ~error:0.0;
  checkb "pathless entry answers a pathed lookup" true
    (Core.Het.lookup_simple het ~path:"1/5" 7 = Some (5, None));
  checkb "and a pathless lookup" true
    (Core.Het.lookup_simple het 7 = Some (5, None))

(* ------------------------------------------------------------------ *)
(* Engine: cache behavior and the feedback loop, on the one-worker pool
   that serves inline *)

(* 8 'a' children: 4 carry <b/>, 4 carry <c/> — b and c never co-occur, so
   independence overestimates /r/a[b]/c (actual 0) until feedback fixes it. *)
let correlated_doc =
  "<r>" ^ String.concat ""
    (List.init 8 (fun i -> if i < 4 then "<a><b/></a>" else "<a><c/></a>"))
  ^ "</r>"

let engine_over doc =
  let kernel = Core.Builder.of_string doc in
  let het = Core.Het.create () in
  let estimator = Core.Estimator.create ~het kernel in
  Engine.Pool.create ~workers:1 estimator

let served_value engine q =
  match Engine.Pool.estimate engine q with
  | Ok r -> r.Engine.Serve.value
  | Error e -> Alcotest.failf "estimate %s: %s" q (Core.Error.to_string e)

let served_status engine q =
  match Engine.Pool.estimate engine q with
  | Ok r -> r.Engine.Serve.status
  | Error e -> Alcotest.failf "estimate %s: %s" q (Core.Error.to_string e)

let test_engine_cache_hit_miss () =
  let engine = engine_over correlated_doc in
  checkb "first is a miss" true
    (served_status engine "/r/a" = Core.Explain.Miss);
  checkb "repeat is a hit" true (served_status engine "/r/a" = Core.Explain.Hit);
  checkb "equivalent spelling hits" true
    (served_status engine " / r / ./ a" = Core.Explain.Hit);
  checkb "different query misses" true
    (served_status engine "/r/a/b" = Core.Explain.Miss);
  let c = Engine.Pool.cache_counters engine in
  checki "hits" 2 c.Engine.Lru_cache.hits;
  checki "misses" 2 c.Engine.Lru_cache.misses;
  (match Engine.Pool.estimate engine "/r[" with
   | Ok _ -> Alcotest.fail "bad query served"
   | Error e ->
     checkb "parse error kind" true
       (Core.Error.kind e = Core.Error.Malformed_query));
  (* Errors are not cached and do not disturb the counters' balance. *)
  let c = Engine.Pool.cache_counters engine in
  checki "error not counted" 4 (c.Engine.Lru_cache.hits + c.Engine.Lru_cache.misses)

let test_engine_feedback_refines () =
  let engine = engine_over correlated_doc in
  let q = "/r/a[b]/c" in
  let e1 = served_value engine q in
  checkb "independence overestimates" true (e1 > 0.5);
  (match Engine.Pool.feedback engine q ~actual:0 with
   | Ok fb ->
     checkb "judged the served estimate" true (fb.Engine.Feedback.estimate = e1);
     checkb "q-error over threshold" true
       (fb.Engine.Feedback.q_error >= Engine.Pool.qerror_threshold engine);
     checkb "refined" true fb.Engine.Feedback.refined
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  checki "one refinement" 1 (Engine.Pool.feedback_rounds engine);
  (* Refinement invalidated the cache: recompute against the refreshed HET. *)
  checkb "cache cleared" true (served_status engine q = Core.Explain.Miss);
  let e2 = served_value engine q in
  checkb "estimate corrected" true (e2 < e1);
  checkb "now near the truth" true
    (Engine.Feedback.q_error ~estimate:e2 ~actual:0
     < Engine.Feedback.q_error ~estimate:e1 ~actual:0)

let test_engine_feedback_simple_path () =
  let engine = engine_over correlated_doc in
  let q = "/r/a/b" in
  let e1 = served_value engine q in
  (* Pretend execution saw something wildly different: the exact-cardinality
     entry must take over on the next request. *)
  (match Engine.Pool.feedback engine q ~actual:40 with
   | Ok fb -> checkb "refined" true fb.Engine.Feedback.refined
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  checkb "exact entry answers" true (served_value engine q = 40.0);
  checkb "it changed the estimate" true (e1 <> 40.0);
  (* A good estimate is left alone: no refinement, cache intact. *)
  (match Engine.Pool.feedback engine q ~actual:40 with
   | Ok fb -> checkb "kept" false fb.Engine.Feedback.refined
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  checki "still one refinement" 1 (Engine.Pool.feedback_rounds engine);
  checki "feedback observations" 2 (Engine.Pool.feedback_seen engine);
  checkb "cache survives a kept observation" true
    (served_status engine q = Core.Explain.Hit)

(* A pool over [correlated_doc] whose base estimator (FEEDBACK, EXPLAIN)
   counts into [obs]. *)
let engine_with_obs obs =
  let kernel = Core.Builder.of_string correlated_doc in
  Engine.Pool.create ~workers:1
    (Core.Estimator.create ~het:(Core.Het.create ()) ~obs kernel)

let match_steps obs = Obs.value (Obs.counter obs "matcher.match_steps")

(* FEEDBACK reuses an estimate the current epoch already computed — its
   own memo, or a shard cache's entry — and recomputes once a refinement
   moves the epoch; every reused float is the one a fresh estimate gives. *)
let test_engine_feedback_memo () =
  let obs = Obs.create () in
  let engine = engine_with_obs obs in
  let feedback q actual =
    match Engine.Pool.feedback engine q ~actual with
    | Ok fb -> fb
    | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e)
  in
  let close e = int_of_float (Float.round e) in
  let q = "/r/a[b]/c" in
  (* The same query on a separate pool: the float this one must judge. *)
  let e0 = served_value (engine_over correlated_doc) q in
  checkb "overestimate to refine later" true (e0 >= 1.0);
  let fb1 = feedback q (close e0) in
  checkb "kept" false fb1.Engine.Feedback.refined;
  checkb "judged the served float" true (fb1.Engine.Feedback.estimate = e0);
  let steps1 = match_steps obs in
  checkb "first feedback ran the matcher" true (steps1 > 0);
  checkb "same float again" true
    ((feedback q (close e0)).Engine.Feedback.estimate = e0);
  checki "memoized: no matcher work" steps1 (match_steps obs);
  let q2 = "/r/a/b" in
  let e2 = served_value engine q2 in
  checkb "a shard's cached float" true
    ((feedback q2 (close e2)).Engine.Feedback.estimate = e2);
  checki "taken from the shard cache" steps1 (match_steps obs);
  checkb "refined" true (feedback q 0).Engine.Feedback.refined;
  let steps3 = match_steps obs in
  ignore (feedback q2 (close e2) : Engine.Feedback.outcome);
  checkb "no shard entry from an older epoch" true (match_steps obs > steps3);
  let steps4 = match_steps obs in
  let fb4 = feedback q 0 in
  checkb "recomputed after the epoch moved" true (match_steps obs > steps4);
  checkb "against the refined HET" true
    (fb4.Engine.Feedback.estimate = served_value engine q
    && fb4.Engine.Feedback.estimate < e0)

(* The snapshot hook mirrors the METRICS view into a registry: the shards'
   pipeline counters and the base estimator's beside the serving totals,
   idempotently. *)
let test_engine_publish_mirror () =
  let base = Obs.create () in
  let engine = engine_with_obs base in
  ignore (served_value engine "/r/a[b]/c" : float);
  (match Engine.Pool.feedback engine "/r/a/b" ~actual:4 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  let snap = Obs.create () in
  Engine.Pool.publish_telemetry engine snap;
  let first = Obs.snapshot snap in
  Engine.Pool.publish_telemetry engine snap;
  checkb "republishing is idempotent" true
    (Obs.Json.equal first (Obs.snapshot snap));
  checki "snapshot matches METRICS" (match_steps (Engine.Pool.merged_metrics engine))
    (match_steps snap);
  checkb "FEEDBACK's matcher work included" true (match_steps base > 0);
  checkb "and the shard's" true (match_steps snap > match_steps base);
  checki "serving totals beside them" 1
    (Obs.value (Obs.counter snap "engine.cache.misses"))

let test_engine_batch_and_explain () =
  let engine = engine_over correlated_doc in
  (match Engine.Pool.estimate_batch engine [ "/r/a"; "/r["; "/r/a" ] with
   | [ Ok _; Error e; Ok hit ] ->
     checkb "batch error kind" true
       (Core.Error.kind e = Core.Error.Malformed_query);
     checkb "batch shares the cache" true
       (hit.Engine.Serve.status = Core.Explain.Hit)
   | _ -> Alcotest.fail "batch shape");
  (match Engine.Pool.explain engine "/r/a/b" with
   | Ok r ->
     checkb "uncached query explains as miss" true
       (r.Core.Explain.cache = Core.Explain.Miss);
     checki "no rounds yet" 0 r.Core.Explain.feedback_rounds
   | Error e -> Alcotest.failf "explain: %s" (Core.Error.to_string e));
  ignore (served_value engine "/r/a/b");
  (match Engine.Pool.feedback engine "/r/a[b]/c" ~actual:0 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  ignore (served_value engine "/r/a/b");
  (match Engine.Pool.explain engine "/r/./a/b" with
   | Ok r ->
     checkb "cached (canonicalized) query explains as hit" true
       (r.Core.Explain.cache = Core.Explain.Hit);
     checki "rounds reported" 1 r.Core.Explain.feedback_rounds
   | Error e -> Alcotest.failf "explain: %s" (Core.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Serve protocol *)

(* One self-contained request line: no payload source, so a BATCH here
   reads nothing and its slots report end of input. *)
let handle_line engine line =
  Engine.Serve.handle_request (Engine.Pool.server engine)
    ~read_line:(fun () -> None) line

let handle engine line =
  match handle_line engine line with
  | Some resp -> resp
  | None -> Alcotest.failf "no response to %S" line

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_protocol_ok () =
  let engine = engine_over correlated_doc in
  checkb "blank ignored" true (handle_line engine "  " = None);
  let r = handle engine "ESTIMATE /r/a" in
  checks "estimate miss" "OK 8.00 miss" r;
  checks "estimate hit" "OK 8.00 hit" (handle engine "ESTIMATE /r/./a");
  checkb "feedback kept" true (starts_with "OK " (handle engine "FEEDBACK /r/a 8"));
  checkb "feedback refined" true
    (starts_with "OK " (handle engine "FEEDBACK /r/a[b]/c 0"));
  let stats = handle engine "STATS" in
  checkb "stats ok" true (starts_with "OK {" stats);
  let json =
    Obs.Json.of_string (String.sub stats 3 (String.length stats - 3))
  in
  checkb "stats json has cache" true (Obs.Json.member "cache" json <> None);
  checkb "stats json has feedback" true
    (Obs.Json.member "feedback" json <> None);
  let explain = handle engine "EXPLAIN /r/a" in
  checkb "explain ok" true (starts_with "OK {" explain);
  ignore
    (Obs.Json.of_string (String.sub explain 3 (String.length explain - 3)));
  (* Health-check verbs: synopsis-free, identical over every transport. *)
  checks "PING" "OK pong" (handle engine "PING");
  checks "VERSION"
    (Printf.sprintf "OK xseed %s protocol %d" Engine.Serve.version
       Engine.Serve.protocol_version)
    (handle engine "VERSION");
  checkb "PING takes no argument" true
    (starts_with "ERR malformed-query" (handle engine "PING now"));
  checkb "VERSION takes no argument" true
    (starts_with "ERR malformed-query" (handle engine "VERSION 2"))

let test_protocol_errors () =
  let engine = engine_over correlated_doc in
  List.iter
    (fun (line, expected_prefix) ->
      let r = handle engine line in
      checkb
        (Printf.sprintf "%S -> %s (got %s)" line expected_prefix r)
        true
        (starts_with expected_prefix r))
    [ ("ESTIMATE", "ERR malformed-query");
      ("ESTIMATE /r[", "ERR malformed-query");
      ("ESTIMATE r/a", "ERR malformed-query");
      ("FEEDBACK /r/a", "ERR malformed-query");
      ("FEEDBACK /r/a twelve", "ERR malformed-query");
      ("FEEDBACK /r/a -5", "ERR malformed-query");
      ("FEEDBACK 12", "ERR malformed-query");
      ("FEEDBACK /r[ 12", "ERR malformed-query");
      ("STATS now", "ERR malformed-query");
      ("EXPLAIN", "ERR malformed-query");
      ("BOGUS /r/a", "ERR malformed-query");
      ("estimate /r/a", "ERR malformed-query");
      ("PROFILE 2", "ERR malformed-query unknown command \"PROFILE\"") ];
  (* Whatever arrives, the handler answers with one line and never raises. *)
  List.iter
    (fun line ->
      match handle_line engine line with
      | None -> ()
      | Some r ->
        checkb
          (Printf.sprintf "one-line OK/ERR for %S" line)
          true
          ((starts_with "OK " r || starts_with "ERR " r)
          && not (String.contains r '\n')))
    [ "\x00\x01"; "ESTIMATE " ^ String.make 5000 '['; "FEEDBACK  1";
      "ESTIMATE //" ^ String.concat "//" (List.init 70 (fun _ -> "a")); "OK";
      "ERR"; "FEEDBACK /r/a 99999999999999999999999";
      (* Telemetry verbs with malformed arguments must stay one-line ERRs
         (their well-formed spellings are the protocol's only multi-line
         responses). *)
      "METRICS x"; "RECENT abc"; "RECENT -1"; "RECENT 1 2"; "DRIFT now";
      "metrics"; "RECENT 999999999999999999999999";
      (* Malformed BATCH counts fail with a single ERR line before any
         payload would be consumed. *)
      "BATCH"; "BATCH -1"; "BATCH abc"; "BATCH 1 2"; "BATCH 10001";
      "BATCH 999999999999999999999999"; "batch 2" ]

(* ------------------------------------------------------------------ *)
(* BATCH framing *)

(* Drive Serve.handle_request with a scripted payload source, counting how
   many payload lines were actually consumed. *)
let serve_handle server ?(payload = []) line =
  let remaining = ref payload in
  let reads = ref 0 in
  let read_line () =
    match !remaining with
    | [] -> None
    | l :: rest ->
      incr reads;
      remaining := rest;
      Some l
  in
  ((match Engine.Serve.handle_request server ~read_line line with
    | Some r -> r
    | None -> Alcotest.failf "no response to %S" line),
   reads)

let test_protocol_batch () =
  let engine = engine_over correlated_doc in
  let server = Engine.Pool.server engine in
  (* Payload lines with and without the ESTIMATE prefix; the repeat is a
     cache hit. *)
  let r, reads =
    serve_handle server ~payload:[ "ESTIMATE /r/a"; "/r/./a"; "/r/a/b" ]
      "BATCH 3"
  in
  checks "batch golden" "OK 3\nOK 8.00 miss\nOK 8.00 hit\nOK 4.00 miss" r;
  checki "exactly 3 payload lines read" 3 !reads;
  let r, _ = serve_handle server "BATCH 0" in
  checks "empty batch" "OK 0" r;
  (* A bad query fails only its own slot. *)
  let r, _ = serve_handle server ~payload:[ "/r["; "/r/a" ] "BATCH 2" in
  (match String.split_on_char '\n' r with
   | [ head; slot0; slot1 ] ->
     checks "batch head" "OK 2" head;
     checkb "bad slot is a one-line ERR" true
       (starts_with "ERR malformed-query" slot0);
     checks "good slot still answered" "OK 8.00 hit" slot1
   | _ -> Alcotest.failf "unexpected batch shape %S" r);
  (* EOF inside the frame: missing slots answer with io-error lines. *)
  let r, _ = serve_handle server ~payload:[ "/r/a" ] "BATCH 3" in
  (match String.split_on_char '\n' r with
   | [ head; slot0; slot1; slot2 ] ->
     checks "frame head still OK n" "OK 3" head;
     checks "present slot answered" "OK 8.00 hit" slot0;
     checkb "missing slots are io errors" true
       (starts_with "ERR io-error" slot1 && starts_with "ERR io-error" slot2)
   | _ -> Alcotest.failf "unexpected EOF-batch shape %S" r);
  (* Malformed counts consume nothing. *)
  List.iter
    (fun line ->
      let r, reads = serve_handle server ~payload:[ "/r/a" ] line in
      checkb
        (Printf.sprintf "%S -> one-line ERR (got %S)" line r)
        true
        (starts_with "ERR malformed-query" r && not (String.contains r '\n'));
      checki (Printf.sprintf "%S consumed no payload" line) 0 !reads)
    [ "BATCH"; "BATCH -7"; "BATCH x"; "BATCH 10001";
      Printf.sprintf "BATCH %d" (Engine.Serve.max_batch + 1) ];
  (* A request with no payload source at all: every slot reports end of
     input. *)
  checks "handle_line BATCH has no payload source" "OK 1\nERR io-error unexpected end of input inside BATCH"
    (handle engine "BATCH 1")

(* The hard cap is configurable per server: ~max_batch lowers it and the
   ERR diagnostic names the active limit. *)
let test_protocol_max_batch () =
  let engine = engine_over correlated_doc in
  let server = Engine.Pool.server engine in
  let handle_with ~max_batch ?(payload = []) line =
    let remaining = ref payload in
    let read_line () =
      match !remaining with
      | [] -> None
      | l :: rest ->
        remaining := rest;
        Some l
    in
    match Engine.Serve.handle_request server ~max_batch ~read_line line with
    | Some r -> r
    | None -> Alcotest.failf "no response to %S" line
  in
  (* At the limit: served. *)
  let r = handle_with ~max_batch:2 ~payload:[ "/r/a"; "/r/a/b" ] "BATCH 2" in
  checkb "BATCH at the limit is served" true (starts_with "OK 2" r);
  (* One over: refused with a one-line ERR naming the configured limit. *)
  let r = handle_with ~max_batch:2 ~payload:[ "/r/a" ] "BATCH 3" in
  checkb "BATCH over the limit refused" true
    (starts_with "ERR malformed-query" r && not (String.contains r '\n'));
  checkb "diagnostic names the limit" true
    (let has needle hay =
       let nl = String.length needle and hl = String.length hay in
       let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
       go 0
     in
     has "limit=2" r && has "--max-batch" r);
  (* The default is the documented constant. *)
  checki "default max_batch" 10_000 Engine.Serve.max_batch

(* A deadline on the inline pool: a negative budget is already spent, so
   the first (uncached) estimate refuses deterministically. *)
let test_engine_deadline () =
  let kernel = Core.Builder.of_string correlated_doc in
  let estimator = Core.Estimator.create ~het:(Core.Het.create ()) kernel in
  Alcotest.check_raises "NaN deadline rejected"
    (Invalid_argument "Pool.create: deadline_s must not be NaN") (fun () ->
      ignore (Engine.Pool.create ~workers:1 ~deadline_s:Float.nan estimator));
  let engine = Engine.Pool.create ~workers:1 ~deadline_s:(-1.0) estimator in
  (match Engine.Pool.estimate engine "/r/a" with
   | Ok _ -> Alcotest.fail "expired request was served"
   | Error e ->
     checkb "ERR timeout" true (Core.Error.kind e = Core.Error.Timeout);
     checki "timeout exits 75" 75 (Core.Error.exit_code e));
  checki "timed_out counted" 1 (Engine.Pool.timeout_total engine);
  (* Refusals leave a flight record and surface in STATS. *)
  checkb "timeout leaves a flight record" true
    (List.exists
       (fun (r : Engine.Flight_recorder.record) ->
         r.Engine.Flight_recorder.cache = Engine.Flight_recorder.Timed_out)
       (Engine.Pool.recent engine));
  match Obs.Json.member "pool" (Engine.Pool.stats_json engine) with
  | Some pool ->
    checkb "stats_json has timeout_total" true
      (Obs.Json.member "timeout_total" pool = Some (Obs.Json.Int 1))
  | None -> Alcotest.fail "stats_json lacks a pool object"

(* ------------------------------------------------------------------ *)
(* One-worker tracing: the submitter serves every request on shard 0, so
   a traced ESTIMATE writes exactly its [execute] slice and per-query
   [canonicalize] sub-slice (plus [pipeline] on a miss) — no flow, no
   span, no other track; the drained verbs land on the same track. Without
   ?trace the trace session never sees a single ring write. *)

let test_engine_tracing () =
  let kernel = Core.Builder.of_string correlated_doc in
  let mk trace =
    Engine.Pool.create ~workers:1 ?trace
      (Core.Estimator.create ~het:(Core.Het.create ()) kernel)
  in
  let tr = Obs.Trace.create () in
  let traced = mk (Some tr) in
  let events () =
    match Obs.Json.member "traceEvents" (Obs.Trace.to_json tr) with
    | Some (Obs.Json.List evs) ->
      List.filter
        (fun e -> Obs.Json.member "ph" e <> Some (Obs.Json.String "M"))
        evs
    | _ -> Alcotest.fail "traceEvents missing"
  in
  let slices () =
    List.sort compare
      (List.map
         (fun e ->
           match (Obs.Json.member "ph" e, Obs.Json.member "name" e) with
           | Some (Obs.Json.String "X"), Some (Obs.Json.String n) -> n
           | _ -> Alcotest.fail "a one-worker trace holds only X slices")
         (events ()))
  in
  ignore (Engine.Pool.estimate traced "/r/a" : _ result);
  Alcotest.(check (list string)) "a miss: execute, canonicalize, pipeline"
    [ "canonicalize"; "execute"; "pipeline" ] (slices ());
  ignore (Engine.Pool.estimate traced "/r/a" : _ result);
  Alcotest.(check (list string)) "a hit adds execute and canonicalize"
    [ "canonicalize"; "canonicalize"; "execute"; "execute"; "pipeline" ]
    (slices ());
  ignore (Engine.Pool.feedback traced "/r/a" ~actual:8 : _ result);
  ignore (Engine.Pool.explain traced "/r/a/b" : _ result);
  let names = slices () in
  List.iter
    (fun expected ->
      checkb (Printf.sprintf "%s slice recorded" expected) true
        (List.mem expected names))
    [ "feedback"; "explain" ];
  checkb "every event on shard 0's track" true
    (List.for_all
       (fun e -> Obs.Json.member "tid" e = Some (Obs.Json.Int 1))
       (events ()));
  checkb "trace lints clean" true (Obs.Trace.lint (Obs.Trace.to_json tr) = []);
  (* An untraced engine sharing the session would be a bug; a fresh session
     next to an untraced engine stays completely empty. *)
  let tr2 = Obs.Trace.create () in
  let plain = mk None in
  ignore (Engine.Pool.estimate plain "/r/a" : _ result);
  (match Obs.Json.member "traceEvents" (Obs.Trace.to_json tr2) with
   | Some (Obs.Json.List evs) ->
     checki "no trace -> zero ring writes" 0
       (List.length
          (List.filter
             (fun e ->
               Obs.Json.member "ph" e <> Some (Obs.Json.String "M"))
             evs))
   | _ -> Alcotest.fail "traceEvents missing")

(* Allocation per served cache hit, in the style of test_estimator's
   per-estimate budget. An ESTIMATE that hits the shard cache parses the
   query, prints and hashes its canonical key once, records its flight
   record and renders the reply; a hit whose key went through [Format]
   cost ~1,400 words. XMark BP/CP queries through a one-worker pool with
   telemetry on, as [xseed serve] runs it. *)
let hit_words_budget = 700.0

let test_protocol_hit_allocation () =
  let doc = Datagen.Xmark.generate ~seed:5 ~items:40 () in
  let pool =
    Engine.Pool.create ~workers:1
      (Core.Synopsis.estimator (Core.Synopsis.build doc))
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let server = Engine.Pool.server pool in
  let pt = Pathtree.Path_tree.of_string doc in
  let rng = Datagen.Rng.create ~seed:9 in
  let lines =
    List.map
      (fun q -> "ESTIMATE " ^ Xpath.Ast.to_string q)
      (Datagen.Workload.branching pt ~rng ~count:40 ~mbp:2 ()
      @ Datagen.Workload.complex pt ~rng ~count:40 ~mbp:2 ())
  in
  let read_line () = None in
  let serve_all () =
    List.iter
      (fun l -> ignore (Engine.Serve.handle_request server ~read_line l))
      lines
  in
  serve_all ();  (* warm: every query is cached from here on *)
  List.iter
    (fun l ->
      match Engine.Serve.handle_request server ~read_line l with
      | Some r when String.ends_with ~suffix:" hit" r -> ()
      | r -> Alcotest.failf "%s: expected a hit, got %s" l (Option.value r ~default:"nothing"))
    lines;
  let rounds = 10 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    serve_all ()
  done;
  let words =
    (Gc.minor_words () -. w0) /. float_of_int (rounds * List.length lines)
  in
  checkb
    (Printf.sprintf "%.0f words per served hit, budget %.0f" words
       hit_words_budget)
    true (words < hit_words_budget)

(* A cache key's text re-parses to the query it names: a number prints in
   its shortest exact form, so no two values share a slot, and a text
   holding a single quote prints between double quotes, so a key sent back
   is served from its own slot. XMark, one worker. *)
let test_protocol_literal_keys () =
  let doc = Datagen.Xmark.generate ~seed:5 ~items:40 () in
  let pool =
    Engine.Pool.create ~workers:1
      (Core.Synopsis.estimator (Core.Synopsis.build doc))
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let status q =
    let r = handle pool ("ESTIMATE " ^ q) in
    match String.rindex_opt r ' ' with
    | Some i when starts_with "OK " r ->
      String.sub r (i + 1) (String.length r - i - 1)
    | _ -> Alcotest.failf "ESTIMATE %s: %s" q r
  in
  List.iter
    (fun q -> checks (q ^ " has its own slot") "miss" (status q))
    [ "//open_auction[current>10.0000001]";
      "//open_auction[current>10]";
      "//open_auction[current>10.0000004]" ];
  List.iter
    (fun q ->
      checks (q ^ " answered") "miss" (status q);
      checks (key_text q ^ " is its key") "hit" (status (key_text q)))
    [ "//item[location=\"x'y\"]";
      "//open_auction[current>1000000000000000]";
      "//open_auction[current>0.000000123]" ]

(* ------------------------------------------------------------------ *)
(* The pool behind the same protocol (--workers N). Exact estimate values
   are deterministic across workers; cache statuses are not (they depend on
   which shard served the query), so goldens here never depend on a repeat
   being a hit. *)

let test_protocol_pool () =
  let kernel = Core.Builder.of_string correlated_doc in
  let pool =
    Engine.Pool.create ~workers:4
      (Core.Estimator.create ~het:(Core.Het.create ()) kernel)
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let server = Engine.Pool.server pool in
  let r, _ = serve_handle server "ESTIMATE /r/a" in
  checks "first estimate misses everywhere" "OK 8.00 miss" r;
  let r, _ = serve_handle server "ESTIMATE /r/./a" in
  checkb "repeat value exact, status shard-dependent" true
    (starts_with "OK 8.00 " r);
  let r, _ = serve_handle server ~payload:[ "/r/a"; "/r/a/b"; "/r/a" ] "BATCH 3" in
  (match String.split_on_char '\n' r with
   | [ head; s0; s1; s2 ] ->
     checks "pool batch head" "OK 3" head;
     checkb "slot values deterministic" true
       (starts_with "OK 8.00 " s0 && starts_with "OK 4.00 " s1
       && starts_with "OK 8.00 " s2)
   | _ -> Alcotest.failf "unexpected pool batch shape %S" r);
  let r, _ = serve_handle server "FEEDBACK /r/a 8" in
  checkb "pool feedback answers" true (starts_with "OK " r);
  let stats, _ = serve_handle server "STATS" in
  checkb "pool stats ok" true (starts_with "OK {" stats);
  let json =
    Obs.Json.of_string (String.sub stats 3 (String.length stats - 3))
  in
  (match Obs.Json.member "pool" json with
   | Some (Obs.Json.Obj fields) ->
     checkb "stats.pool.workers" true
       (List.assoc_opt "workers" fields = Some (Obs.Json.Int 4))
   | _ -> Alcotest.fail "STATS lacks a pool object");
  (* METRICS: deterministic merge — quiet re-scrape is byte-identical and
     series appear in sorted runs. *)
  let m1, _ = serve_handle server "METRICS" in
  let m2, _ = serve_handle server "METRICS" in
  checks "quiet scrapes identical" m1 m2;
  checkb "pool gauge present" true
    (let needle = "xseed_engine_pool_workers 4" in
     let n = String.length needle in
     let rec go i =
       i + n <= String.length m1 && (String.sub m1 i n = needle || go (i + 1))
     in
     go 0);
  (* RECENT merges the shard rings: everything served so far, newest
     submission first with strictly decreasing sequence numbers. *)
  let r, _ = serve_handle server "RECENT" in
  (match String.split_on_char '\n' r with
   | head :: rows ->
     checkb "recent head" true (starts_with "OK " head);
     checki "one row per record" (List.length rows)
       (int_of_string (String.sub head 3 (String.length head - 3)));
     let seqs =
       List.map
         (fun row ->
           match Obs.Json.member "seq" (Obs.Json.of_string row) with
           | Some (Obs.Json.Int s) -> s
           | _ -> Alcotest.failf "row lacks seq: %S" row)
         rows
     in
     checkb "strictly decreasing seq" true
       (List.for_all2 ( > ) (List.filteri (fun i _ -> i < List.length seqs - 1) seqs)
          (List.tl seqs))
   | [] -> Alcotest.fail "empty RECENT response");
  let r, _ = serve_handle server "RECENT 2" in
  checkb "recent clipped" true (starts_with "OK 2\n" r);
  let r, _ = serve_handle server "DRIFT" in
  checkb "pool drift json" true (starts_with "OK {" r);
  let r, _ = serve_handle server "EXPLAIN /r/a" in
  checkb "pool explain json" true (starts_with "OK {" r)

(* ------------------------------------------------------------------ *)
(* Serving telemetry: flight recorder, drift monitor, scrape commands *)

let test_flight_recorder_ring () =
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Flight_recorder.create: capacity 0 < 1") (fun () ->
      ignore (Engine.Flight_recorder.create ~capacity:0 ()));
  let fr = Engine.Flight_recorder.create ~capacity:3 () in
  checki "empty" 0 (List.length (Engine.Flight_recorder.recent fr));
  for i = 0 to 4 do
    ignore
      (Engine.Flight_recorder.record fr
         ~query:(Printf.sprintf "/q%d" i)
         ~hash:i ~cache:Engine.Flight_recorder.Miss
         ~estimate:(float_of_int i) ~canonicalize_s:1e-6 ~ept_s:2e-6
         ~match_s:3e-6 ~ept_nodes:10 ~frontier_peak:2 ~degenerate_clamps:0
         ~het_hits:1 ~feedback_round:0
        : Engine.Flight_recorder.record)
  done;
  checki "lifetime total" 5 (Engine.Flight_recorder.total fr);
  let recent = Engine.Flight_recorder.recent fr in
  checki "ring keeps capacity" 3 (List.length recent);
  Alcotest.(check (list string))
    "newest first, oldest overwritten" [ "/q4"; "/q3"; "/q2" ]
    (List.map (fun r -> r.Engine.Flight_recorder.query) recent);
  checki "recent ~n clips" 2
    (List.length (Engine.Flight_recorder.recent ~n:2 fr));
  checki "recent over-asks are clipped" 3
    (List.length (Engine.Flight_recorder.recent ~n:50 fr));
  let j = Engine.Flight_recorder.to_json (List.hd recent) in
  checkb "record json re-parses" true
    (Obs.Json.equal j (Obs.Json.of_string (Obs.Json.to_string j)));
  checkb "stage times serialized" true
    ((match Obs.Json.member "wall_us" j with
      | Some (Obs.Json.Obj _) -> true
      | _ -> false))

let test_drift_monitor () =
  let d = Engine.Drift.create ~slots:2 ~per_slot:4 ~p90_threshold:4.0 () in
  checkb "qerror symmetric" true
    (Engine.Feedback.q_error ~estimate:3.0 ~actual:15
    = Engine.Feedback.q_error ~estimate:15.0 ~actual:3);
  checkb "empty p90 nan" true (Float.is_nan (Engine.Drift.p90 d));
  (* Accurate feedback: no alert. *)
  for _ = 1 to 3 do
    ignore (Engine.Drift.observe d ~estimate:10.0 ~actual:10 : float)
  done;
  checki "no alert on accurate window" 0 (Engine.Drift.alerts d);
  checkb "not alerting" false (Engine.Drift.alerting d);
  (* A burst of bad estimates drives window p90 over 4: exactly one edge. *)
  for _ = 1 to 6 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:100 : float)
  done;
  checki "edge-triggered once" 1 (Engine.Drift.alerts d);
  checkb "alerting latched" true (Engine.Drift.alerting d);
  (* Window slides past the bad stretch: re-arms, then a second edge. *)
  for _ = 1 to 8 do
    ignore (Engine.Drift.observe d ~estimate:10.0 ~actual:10 : float)
  done;
  checkb "re-armed after recovery" false (Engine.Drift.alerting d);
  for _ = 1 to 8 do
    ignore (Engine.Drift.observe d ~estimate:1.0 ~actual:100 : float)
  done;
  checki "second edge counted" 2 (Engine.Drift.alerts d);
  (* Estimate-volume / hit-rate ride the same window. *)
  let s = Engine.Drift.register_shard d in
  Engine.Drift.note_shard s ~cache_hit:true;
  Engine.Drift.note_shard s ~cache_hit:false;
  checki "window estimates" 2 (Engine.Drift.window_estimates d);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Engine.Drift.hit_rate d);
  let j = Engine.Drift.to_json d in
  checkb "drift json has p90" true (Obs.Json.member "qerror_p90" j <> None)

let test_engine_flight_records () =
  let engine = engine_over correlated_doc in
  ignore (served_value engine "/r/a");
  ignore (served_value engine "/r/./a");
  (match Engine.Pool.explain engine "/r/a/b" with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "explain: %s" (Core.Error.to_string e));
  (match Engine.Pool.recent engine with
   | [ explained; hit; miss ] ->
     checks "explain recorded" "/r/a/b" explained.Engine.Flight_recorder.query;
     checkb "explain has stage times" true
       (explained.Engine.Flight_recorder.ept_s > 0.0
       && explained.Engine.Flight_recorder.match_s > 0.0);
     checkb "hit recorded" true
       (hit.Engine.Flight_recorder.cache = Engine.Flight_recorder.Hit);
     checki "hit visits no EPT nodes" 0 hit.Engine.Flight_recorder.ept_nodes;
     checkb "miss recorded" true
       (miss.Engine.Flight_recorder.cache = Engine.Flight_recorder.Miss);
     checkb "miss has nonzero stage timings" true
       (miss.Engine.Flight_recorder.total_s > 0.0);
     checkb "miss visited the EPT" true
       (miss.Engine.Flight_recorder.ept_nodes > 0
       && miss.Engine.Flight_recorder.frontier_peak > 0)
   | rs -> Alcotest.failf "expected 3 flight records, got %d" (List.length rs));
  (* The on_record callback sees records as they are written. *)
  let seen = ref [] in
  Engine.Pool.set_on_record engine (fun r ->
      seen := r.Engine.Flight_recorder.query :: !seen);
  ignore (served_value engine "/r/a/c");
  Alcotest.(check (list string)) "callback streamed" [ "/r/a/c" ] !seen

let test_engine_telemetry_off () =
  let kernel = Core.Builder.of_string correlated_doc in
  let estimator = Core.Estimator.create ~het:(Core.Het.create ()) kernel in
  let engine = Engine.Pool.create ~workers:1 ~telemetry:false estimator in
  ignore (served_value engine "/r/a");
  checkb "no flight records" true (Engine.Pool.recent engine = []);
  checkb "no drift monitor" true (Engine.Pool.drift engine = None);
  checkb "RECENT refused in one line" true
    (starts_with "ERR " (handle engine "RECENT")
    && not (String.contains (handle engine "RECENT") '\n'));
  checkb "DRIFT refused" true (starts_with "ERR " (handle engine "DRIFT"));
  (* METRICS still serves engine totals from the private registry. *)
  checkb "METRICS still works" true
    (starts_with "# HELP" (handle engine "METRICS"))

(* Compact structural lint for Prometheus text format 0.0.4 (mirrors the
   fuller one in test_obs.ml; test executables do not share modules). *)
let prometheus_lint text =
  let valid_name n =
    n <> ""
    && (match n.[0] with
        | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
        | _ -> false)
    && String.for_all
         (function
           | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
           | _ -> false)
         n
  in
  let typed = Hashtbl.create 16 and seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line = "" then ()
      else if line.[0] = '#' then (
        match String.split_on_char ' ' line with
        | "#" :: kw :: name :: _ when kw = "HELP" || kw = "TYPE" ->
          checkb (Printf.sprintf "comment name ok: %s" line) true
            (valid_name name);
          if kw = "TYPE" then Hashtbl.replace typed name ()
        | _ -> Alcotest.failf "malformed comment %S" line)
      else
        let sample =
          match String.index_opt line ' ' with
          | Some i -> String.sub line 0 i
          | None -> Alcotest.failf "sample without value %S" line
        in
        let name =
          match String.index_opt sample '{' with
          | Some i -> String.sub sample 0 i
          | None -> sample
        in
        checkb (Printf.sprintf "sample name ok: %s" name) true
          (valid_name name);
        checkb (Printf.sprintf "no duplicate sample: %s" sample) false
          (Hashtbl.mem seen sample);
        Hashtbl.add seen sample ();
        let strip sfx n =
          if Filename.check_suffix n sfx then Filename.chop_suffix n sfx else n
        in
        let family = strip "_bucket" (strip "_sum" (strip "_count" name)) in
        checkb (Printf.sprintf "typed family: %s" name) true
          (Hashtbl.mem typed name || Hashtbl.mem typed family))
    (String.split_on_char '\n' text)

let test_protocol_metrics () =
  let engine = engine_over correlated_doc in
  ignore (handle engine "ESTIMATE /r/a");
  ignore (handle engine "ESTIMATE /r/a");
  ignore (handle engine "FEEDBACK /r/a[b]/c 0");
  let text = handle engine "METRICS" in
  checkb "prometheus payload, no OK header" true (starts_with "# HELP" text);
  prometheus_lint text;
  List.iter
    (fun needle ->
      checkb
        (Printf.sprintf "metrics mention %s" needle)
        true
        (let nl = String.length needle and hl = String.length text in
         let rec go i =
           i + nl <= hl && (String.sub text i nl = needle || go (i + 1))
         in
         go 0))
    [ "xseed_engine_cache_hits"; "xseed_engine_cache_misses";
      "xseed_engine_feedback_seen"; "xseed_engine_drift_qerror_p90";
      "xseed_engine_flight_records"; "# TYPE xseed_engine_cache_size gauge" ];
  (* Scrapes are idempotent: totals must not inflate on re-publish. *)
  checks "second scrape identical" text (handle engine "METRICS")

let test_protocol_recent_and_drift () =
  let engine = engine_over correlated_doc in
  ignore (handle engine "ESTIMATE /r/a");
  ignore (handle engine "ESTIMATE /r/a");
  ignore (handle engine "FEEDBACK /r/a 8");
  (match String.split_on_char '\n' (handle engine "RECENT 2") with
   | header :: lines ->
     checks "RECENT header counts records" "OK 2" header;
     checki "exactly that many lines" 2 (List.length lines);
     List.iter
       (fun l ->
         match Obs.Json.member "query" (Obs.Json.of_string l) with
         | Some (Obs.Json.String "/r/a") -> ()
         | _ -> Alcotest.failf "unexpected flight line %S" l)
       lines
   | [] -> Alcotest.fail "empty RECENT response");
  (match String.split_on_char '\n' (handle engine "RECENT 0") with
   | [ header ] -> checks "RECENT 0" "OK 0" header
   | _ -> Alcotest.fail "RECENT 0 must be a bare header");
  let drift = handle engine "DRIFT" in
  checkb "DRIFT ok json" true (starts_with "OK {" drift);
  let j = Obs.Json.of_string (String.sub drift 3 (String.length drift - 3)) in
  checkb "one feedback observation in window" true
    (Obs.Json.member "window_observations" j = Some (Obs.Json.Int 1));
  checkb "estimate volume tracked" true
    (Obs.Json.member "window_estimates" j = Some (Obs.Json.Int 3));
  checkb "p90 present" true (Obs.Json.member "qerror_p90" j <> None)

(* ------------------------------------------------------------------ *)

(* The ESTIMATE reply renderer prints what [Printf]'s "%.2f" prints, byte
   for byte: random finite non-negative floats over the whole exponent
   range, and the values where rounding or width could differ. *)
let prop_estimate_line_bytes =
  let open QCheck in
  let gen_value =
    Gen.(
      frequency
        [ (1, oneofl [ 0.0; -0.0; 2.675; 1e15; max_float ]);
          ( 6,
            map2
              (fun m e -> Float.ldexp m e)
              (float_range 0.0 1.0) (int_range (-1074) 1023) );
          (3, float_range 0.0 1e6) ])
  in
  let gen_status = Gen.oneofl [ Core.Explain.Hit; Core.Explain.Miss ] in
  Test.make ~count:2000 ~name:"estimate reply bytes = Printf %.2f"
    (make ~print:(fun (v, _) -> Printf.sprintf "%h" v) (Gen.pair gen_value gen_status))
    (fun (value, status) ->
      String.equal
        (Engine.Serve.estimate_line (Ok { Engine.Serve.value; status }))
        (Printf.sprintf "OK %.2f %s" value
           (Core.Explain.cache_status_name status)))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_canonical_idempotent; prop_canonical_round_trip;
      prop_canonical_predicate_order ]

let () =
  Alcotest.run "engine"
    [ ( "canonical",
        Alcotest.test_case "equivalent spellings" `Quick
          test_canonical_equivalent
        :: Alcotest.test_case "distinct queries" `Quick test_canonical_distinct
        :: Alcotest.test_case "key golden" `Quick test_canonical_golden
        :: props );
      ( "lru",
        [ Alcotest.test_case "capacity + eviction order" `Quick
            test_lru_capacity_and_eviction_order;
          Alcotest.test_case "counters balance" `Quick
            test_lru_counters_balance;
          Alcotest.test_case "refresh + invalidate" `Quick
            test_lru_refresh_and_invalidate ] );
      ( "het",
        [ Alcotest.test_case "forced collision" `Quick
            test_het_forced_collision;
          Alcotest.test_case "legacy pathless entries" `Quick
            test_het_legacy_pathless ] );
      ( "engine",
        [ Alcotest.test_case "cache hit/miss" `Quick test_engine_cache_hit_miss;
          Alcotest.test_case "feedback refines" `Quick
            test_engine_feedback_refines;
          Alcotest.test_case "simple-path feedback" `Quick
            test_engine_feedback_simple_path;
          Alcotest.test_case "feedback memo per epoch" `Quick
            test_engine_feedback_memo;
          Alcotest.test_case "snapshot mirrors METRICS" `Quick
            test_engine_publish_mirror;
          Alcotest.test_case "batch + explain" `Quick
            test_engine_batch_and_explain ] );
      ( "protocol",
        [ Alcotest.test_case "well-formed requests" `Quick test_protocol_ok;
          Alcotest.test_case "malformed requests" `Quick test_protocol_errors;
          Alcotest.test_case "BATCH framing" `Quick test_protocol_batch;
          Alcotest.test_case "configurable max_batch" `Quick
            test_protocol_max_batch;
          Alcotest.test_case "engine deadline" `Quick test_engine_deadline;
          Alcotest.test_case "engine tracing" `Quick test_engine_tracing;
          Alcotest.test_case "pool server (--workers)" `Quick
            test_protocol_pool;
          Alcotest.test_case "cache-hit allocation budget" `Quick
            test_protocol_hit_allocation;
          Alcotest.test_case "literal keys re-parse" `Quick
            test_protocol_literal_keys;
          QCheck_alcotest.to_alcotest prop_estimate_line_bytes ] );
      ( "telemetry",
        [ Alcotest.test_case "flight recorder ring" `Quick
            test_flight_recorder_ring;
          Alcotest.test_case "drift monitor" `Quick test_drift_monitor;
          Alcotest.test_case "engine flight records" `Quick
            test_engine_flight_records;
          Alcotest.test_case "telemetry off" `Quick test_engine_telemetry_off;
          Alcotest.test_case "METRICS scrape" `Quick test_protocol_metrics;
          Alcotest.test_case "RECENT + DRIFT" `Quick
            test_protocol_recent_and_drift ] )
    ]
