(* End-to-end integration tests: the full pipeline (generate -> parse ->
   kernel + path tree + NoK storage -> HET -> estimate -> compare) on each
   corpus generator, checking the qualitative properties the paper's
   evaluation rests on. *)

let parse = Xpath.Parser.parse

type pipeline = {
  storage : Nok.Storage.t;
  path_tree : Pathtree.Path_tree.t;
  kernel : Core.Kernel.t;
  kernel_only : Core.Estimator.t;
  with_het : Core.Estimator.t;
}

let build ?(card_threshold = 0.5) ?(bsel_threshold = 0.1) doc =
  let table = Xml.Label.create_table () in
  let storage = Nok.Storage.of_string ~table doc in
  let path_tree = Pathtree.Path_tree.of_string ~table doc in
  let kernel = Core.Builder.of_string ~table doc in
  let het, _ =
    Core.Het_builder.build ~bsel_threshold ~card_threshold ~kernel ~path_tree
      ~storage ()
  in
  { storage; path_tree; kernel;
    kernel_only = Core.Estimator.create ~card_threshold kernel;
    with_het = Core.Estimator.create ~card_threshold ~het kernel }

let workload ?(count = 60) p seed =
  let rng = Datagen.Rng.create ~seed in
  Datagen.Workload.all_simple_paths p.path_tree
  @ Datagen.Workload.branching p.path_tree ~rng ~count ()
  @ Datagen.Workload.complex p.path_tree ~rng ~count ()

let summarize p estimator queries =
  Stats.Metrics.summarize
    (List.map
       (fun q ->
         ( Core.Estimator.estimate estimator q,
           float_of_int (Nok.Eval.cardinality p.storage q) ))
       queries)

let test_xmark_pipeline () =
  let p = build (Datagen.Xmark.generate ~seed:31 ~items:60 ()) in
  let queries = workload p 1 in
  let kernel_s = summarize p p.kernel_only queries in
  let het_s = summarize p p.with_het queries in
  Alcotest.(check bool)
    (Printf.sprintf "HET not worse (%.2f vs %.2f)" het_s.rmse kernel_s.rmse)
    true
    (het_s.rmse <= kernel_s.rmse +. 1e-6);
  Alcotest.(check bool)
    (Printf.sprintf "reasonable accuracy (NRMSE %.1f%%)" (100. *. het_s.nrmse))
    true (het_s.nrmse < 0.5);
  (* SP queries are exact with the full HET. *)
  let sp = Datagen.Workload.all_simple_paths p.path_tree in
  let sp_s = summarize p p.with_het sp in
  Alcotest.(check (float 1e-6)) "SP exact with HET" 0.0 sp_s.rmse

let test_dblp_pipeline () =
  let p = build (Datagen.Dblp.generate ~seed:32 ~records:400 ()) in
  let queries = workload p 2 in
  let kernel_s = summarize p p.kernel_only queries in
  let het_s = summarize p p.with_het queries in
  Alcotest.(check bool)
    (Printf.sprintf "HET improves markedly (%.2f -> %.2f)" kernel_s.rmse het_s.rmse)
    true
    (het_s.rmse < kernel_s.rmse *. 0.8);
  Alcotest.(check bool) "order mostly preserved" true (het_s.opd > 0.9)

let test_treebank_pipeline () =
  let p =
    build ~card_threshold:4.0 ~bsel_threshold:0.001
      (Datagen.Treebank.generate ~seed:33 ~sentences:150 ())
  in
  let queries = workload p 3 in
  let het_s = summarize p p.with_het queries in
  (* Recursive data is genuinely hard; just require sanity and boundedness. *)
  Alcotest.(check bool) "finite" true (Float.is_finite het_s.rmse);
  Alcotest.(check bool)
    (Printf.sprintf "OPD reasonable (%.2f)" het_s.opd)
    true (het_s.opd > 0.7);
  (* Recursive queries benefit from the recursion-aware kernel, provided the
     traveler is not pruning (threshold 0.5, unlike the workload run above
     which uses the paper's Treebank setting). *)
  let unpruned = Core.Estimator.create ~card_threshold:0.5 p.kernel in
  let q = parse "//NP//NP" in
  let est = Core.Estimator.estimate unpruned q in
  let actual = float_of_int (Nok.Eval.cardinality p.storage q) in
  Alcotest.(check bool)
    (Printf.sprintf "//NP//NP within 2x (est %.0f actual %.0f)" est actual)
    true
    (est > actual /. 2.0 && est < actual *. 2.0)

let test_estimation_deterministic () =
  let doc = Datagen.Xmark.generate ~seed:34 ~items:30 () in
  let p1 = build doc and p2 = build doc in
  let queries = workload p1 4 in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Xpath.Ast.to_string q)
        (Core.Estimator.estimate p1.with_het q)
        (Core.Estimator.estimate p2.with_het q))
    queries

let test_shared_ept_equals_fresh () =
  let p = build (Datagen.Xmark.generate ~seed:35 ~items:30 ()) in
  let ept = Core.Estimator.ept p.with_het in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12))
        (Xpath.Ast.to_string q)
        (Core.Estimator.estimate p.with_het q)
        (Core.Estimator.estimate_on p.with_het ept q))
    (workload ~count:20 p 5)

let test_xseed_beats_treesketch_on_recursive () =
  (* The Table 3 headline at miniature scale: same budget, recursive data,
     combined workload; XSEED's RMSE must be lower. *)
  let doc = Datagen.Treebank.generate ~seed:36 ~sentences:250 () in
  let p = build ~card_threshold:4.0 ~bsel_threshold:0.001 doc in
  let budget = 4096 in
  let sketch, _ = Treesketch.Sketch.build ~budget_bytes:budget p.storage in
  Core.(
    match Estimator.het p.with_het with
    | Some het ->
      Het.set_budget het ~bytes:(max 0 (budget - Kernel.size_in_bytes p.kernel))
    | None -> ());
  let queries = workload p 6 in
  let xseed = summarize p p.with_het queries in
  let ts =
    Stats.Metrics.summarize
      (List.map
         (fun q ->
           ( Treesketch.Sketch.estimate ~card_threshold:4.0 ~max_depth:24 sketch q,
             float_of_int (Nok.Eval.cardinality p.storage q) ))
         queries)
  in
  Alcotest.(check bool)
    (Printf.sprintf "XSEED %.1f < TreeSketch %.1f" xseed.rmse ts.rmse)
    true (xseed.rmse < ts.rmse)

let test_cli_synopsis_file_round_trip () =
  (* Exercise the bundled file format through the library API the CLI uses. *)
  let doc = Datagen.Xmark.generate ~seed:37 ~items:20 () in
  let syn = Core.Synopsis.build doc in
  let reloaded = Core.Synopsis.of_string (Core.Synopsis.to_string syn) in
  let p = Nok.Storage.of_string doc in
  List.iter
    (fun q ->
      let expected = Core.Synopsis.estimate syn q in
      Alcotest.(check (float 1e-9)) q expected (Core.Synopsis.estimate reloaded q);
      ignore (Nok.Eval.cardinality p (parse q) : int))
    [ "/site/regions"; "//item[shipping]/location"; "//person//age";
      "/site/open_auctions/open_auction/bidder" ]

(* The bytes [xseed build] writes, pinned as MD5 digests of
   [Synopsis.to_string]: label interning order, kernel, HET and value
   synopsis together. The first two are the benchmark's corpora as its
   set-up builds them. *)
let test_synopsis_bytes_golden () =
  let xmark = Datagen.Xmark.generate ~seed:42 ~items:600 () in
  List.iter
    (fun (name, build, digest) ->
      Alcotest.(check string) name digest
        (Digest.to_hex (Digest.string (Core.Synopsis.to_string (build ())))))
    [ ( "treebank 1500, card threshold 20",
        (fun () ->
          Core.Synopsis.build ~card_threshold:20.0
            (Datagen.Treebank.generate ~seed:42 ~sentences:1500 ())),
        "417cf24950e7d4ab204ab22802b183c3" );
      ( "xmark 600",
        (fun () -> Core.Synopsis.build xmark),
        "11f8683d3886a0fc3b82f1e6e0610a6c" );
      ( "dblp 2000, mbp 2, bsel threshold 0.5",
        (fun () ->
          Core.Synopsis.build ~mbp:2 ~bsel_threshold:0.5
            (Datagen.Dblp.generate ~seed:7 ~records:2000 ())),
        "de7188dfad9006785db0c39e8e8f06c9" );
      ( "xmark 600 with values",
        (fun () -> Core.Synopsis.build ~with_values:true xmark),
        "ed073afd6d2996b532f6616184b1eefd" ) ]

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "xmark" `Quick test_xmark_pipeline;
          Alcotest.test_case "dblp" `Quick test_dblp_pipeline;
          Alcotest.test_case "treebank" `Quick test_treebank_pipeline;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "deterministic" `Quick test_estimation_deterministic;
          Alcotest.test_case "shared EPT" `Quick test_shared_ept_equals_fresh;
          Alcotest.test_case "beats treesketch on recursion" `Quick
            test_xseed_beats_treesketch_on_recursive;
          Alcotest.test_case "synopsis file round trip" `Quick
            test_cli_synopsis_file_round_trip;
          Alcotest.test_case "synopsis bytes golden" `Quick
            test_synopsis_bytes_golden;
        ] );
    ]
