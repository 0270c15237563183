(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the seeded synthetic analogues of its corpora.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- table2       -- one section
     dune exec bench/main.exe -- --quick all  -- reduced scales

   Sections: table2 table3 fig5 fig6 sec64 ablation values feedback
   telemetry parallel json micro.
   Absolute numbers differ from the paper (different hardware, generated
   corpora); the shapes under test are listed in DESIGN.md §7 and the
   measured-vs-paper comparison is recorded in EXPERIMENTS.md. *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let scale q f = if quick then q else f

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let pf fmt = Printf.printf fmt

let header title =
  pf "\n==========================================================\n";
  pf "%s\n" title;
  pf "==========================================================\n"

(* ------------------------------------------------------------------ *)
(* Datasets: seeded analogues of the paper's corpora (substitutions are
   documented in DESIGN.md §2). *)

type dataset = {
  name : string;
  doc : string Lazy.t;
  storage : Nok.Storage.t Lazy.t;
  path_tree : Pathtree.Path_tree.t Lazy.t;
  kernel : Core.Kernel.t Lazy.t;
  table : Xml.Label.table;
  card_threshold : float;  (* paper: 20 for Treebank, small otherwise *)
  bsel_threshold : float;  (* paper: 0.001 for Treebank, 0.1 otherwise *)
  paper_row : string;  (* the corresponding Table 2 row, for reference *)
}

let make_dataset name ~card_threshold ~bsel_threshold ~paper_row gen =
  let table = Xml.Label.create_table () in
  let doc = lazy (gen ()) in
  let storage = lazy (Nok.Storage.of_string ~table (Lazy.force doc)) in
  let path_tree = lazy (Pathtree.Path_tree.of_string ~table (Lazy.force doc)) in
  let kernel = lazy (Core.Builder.of_string ~table (Lazy.force doc)) in
  { name; doc; storage; path_tree; kernel; table; card_threshold;
    bsel_threshold; paper_row }

let dblp =
  make_dataset "DBLP" ~card_threshold:0.5 ~bsel_threshold:0.1
    ~paper_row:"169MB, 4.02M nodes, rl 0/1, kernel 2.8KB"
    (fun () -> Datagen.Dblp.generate ~seed:101 ~records:(scale 1000 8000) ())

let xmark10 =
  make_dataset "XMark10" ~card_threshold:0.5 ~bsel_threshold:0.1
    ~paper_row:"11MB, 168K nodes, rl 0.04/1, kernel 2.7KB"
    (fun () -> Datagen.Xmark.generate ~seed:102 ~items:(scale 60 1200) ())

let xmark100 =
  make_dataset "XMark100" ~card_threshold:0.5 ~bsel_threshold:0.1
    ~paper_row:"116MB, 1.67M nodes, rl 0.04/1, kernel 2.7KB"
    (fun () -> Datagen.Xmark.generate ~seed:102 ~items:(scale 600 12000) ())

let treebank05 =
  make_dataset "Treebank.05" ~card_threshold:20.0 ~bsel_threshold:0.001
    ~paper_row:"3.4MB, 121K nodes, rl 1.3/8, kernel 24.2KB"
    (fun () -> Datagen.Treebank.generate ~seed:103 ~sentences:(scale 250 1200) ())

let treebank =
  make_dataset "Treebank" ~card_threshold:20.0 ~bsel_threshold:0.001
    ~paper_row:"86MB, 2.44M nodes, rl 1.3/10, kernel 72.7KB"
    (fun () -> Datagen.Treebank.generate ~seed:103 ~sentences:(scale 2500 24000) ())

let table3_datasets = [ dblp; xmark10; xmark100; treebank05 ]
let all_datasets = table3_datasets @ [ treebank ]

(* ------------------------------------------------------------------ *)
(* Workloads (paper §6.1): all SP queries + random BP and CP queries. *)

let workload_count = scale 80 300

let sp_queries ds = Datagen.Workload.all_simple_paths (Lazy.force ds.path_tree)

let bp_queries ?(mbp = 1) ?(count = workload_count) ds =
  let rng = Datagen.Rng.create ~seed:7001 in
  Datagen.Workload.branching (Lazy.force ds.path_tree) ~rng ~count ~mbp ()

let cp_queries ?(mbp = 1) ?(count = workload_count) ds =
  let rng = Datagen.Rng.create ~seed:7002 in
  Datagen.Workload.complex (Lazy.force ds.path_tree) ~rng ~count ~mbp ()

let combined ds = sp_queries ds @ bp_queries ds @ cp_queries ds

(* Ground-truth cache: NoK evaluation per (dataset, query). *)
let actual_cache : (string * string, float) Hashtbl.t = Hashtbl.create 4096

let actual ds q =
  let key = (ds.name, Xpath.Ast.to_string q) in
  match Hashtbl.find_opt actual_cache key with
  | Some a -> a
  | None ->
    let a = float_of_int (Nok.Eval.cardinality (Lazy.force ds.storage) q) in
    Hashtbl.add actual_cache key a;
    a

(* HET cache: 1BP HETs are reused across sections. *)
let het_cache : (string, Core.Het.t * Core.Het_builder.stats * float) Hashtbl.t =
  Hashtbl.create 8

let het_1bp ds =
  match Hashtbl.find_opt het_cache ds.name with
  | Some entry -> entry
  | None ->
    (* Its inputs are built first, so the time is the HET build alone. *)
    let kernel = Lazy.force ds.kernel and path_tree = Lazy.force ds.path_tree in
    let storage = Lazy.force ds.storage in
    let (het, stats), seconds =
      time (fun () ->
          Core.Het_builder.build ~mbp:1 ~bsel_threshold:ds.bsel_threshold
            ~card_threshold:ds.card_threshold ~kernel ~path_tree ~storage ())
    in
    Hashtbl.add het_cache ds.name (het, stats, seconds);
    (het, stats, seconds)

let summarize_pairs ds estimator_fn queries =
  Stats.Metrics.summarize
    (List.map (fun q -> (estimator_fn q, actual ds q)) queries)

let xseed_estimator ?budget ds =
  let kernel = Lazy.force ds.kernel in
  match budget with
  | None -> Core.Estimator.create ~card_threshold:ds.card_threshold kernel
  | Some bytes ->
    let het, _, _ = het_1bp ds in
    Core.Het.set_budget het
      ~bytes:(max 0 (bytes - Core.Kernel.size_in_bytes kernel));
    Core.Estimator.create ~card_threshold:ds.card_threshold ~het kernel

(* ------------------------------------------------------------------ *)
(* Table 2: data characteristics, kernel size, construction times. *)

let table2 () =
  header "Table 2: data sets, XSEED kernel size, construction times";
  pf "(paper rows are quoted per dataset for shape comparison)\n\n";
  pf "%-12s %10s %9s %11s %9s | %9s %9s %12s | %14s\n" "dataset" "bytes"
    "nodes" "avg/max rl" "paths" "kernel B" "kern (s)" "1BP HET (ms)"
    "TreeSketch (s)";
  List.iter
    (fun ds ->
      let doc = Lazy.force ds.doc in
      let stats = Xml.Doc_stats.of_string doc in
      let kernel, kernel_seconds =
        time (fun () -> Core.Builder.of_string (Lazy.force ds.doc))
      in
      ignore (Lazy.force ds.kernel);
      let _, _, het_seconds = het_1bp ds in
      let ts_cell =
        (* TreeSketch at the 50KB budget; the work cutoff reproduces DNF. *)
        let max_work = scale 20_000_000 200_000_000 in
        let (sketch, ts_stats), seconds =
          time (fun () ->
              Treesketch.Sketch.build ~budget_bytes:51_200 ~max_work
                (Lazy.force ds.storage))
        in
        ignore (sketch : Treesketch.Sketch.t);
        if ts_stats.completed then Printf.sprintf "%14.2f" seconds
        else Printf.sprintf "%11.0f DNF" seconds
      in
      pf "%-12s %10d %9d %6.2f/%-4d %9d | %9d %9.3f %12.1f | %s\n" ds.name
        stats.total_bytes stats.node_count stats.avg_recursion_level
        stats.max_recursion_level
        (Pathtree.Path_tree.size (Lazy.force ds.path_tree))
        (Core.Kernel.size_in_bytes kernel)
        kernel_seconds (1000.0 *. het_seconds) ts_cell;
      pf "%-12s   paper: %s\n" "" ds.paper_row)
    all_datasets;
  pf "\nShape under test: kernel construction is a single parse (negligible);\n";
  pf "HET construction counts every branching pattern in one storage scan, so\n";
  pf "it costs at most about as much as that parse here (the paper's HET\n";
  pf "minutes come from one NoK evaluation per pattern); TreeSketch\n";
  pf "construction is orders of magnitude slower still (our bounded greedy\n";
  pf "finishes at these corpus sizes; the paper's exhaustive greedy DNFs on\n";
  pf "Treebank, and the work cutoff reproduces that at larger scales).\n"

(* ------------------------------------------------------------------ *)
(* Table 3: accuracy under 25KB / 50KB budgets vs TreeSketch. *)

let paper_table3 =
  [ ("DBLP",
     "kernel 1960.5/15.4% | 25K: xs 103/0.81% ts 221.5/1.67% | 50K: xs 103/0.81% ts 203.1/1.59%");
    ("XMark10",
     "kernel 39.6/15.1% | 25K: xs 3.7/1.43% ts 62.7/23.7% | 50K: xs 3.7/1.43% ts 58.4/22.1%");
    ("XMark100",
     "kernel 276.2/5.06% | 25K: xs 256.3/4.71% ts 638.2/11.7% | 50K: xs 256.3/4.71% ts 635.5/11.65%");
    ("Treebank.05",
     "kernel 22.7/169% | 25K: xs 22.7/169% ts 229.6/877% | 50K: xs 12.8/95.6% ts 227.1/867%") ]

let table3 () =
  header "Table 3: RMSE / NRMSE under memory budgets (XSEED vs TreeSketch)";
  pf "workload per dataset: all SP + %d BP + %d CP\n\n" workload_count
    workload_count;
  pf "%-12s %-24s %10s %10s\n" "dataset" "program" "RMSE" "NRMSE";
  List.iter
    (fun ds ->
      let queries = combined ds in
      let report label fn =
        let s = summarize_pairs ds fn queries in
        pf "%-12s %-24s %10.2f %9.2f%%\n" ds.name label s.rmse (100.0 *. s.nrmse)
      in
      let kernel_only = xseed_estimator ds in
      report "XSEED kernel" (fun q -> Core.Estimator.estimate kernel_only q);
      List.iter
        (fun budget ->
          let est = xseed_estimator ~budget ds in
          report
            (Printf.sprintf "XSEED %dKB" (budget / 1024))
            (fun q -> Core.Estimator.estimate est q);
          let sketch, ts_stats =
            Treesketch.Sketch.build ~budget_bytes:budget
              ~max_work:(scale 20_000_000 200_000_000)
              (Lazy.force ds.storage)
          in
          let suffix = if ts_stats.completed then "" else " (cutoff)" in
          report
            (Printf.sprintf "TreeSketch %dKB%s" (budget / 1024) suffix)
            (fun q ->
              Treesketch.Sketch.estimate ~card_threshold:ds.card_threshold
                ~max_depth:(if ds.card_threshold > 1.0 then 24 else 40)
                sketch q))
        [ 25 * 1024; 50 * 1024 ];
      (match List.assoc_opt ds.name paper_table3 with
       | Some row -> pf "%-12s   paper: %s\n" "" row
       | None -> ());
      pf "\n")
    table3_datasets;
  pf "Shapes under test: (1) on recursive data XSEED beats TreeSketch by a\n";
  pf "large factor even kernel-only; (2) on non-recursive data the bare\n";
  pf "kernel loses to TreeSketch but kernel+HET wins; (3) a bigger budget\n";
  pf "never hurts XSEED.\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: estimation errors per query type on DBLP. *)

let fig5 () =
  header "Figure 5: estimation errors by query type on DBLP";
  let ds = dblp in
  let kernel_only = xseed_estimator ds in
  let with_het = xseed_estimator ~budget:(25 * 1024) ds in
  let sketch, _ =
    Treesketch.Sketch.build ~budget_bytes:(25 * 1024)
      ~max_work:(scale 20_000_000 200_000_000)
      (Lazy.force ds.storage)
  in
  pf "%-6s %-14s %10s %10s\n" "type" "program" "RMSE" "NRMSE";
  List.iter
    (fun (kind, queries) ->
      let report label fn =
        let s = summarize_pairs ds fn queries in
        pf "%-6s %-14s %10.2f %9.2f%%\n" kind label s.rmse (100.0 *. s.nrmse)
      in
      report "kernel" (fun q -> Core.Estimator.estimate kernel_only q);
      report "XSEED" (fun q -> Core.Estimator.estimate with_het q);
      report "TreeSketch" (fun q -> Treesketch.Sketch.estimate sketch q);
      pf "\n")
    [ ("SP", sp_queries ds); ("BP", bp_queries ds); ("CP", cp_queries ds) ];
  (* The specific anomaly the paper calls out. *)
  let anomaly = Xpath.Parser.parse "/dblp/article[pages]/publisher" in
  pf "the paper's anomaly query /dblp/article[pages]/publisher:\n";
  pf "  actual %.0f | kernel %.1f | XSEED+HET %.1f\n" (actual ds anomaly)
    (Core.Estimator.estimate kernel_only anomaly)
    (Core.Estimator.estimate with_het anomaly);
  pf "  (bsel(pages)=0.8 > BSEL_THRESHOLD=0.1 so the correlated hyper-edge\n";
  pf "   is omitted - the one case where TreeSketch wins in the paper)\n";
  pf "\nShape under test: BP on DBLP is XSEED's weak spot (sibling\n";
  pf "correlations above BSEL_THRESHOLD); SP and CP favour XSEED.\n"

(* ------------------------------------------------------------------ *)
(* Figure 6: MBP settings on DBLP - HET construction time vs error. *)

let fig6 () =
  header "Figure 6: max-branching-predicate settings on DBLP (2BP workload)";
  let ds = dblp in
  let queries = bp_queries ~mbp:2 ~count:workload_count ds in
  let kernel = Lazy.force ds.kernel in
  pf "%-14s %12s %10s %10s %14s\n" "HET setting" "build (ms)" "RMSE" "NRMSE"
    "HET entries";
  let report label het seconds =
    let est =
      Core.Estimator.create ~card_threshold:ds.card_threshold ?het kernel
    in
    let s = summarize_pairs ds (fun q -> Core.Estimator.estimate est q) queries in
    pf "%-14s %12.1f %10.2f %9.2f%% %14s\n" label (1000.0 *. seconds) s.rmse
      (100.0 *. s.nrmse)
      (match het with
       | None -> "-"
       | Some h -> string_of_int (Core.Het.total_count h))
  in
  report "0BP (kernel)" None 0.0;
  List.iter
    (fun mbp ->
      let (het, _stats), seconds =
        time (fun () ->
            Core.Het_builder.build ~mbp ~bsel_threshold:ds.bsel_threshold
              ~card_threshold:ds.card_threshold ~kernel
              ~path_tree:(Lazy.force ds.path_tree)
              ~storage:(Lazy.force ds.storage) ())
      in
      report (Printf.sprintf "%dBP" mbp) (Some het) seconds)
    [ 1; 2 ];
  pf "\npaper: error falls 66%% from 0BP to 1BP but only 8%% more from 1BP to\n";
  pf "2BP, while 2BP construction costs ~10x 1BP.\n"

(* ------------------------------------------------------------------ *)
(* Section 6.4: estimation time vs actual query time; EPT size. *)

let sec64 () =
  header "Section 6.4: estimation efficiency";
  let sample_size = scale 20 40 in
  pf "%-12s %12s %12s %9s | %10s %10s %9s\n" "dataset" "est (ms)" "query (ms)"
    "ratio" "EPT nodes" "doc nodes" "EPT/doc";
  List.iter
    (fun ds ->
      let kernel = Lazy.force ds.kernel in
      let storage = Lazy.force ds.storage in
      let queries =
        let all = Array.of_list (combined ds) in
        let rng = Datagen.Rng.create ~seed:9009 in
        Datagen.Rng.shuffle rng all;
        Array.to_list (Array.sub all 0 (min sample_size (Array.length all)))
      in
      let estimator =
        Core.Estimator.create ~card_threshold:ds.card_threshold kernel
      in
      let (), est_seconds =
        time (fun () ->
            List.iter
              (fun q -> ignore (Core.Estimator.estimate estimator q : float))
              queries)
      in
      let (), query_seconds =
        time (fun () ->
            List.iter (fun q -> ignore (Nok.Eval.cardinality storage q : int)) queries)
      in
      let n = float_of_int (List.length queries) in
      let ept =
        Core.Matcher.materialize
          (Core.Traveler.create ~card_threshold:ds.card_threshold kernel)
      in
      let doc_nodes = Nok.Storage.node_count storage in
      pf "%-12s %12.3f %12.3f %8.2f%% | %10d %10d %8.3f%%\n" ds.name
        (1000.0 *. est_seconds /. n)
        (1000.0 *. query_seconds /. n)
        (100.0 *. est_seconds /. query_seconds)
        (Core.Matcher.node_count ept)
        doc_nodes
        (100.0
        *. float_of_int (Core.Matcher.node_count ept)
        /. float_of_int doc_nodes);
      pf "%-12s   (CARD_THRESHOLD = %g)\n" "" ds.card_threshold)
    all_datasets;
  pf "\npaper ratios: DBLP 0.018%%, XMark10 0.57%%, XMark100 0.0916%%,\n";
  pf "Treebank.05 2%%, Treebank 1.5%%; EPT/doc: 0.0035%% / 0.036%% / 0.05%% /\n";
  pf "6.9%% / 5.5%%. Shape under test: estimation is a small fraction of\n";
  pf "actual querying; the threshold keeps the EPT small on recursive data.\n"

(* ------------------------------------------------------------------ *)
(* Ablations: what each design choice called out in DESIGN.md buys. *)

let ablation () =
  header "Ablations (design choices from DESIGN.md)";

  (* A. Recursion-level vectors (the paper's key novelty): XSEED vs a
     recursion-blind variant (collapsed kernel + level-0 traveler). *)
  pf "A. recursion-aware kernel vs collapsed (Treebank.05, recursive queries)\n";
  let ds = treebank05 in
  let kernel = Lazy.force ds.kernel in
  let flat = Core.Kernel.collapse_levels kernel in
  let aware = Core.Estimator.create ~card_threshold:2.0 kernel in
  let blind =
    Core.Estimator.create ~card_threshold:2.0 ~recursion_aware:false flat
  in
  let recursive_queries =
    List.filter_map
      (fun q -> match Xpath.Parser.parse q with p -> Some p | exception _ -> None)
      [ "//S//S"; "//NP//NP"; "//VP//VP"; "//S//S//S"; "//NP//NP//NP";
        "//SBAR//S"; "//S//VP"; "//NP//PP//NP" ]
  in
  pf "%-16s %10s %12s %14s\n" "query" "actual" "recursion-on" "recursion-off";
  List.iter
    (fun q ->
      pf "%-16s %10.0f %12.1f %14.1f\n"
        (Xpath.Ast.to_string q)
        (actual ds q)
        (Core.Estimator.estimate aware q)
        (Core.Estimator.estimate blind q))
    recursive_queries;
  let rec_s =
    Stats.Metrics.summarize
      (List.map (fun q -> (Core.Estimator.estimate aware q, actual ds q)) recursive_queries)
  in
  let blind_s =
    Stats.Metrics.summarize
      (List.map (fun q -> (Core.Estimator.estimate blind q, actual ds q)) recursive_queries)
  in
  pf "RMSE: recursion-aware %.1f vs blind %.1f (%.1fx)\n" rec_s.rmse blind_s.rmse
    (blind_s.rmse /. Float.max 1e-9 rec_s.rmse);
  pf "kernel bytes: with levels %d, collapsed %d\n\n"
    (Core.Kernel.size_in_bytes kernel)
    (Core.Kernel.size_in_bytes flat);

  (* B. Zero-cardinality HET entries for kernel false positives. *)
  pf "B. HET zero-entries for kernel false-positive paths (Treebank.05, SP)\n";
  let fp_threshold = 2.0 in
  let het_with, _ =
    Core.Het_builder.build ~bsel_threshold:ds.bsel_threshold
      ~card_threshold:fp_threshold ~kernel ~path_tree:(Lazy.force ds.path_tree) ()
  in
  let het_without, _ =
    Core.Het_builder.build ~zero_entries:false ~bsel_threshold:ds.bsel_threshold
      ~card_threshold:fp_threshold ~kernel ~path_tree:(Lazy.force ds.path_tree) ()
  in
  (* Zero entries matter for paths derivable from the kernel but absent from
     the data (Observation 1's false positives): walk the EPT and keep the
     label paths the path tree does not contain. *)
  let fp_queries =
    let pt = Lazy.force ds.path_tree in
    let traveler = Core.Traveler.create ~card_threshold:fp_threshold kernel in
    let acc = ref [] in
    let path = ref [] in
    Core.Traveler.iter traveler ~f:(fun event ->
        match event with
        | Core.Traveler.Open { label; _ } ->
          path := label :: !path;
          let labels = List.rev !path in
          if Pathtree.Path_tree.find_path pt labels = None then
            acc :=
              List.map
                (fun l ->
                  { Xpath.Ast.axis = Xpath.Ast.Child;
                    test = Xpath.Ast.Name (Xml.Label.name ds.table l);
                    predicates = []; value_predicates = [] })
                labels
              :: !acc
        | Core.Traveler.Close _ ->
          (match !path with [] -> () | _ :: rest -> path := rest)
        | Core.Traveler.Eos -> ());
    List.filteri (fun i _ -> i mod 3 = 0) (List.rev !acc)
  in
  let err het =
    let est = Core.Estimator.create ~card_threshold:fp_threshold ~het kernel in
    let ept = Core.Estimator.ept est in
    Stats.Metrics.summarize
      (List.map (fun q -> (Core.Estimator.estimate_on est ept q, 0.0)) fp_queries)
  in
  if fp_queries = [] then pf "no false-positive paths at this scale\n\n"
  else
    pf "%d false-positive (empty-result) paths: RMSE with zero-entries %.2f, without %.2f\n\n"
      (List.length fp_queries) (err het_with).rmse (err het_without).rmse;

  (* C. The Markov-table related-work baseline: accuracy where it applies,
     and how much of the workload it cannot answer at all. *)
  pf "C. Markov-table baseline (related work [1]) on DBLP\n";
  let ds = dblp in
  let storage = Lazy.force ds.storage in
  let queries = combined ds in
  let mt2 = Markov.Markov_table.build ~order:2 storage in
  let mt3 = Markov.Markov_table.build ~order:3 storage in
  let xseed = xseed_estimator ~budget:(25 * 1024) ds in
  let xseed_ept = Core.Estimator.ept xseed in
  let report label estimate size =
    let supported = ref 0 in
    let pairs =
      List.filter_map
        (fun q ->
          match estimate q with
          | Some e ->
            incr supported;
            Some (e, actual ds q)
          | None -> None)
        queries
    in
    let s = Stats.Metrics.summarize pairs in
    pf "%-14s %10.2f %9.2f%% %10d B %9d/%d queries answered\n" label s.rmse
      (100.0 *. s.nrmse) size !supported (List.length queries)
  in
  pf "%-14s %10s %10s %12s %s\n" "program" "RMSE" "NRMSE" "size" "coverage";
  report "Markov k=2" (fun q -> Markov.Markov_table.estimate mt2 q)
    (Markov.Markov_table.size_in_bytes mt2);
  report "Markov k=3" (fun q -> Markov.Markov_table.estimate mt3 q)
    (Markov.Markov_table.size_in_bytes mt3);
  report "XSEED 25KB"
    (fun q -> Some (Core.Estimator.estimate_on xseed xseed_ept q))
    (Core.Estimator.size_in_bytes xseed);
  pf "\n(RMSE compared only over each program's supported queries; the\n";
  pf "Markov baseline cannot answer branching or wildcard queries at all -\n";
  pf "the coverage gap the paper's related-work section points out.)\n"

(* ------------------------------------------------------------------ *)
(* Value predicates (the paper's future-work layer): histogram-based
   selectivities vs ignoring the predicates. *)

let values () =
  header "Value predicates (future-work extension, Section 1)";
  List.iter
    (fun (name, doc) ->
      let st = Nok.Storage.of_string ~with_values:true doc in
      let pt = Pathtree.Path_tree.of_string ~table:st.Nok.Storage.table doc in
      let kernel = Core.Builder.of_string ~table:st.Nok.Storage.table doc in
      let vs = Core.Value_synopsis.build st in
      let rng = Datagen.Rng.create ~seed:4242 in
      let queries =
        Datagen.Workload.valued pt ~storage:st ~rng ~count:workload_count ()
      in
      let run estimator =
        Stats.Metrics.summarize
          (List.map
             (fun q ->
               ( Core.Estimator.estimate estimator q,
                 float_of_int (Nok.Eval.cardinality st q) ))
             queries)
      in
      let with_vs = run (Core.Estimator.create ~values:vs kernel) in
      let without = run (Core.Estimator.create kernel) in
      pf "%-10s %4d valued queries | with synopsis RMSE %8.2f NRMSE %7.2f%% | ignored RMSE %8.2f NRMSE %7.2f%% | synopsis %d B\n"
        name (List.length queries) with_vs.rmse (100.0 *. with_vs.nrmse)
        without.rmse (100.0 *. without.nrmse)
        (Core.Value_synopsis.size_in_bytes vs))
    [ ("DBLP", Datagen.Dblp.generate ~seed:501 ~records:(scale 500 3000) ());
      ("XMark", Datagen.Xmark.generate ~seed:502 ~items:(scale 50 400) ()) ];
  pf "\nShape under test: per-path equi-depth histograms and end-biased\n";
  pf "frequent-value tables turn value predicates from ignored (factor 1)\n";
  pf "into calibrated selectivities, as the value-synopsis line of work the\n";
  pf "paper cites anticipates.\n"

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* Parallel serving: pool batch throughput vs worker-domain count. Each
   measured pass invalidates the shard caches first, so every query
   exercises the matcher — the parallelizable work — rather than its
   shard's LRU. *)

let pool_worker_counts = [ 1; 2; 4 ]

(* Detected once; both the interactive gate and the JSON dumps key their
   ≥ 2.5x@4 enforcement off this single reading. *)
let host_cores = Domain.recommended_domain_count ()

(* Batch throughput in queries/s. *)
let pool_throughput ?(passes = 3) estimator queries ~workers =
  let pool = Engine.Pool.create ~workers ~telemetry:false estimator in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* Warm-up pass: materializes the shared EPT outside the timed region. *)
  ignore
    (Engine.Pool.estimate_batch pool queries
      : (Engine.Serve.estimate_reply, Core.Error.t) result list);
  let served = ref 0 in
  let (), seconds =
    time (fun () ->
        for _ = 1 to passes do
          Engine.Pool.invalidate pool;
          let rs = Engine.Pool.estimate_batch pool queries in
          served := !served + List.length rs
        done)
  in
  float_of_int !served /. seconds

let pool_mismatches estimator queries =
  let engine = Engine.Pool.create ~workers:1 ~telemetry:false estimator in
  let pool = Engine.Pool.create ~workers:4 ~telemetry:false estimator in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  List.fold_left
    (fun acc q ->
      let ev =
        match Engine.Pool.estimate engine q with
        | Ok r -> r.Engine.Serve.value
        | Error _ -> nan
      and pv =
        match Engine.Pool.estimate pool q with
        | Ok r -> r.Engine.Serve.value
        | Error _ -> neg_infinity
      in
      if Int64.bits_of_float ev = Int64.bits_of_float pv then acc else acc + 1)
    0 queries

let parallel () =
  header "Parallel serving: pool batch throughput at 1/2/4 domains (XMark)";
  let ds = xmark10 in
  let estimator = xseed_estimator ~budget:(25 * 1024) ds in
  let queries = List.map Xpath.Ast.to_string (combined ds) in
  pf "workload: %d queries/pass, cold shard caches each timed pass\n"
    (List.length queries);
  pf "host: %d recommended domain(s)\n\n" host_cores;
  let mismatches = pool_mismatches estimator queries in
  pf "4-domain pool vs inline pool: %d/%d mismatched estimates%s\n" mismatches
    (List.length queries)
    (if mismatches = 0 then " (bit-identical)" else "  <- BUG");
  assert (mismatches = 0);
  let passes = scale 2 4 in
  let results =
    List.map
      (fun w ->
        (w, pool_throughput ~passes estimator queries ~workers:w))
      pool_worker_counts
  in
  let qps1 = List.assoc 1 results in
  pf "\n%8s %12s %9s\n" "workers" "queries/s" "speedup";
  List.iter
    (fun (w, qps) -> pf "%8d %12.0f %8.2fx\n" w qps (qps /. qps1))
    results;
  let speedup4 = List.assoc 4 results /. qps1 in
  if host_cores >= 4 then begin
    pf "\n4-domain speedup %.2fx (gate: >= 2.5x on this %d-core host)\n"
      speedup4 host_cores;
    if speedup4 < 2.5 then begin
      Printf.eprintf
        "parallel: 4-domain speedup %.2fx < 2.5x gate on a %d-core host\n"
        speedup4 host_cores;
      exit 1
    end
  end
  else
    pf
      "\n4-domain speedup %.2fx; host has only %d recommended domain(s), \
       >= 2.5x gate skipped\n"
      speedup4 host_cores

(* The one overhead gate (telemetry, audit tap, tracing): the median
   estimate latency of [on] must stay within 5% of [off]'s. A warm-up pass
   (first allocations) is followed by [passes] timed ones, each over a
   cold cache on both engines, so every timed estimate is a real pipeline
   run. Each query is timed on both engines back to back on the monotonic
   clock, the engine that goes first alternating per query and pass, so
   clock drift, GC pressure and cache state hit both sides alike. Exits 1
   past the bound, naming the gate [what]. *)
let overhead_gate ~what ~off_label ~on_label ~passes ~off ~on queries =
  let time pool q =
    let t0 = Obs.now_mono () in
    (match Engine.Pool.estimate pool q with
     | Ok _ -> ()
     | Error e -> raise (Core.Error.Xseed e));
    Obs.now_mono () -. t0
  in
  let lat_off = ref [] and lat_on = ref [] in
  for pass = 0 to passes do
    Engine.Pool.invalidate off;
    Engine.Pool.invalidate on;
    List.iteri
      (fun i q ->
        let d_off, d_on =
          if (pass + i) mod 2 = 0 then
            let d_off = time off q in
            (d_off, time on q)
          else
            let d_on = time on q in
            (time off q, d_on)
        in
        if pass > 0 then begin
          lat_off := d_off :: !lat_off;
          lat_on := d_on :: !lat_on
        end)
      queries
  done;
  let median samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  let m_on = median !lat_on and m_off = median !lat_off in
  let overhead = (m_on -. m_off) /. m_off in
  pf "%d queries x %d passes (cache invalidated per pass; XMark; each query \
      timed on both engines back to back)\n\n"
    (List.length queries) passes;
  pf "%-24s %14s\n" "mode" "median/query";
  pf "%-24s %11.1f us\n" off_label (1e6 *. m_off);
  pf "%-24s %11.1f us\n" on_label (1e6 *. m_on);
  pf "%-24s %+13.2f%%\n" "overhead" (100.0 *. overhead);
  if overhead >= 0.05 then begin
    Printf.eprintf
      "%s median overhead %.2f%% >= 5%% budget (on %.1f us, off %.1f us)\n"
      what (100.0 *. overhead) (1e6 *. m_on) (1e6 *. m_off);
    exit 1
  end;
  pf "within the 5%% budget\n"

(* ------------------------------------------------------------------ *)
(* Causal profile: the serving path's per-stage breakdown (queue-wait /
   execute / reassemble percentiles from Pool.profile's per-job monotonic
   stamps) at 1 and 4 domains, and the tracing-overhead gate — recording
   trace events on the estimate path must cost < 5% median latency vs. an
   untraced engine ([overhead_gate]). *)

let profile_worker_counts = [ 1; 4 ]

let pool_profile estimator queries ~workers =
  let pool = Engine.Pool.create ~workers ~telemetry:false estimator in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  (* Warm-up pass materializes the shared EPT; the profiled pass then runs
     cold-cache so execute times are real pipeline runs. *)
  ignore
    (Engine.Pool.estimate_batch pool queries
      : (Engine.Serve.estimate_reply, Core.Error.t) result list);
  Engine.Pool.invalidate pool;
  match Engine.Pool.profile pool queries with
  | Ok p -> p
  | Error e -> raise (Core.Error.Xseed e)

let stage_json (s : Engine.Serve.stage_percentiles) =
  Obs.Json.Obj
    [ ("p50", Obs.Json.Float s.p50);
      ("p90", Obs.Json.Float s.p90);
      ("p99", Obs.Json.Float s.p99) ]

let profile_reply_json (p : Engine.Serve.profile_reply) =
  Obs.Json.Obj
    [ ("profiled", Obs.Json.Int p.profiled);
      ("queue_wait_us", stage_json p.queue_wait_us);
      ("execute_us", stage_json p.execute_us);
      ("reassemble_us", stage_json p.reassemble_us) ]

let profile_section () =
  header "Causal profile: stage breakdown + tracing overhead (XMark)";
  let ds = xmark10 in
  let estimator = xseed_estimator ~budget:(25 * 1024) ds in
  let queries = List.map Xpath.Ast.to_string (combined ds) in
  pf "workload: %d queries, cold shard caches, per-stage percentiles in us\n\n"
    (List.length queries);
  pf "%8s %9s %29s %29s %29s\n" "workers" "profiled" "queue-wait (us)"
    "execute (us)" "reassemble (us)";
  let stage_cells (s : Engine.Serve.stage_percentiles) =
    Printf.sprintf "p50 %7.1f p90 %7.1f p99 %7.1f" s.p50 s.p90 s.p99
  in
  List.iter
    (fun w ->
      let p = pool_profile estimator queries ~workers:w in
      assert (p.Engine.Serve.profiled = List.length queries);
      pf "%8d %9d %29s %29s %29s\n" w p.Engine.Serve.profiled
        (stage_cells p.Engine.Serve.queue_wait_us)
        (stage_cells p.Engine.Serve.execute_us)
        (stage_cells p.Engine.Serve.reassemble_us))
    profile_worker_counts;
  let engine_with ~trace =
    Engine.Pool.create ~workers:1 ~telemetry:false ~cache_capacity:4096 ?trace
      (Core.Estimator.create ~card_threshold:ds.card_threshold
         (Lazy.force ds.kernel))
  in
  pf "\ntracing overhead:\n";
  overhead_gate ~what:"profile: tracing" ~off_label:"tracing off"
    ~on_label:"tracing on" ~passes:(scale 10 16)
    ~off:(engine_with ~trace:None)
    ~on:(engine_with ~trace:(Some (Obs.Trace.create ())))
    (List.map Xpath.Ast.to_string (bp_queries ds @ cp_queries ds))

(* Machine-readable dumps: per-dataset BENCH_<name>.json with exact
   per-query estimation-latency percentiles and the accuracy summary.
   These are the files CI or a tracking dashboard would diff across
   commits; the schema is documented in README "Observability". *)

let exact_percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let bench_json () =
  header "JSON dumps: latency percentiles + accuracy (BENCH_*.json)";
  let gate_failures = ref [] in
  List.iter
    (fun (file_key, ds) ->
      let estimator = xseed_estimator ~budget:(25 * 1024) ds in
      let queries = combined ds in
      let latencies = ref [] in
      let pairs =
        List.map
          (fun q ->
            let t0 = Unix.gettimeofday () in
            let est = Core.Estimator.estimate estimator q in
            latencies := (Unix.gettimeofday () -. t0) :: !latencies;
            (est, actual ds q))
          queries
      in
      let s = Stats.Metrics.summarize pairs in
      let sorted = Array.of_list !latencies in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let us x = 1e6 *. x in
      let mean_us = us (Array.fold_left ( +. ) 0.0 sorted /. float_of_int n) in
      let json =
        Obs.Json.Obj
          [ ("dataset", Obs.Json.String ds.name);
            ( "host",
              Obs.Json.Obj
                [ ("cores", Obs.Json.Int host_cores);
                  ( "hostname_hash",
                    Obs.Json.String
                      (Printf.sprintf "%08x"
                         (Hashtbl.hash (Unix.gethostname ()) land 0xffffffff))
                  ) ] );
            ("queries", Obs.Json.Int n);
            ("card_threshold", Obs.Json.Float ds.card_threshold);
            ("synopsis_bytes", Obs.Json.Int (Core.Estimator.size_in_bytes estimator));
            ( "latency_us",
              Obs.Json.Obj
                [ ("mean", Obs.Json.Float mean_us);
                  ("p50", Obs.Json.Float (us (exact_percentile sorted 0.50)));
                  ("p90", Obs.Json.Float (us (exact_percentile sorted 0.90)));
                  ("p99", Obs.Json.Float (us (exact_percentile sorted 0.99)));
                  ("max", Obs.Json.Float (us sorted.(n - 1))) ] );
            ( "accuracy",
              Obs.Json.Obj
                [ ("rmse", Obs.Json.Float s.rmse);
                  ("nrmse", Obs.Json.Float s.nrmse);
                  ("r_squared", Obs.Json.Float s.r_squared);
                  ("opd", Obs.Json.Float s.opd);
                  ("q_error_median", Obs.Json.Float s.q_error_median);
                  ("q_error_p90", Obs.Json.Float s.q_error_p90);
                  ("q_error_max", Obs.Json.Float s.q_error_max) ] );
            ( "parallel",
              let qstrings = List.map Xpath.Ast.to_string queries in
              let pqps =
                List.map
                  (fun w ->
                    ( w,
                      pool_throughput ~passes:(scale 1 2) estimator qstrings
                        ~workers:w ))
                  pool_worker_counts
              in
              let speedup = List.assoc 4 pqps /. List.assoc 1 pqps in
              (* The ≥ 2.5x@4 gate is host-count-conditional: enforced (and
                 recorded as passed/failed) wherever 4 domains fit real
                 cores, recorded as skipped everywhere else so CI can
                 assert the gate actually ran on its 4-core runners. *)
              let gate =
                if host_cores < 4 then "skipped"
                else if speedup >= 2.5 then "passed"
                else begin
                  gate_failures :=
                    Printf.sprintf "%s (%.2fx)" ds.name speedup
                    :: !gate_failures;
                  "failed"
                end
              in
              Obs.Json.Obj
                (List.map
                   (fun (w, qps) ->
                     (Printf.sprintf "workers_%d" w, Obs.Json.Float qps))
                   pqps
                @ [ ("speedup_4v1", Obs.Json.Float speedup);
                    ("gate", Obs.Json.String gate) ]) );
            ( "profile",
              let qstrings = List.map Xpath.Ast.to_string queries in
              Obs.Json.Obj
                (List.map
                   (fun w ->
                     ( Printf.sprintf "workers_%d" w,
                       profile_reply_json
                         (pool_profile estimator qstrings ~workers:w) ))
                   profile_worker_counts) ) ]
      in
      let path = Printf.sprintf "BENCH_%s.json" file_key in
      let oc = open_out path in
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n';
      close_out oc;
      pf "wrote %s: %d queries, mean %.1f us, q50 %.2f q90 %.2f qmax %.3g\n" path
        n mean_us s.q_error_median s.q_error_p90 s.q_error_max)
    [ ("dblp", dblp); ("xmark", xmark10); ("treebank", treebank05) ];
  (* Every dump is written first — a failing dataset still leaves its
     artifact (with "gate":"failed") on disk for attribution — then the
     hard gate fires once for all of them. *)
  if !gate_failures <> [] then begin
    Printf.eprintf
      "bench json: speedup_4v1 < 2.5x on a %d-core host for %s\n" host_cores
      (String.concat ", " (List.rev !gate_failures));
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* The serving engine's query-feedback loop (paper Figure 1) end to end:
   the HET starts empty under a fixed budget and is populated purely from
   execution feedback; per-round q-error over the same workload must
   ratchet down as the table fills. *)

let feedback () =
  header "Feedback refinement: q-error per round (empty HET, fixed budget)";
  let rounds = 3 and budget = 4 * 1024 in
  pf "engine: qerror_threshold 2.0, HET budget %d B, BP+CP workload\n\n" budget;
  pf "%-12s %5s %10s %10s %12s %6s %6s %9s\n" "dataset" "round" "q-median"
    "q-p90" "q-max" "HET" "refine" "cache-hit";
  List.iter
    (fun ds ->
      let het = Core.Het.create () in
      Core.Het.set_budget het ~bytes:budget;
      let estimator =
        Core.Estimator.create ~card_threshold:ds.card_threshold ~het
          (Lazy.force ds.kernel)
      in
      let engine = Engine.Pool.create ~workers:1 ~cache_capacity:4096 estimator in
      let queries = bp_queries ds @ cp_queries ds in
      for round = 1 to rounds do
        let pairs =
          List.map
            (fun q ->
              match Engine.Pool.estimate engine (Xpath.Ast.to_string q) with
              | Ok r -> (r.Engine.Serve.value, actual ds q)
              | Error e -> raise (Core.Error.Xseed e))
            queries
        in
        let s = Stats.Metrics.summarize pairs in
        List.iter
          (fun q ->
            match
              Engine.Pool.feedback engine (Xpath.Ast.to_string q)
                ~actual:(int_of_float (actual ds q))
            with
            | Ok _ -> ()
            | Error e -> raise (Core.Error.Xseed e))
          queries;
        let c = Engine.Pool.cache_counters engine in
        let lookups = c.Engine.Lru_cache.hits + c.Engine.Lru_cache.misses in
        pf "%-12s %5d %10.3f %10.3f %12.4g %6d %6d %8.1f%%\n" ds.name round
          s.q_error_median s.q_error_p90 s.q_error_max
          (Core.Het.active_count het)
          (Engine.Pool.feedback_rounds engine)
          (100.0 *. float_of_int c.Engine.Lru_cache.hits
          /. float_of_int (max 1 lookups))
      done;
      pf "\n")
    [ dblp; xmark10; treebank05 ];
  pf "q-error is measured before each round's feedback, so round 1 is the\n";
  pf "kernel-only baseline and later rounds show what feedback bought.\n"

(* ------------------------------------------------------------------ *)
(* Telemetry-overhead guard: serving with the flight recorder + drift
   monitor on must not cost more than 5% median estimate latency over
   cache misses vs. a telemetry-free engine ([overhead_gate]). *)

let telemetry () =
  header "Telemetry overhead: estimate latency, recorder+drift vs. off";
  let ds = xmark10 in
  let engine_with ~telemetry =
    Engine.Pool.create ~workers:1 ~telemetry ~cache_capacity:4096
      (Core.Estimator.create ~card_threshold:ds.card_threshold
         (Lazy.force ds.kernel))
  in
  let on = engine_with ~telemetry:true in
  overhead_gate ~what:"telemetry:" ~off_label:"telemetry off (Noop)"
    ~on_label:"recorder + drift" ~passes:(scale 10 16)
    ~off:(engine_with ~telemetry:false) ~on
    (List.map Xpath.Ast.to_string (bp_queries ds @ cp_queries ds));
  pf "flight records kept: %d\n" (List.length (Engine.Pool.recent on))

(* ------------------------------------------------------------------ *)
(* Shadow-audit guard (DESIGN.md §15), two halves. Overhead: serving with
   a 1%-rate auditor attached must cost < 5% median estimate latency vs.
   an auditor-free engine (the tap is a hash test plus, on the sampled 1%,
   a bounded push — the audit domain's work happens off the serving
   thread). Agreement: the q-errors the background auditor hands back
   through sample -> audit domain -> drain must equal the offline
   [Auditor.audit_one] arithmetic to float equality, and the two window
   renderings must be byte-identical — the invariant that lets the smoke
   diff a served AUDIT reply against an `xseed audit` report. *)

let audit_bench () =
  header "Shadow audit: tap overhead + served-vs-offline agreement";
  let ds = xmark10 in
  let queries = bp_queries ds @ cp_queries ds in
  let mk_estimator () =
    Core.Estimator.create ~card_threshold:ds.card_threshold
      (Lazy.force ds.kernel)
  in
  let storage = Lazy.force ds.storage in
  (* Overhead: [overhead_gate], as for telemetry. *)
  let auditor =
    Engine.Auditor.create ~rate:0.01
      (Engine.Auditor.Loaded { estimator = mk_estimator (); storage })
  in
  let audited_engine =
    Engine.Pool.create ~workers:1 ~telemetry:false ~cache_capacity:4096
      ~auditor (mk_estimator ())
  in
  let bare_engine =
    Engine.Pool.create ~workers:1 ~telemetry:false ~cache_capacity:4096
      (mk_estimator ())
  in
  overhead_gate ~what:"audit: tap" ~off_label:"auditor off"
    ~on_label:"auditor at 1%" ~passes:(scale 10 16) ~off:bare_engine
    ~on:audited_engine
    (List.map Xpath.Ast.to_string queries);
  ignore (Engine.Auditor.settle auditor : bool);
  Engine.Pool.drain_audits audited_engine;
  Engine.Auditor.shutdown auditor;
  pf "\n";
  (* Agreement: rate 1.0 through the background pipeline vs. synchronous
     offline audits of the same served estimates. *)
  let serve_est = mk_estimator () in
  let ept = lazy (Core.Estimator.ept serve_est) in
  let full =
    Engine.Auditor.create ~rate:1.0
      ~queue_capacity:(List.length queries + 1)
      (Engine.Auditor.Loaded { estimator = mk_estimator (); storage })
  in
  let offline = ref [] in
  List.iter
    (fun q ->
      let ast = Engine.Canonical.canonicalize q in
      let key = Engine.Canonical.of_ast ast in
      let estimate =
        match Core.Estimator.estimate_result_on serve_est ept ast with
        | Ok o -> o.Core.Estimator.value
        | Error e -> raise (Core.Error.Xseed e)
      in
      Engine.Auditor.sample full ~query:key.Engine.Canonical.text
        ~hash:key.Engine.Canonical.hash ~ast ~estimate;
      match
        Engine.Auditor.audit_one ~estimator:serve_est ~ept ~storage ~estimate
          ast
      with
      | Ok a -> offline := a :: !offline
      | Error msg -> failwith ("audit: offline audit failed: " ^ msg))
    queries;
  if not (Engine.Auditor.settle full) then begin
    Printf.eprintf "audit: auditor failed to settle within 5s\n";
    exit 1
  end;
  let audited = ref [] in
  Engine.Auditor.drain full (fun a -> audited := a :: !audited);
  Engine.Auditor.shutdown full;
  let audited = List.rev !audited and offline = List.rev !offline in
  if List.length audited <> List.length offline then begin
    Printf.eprintf "audit: %d background audits vs %d offline\n"
      (List.length audited) (List.length offline);
    exit 1
  end;
  List.iter2
    (fun (a : Engine.Auditor.audited) (b : Engine.Auditor.audited) ->
      if a.Engine.Auditor.qerror <> b.Engine.Auditor.qerror
         || a.Engine.Auditor.actual <> b.Engine.Auditor.actual
      then begin
        Printf.eprintf
          "audit: %s: background (qerror %.17g, actual %d) <> offline \
           (qerror %.17g, actual %d)\n"
          a.Engine.Auditor.query a.Engine.Auditor.qerror
          a.Engine.Auditor.actual b.Engine.Auditor.qerror
          b.Engine.Auditor.actual;
        exit 1
      end)
    audited offline;
  let window l =
    Obs.Json.to_string
      (Engine.Auditor.window_json
         (Array.of_list (List.map (fun a -> a.Engine.Auditor.qerror) l)))
  in
  if window audited <> window offline then begin
    Printf.eprintf "audit: window mismatch: %s vs %s\n" (window audited)
      (window offline);
    exit 1
  end;
  pf "%d audits: background q-errors equal offline to float equality\n"
    (List.length audited);
  pf "window agreement: %s\n" (window audited)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel): per-operation latency. *)

let micro () =
  header "Micro-benchmarks (bechamel)";
  let open Bechamel in
  let doc = Datagen.Xmark.generate ~seed:55 ~items:40 () in
  let kernel = Core.Builder.of_string doc in
  let storage = Nok.Storage.of_string doc in
  let estimator = Core.Estimator.create kernel in
  let sp = Xpath.Parser.parse "/site/open_auctions/open_auction/bidder" in
  let bp = Xpath.Parser.parse "/site/regions/australia/item[shipping]/location" in
  let cp = Xpath.Parser.parse "//item[.//text]//incategory" in
  let tests =
    [ Test.make ~name:"kernel-build"
        (Staged.stage (fun () ->
             ignore (Core.Builder.of_string doc : Core.Kernel.t)));
      Test.make ~name:"estimate-sp"
        (Staged.stage (fun () ->
             ignore (Core.Estimator.estimate estimator sp : float)));
      Test.make ~name:"estimate-bp"
        (Staged.stage (fun () ->
             ignore (Core.Estimator.estimate estimator bp : float)));
      Test.make ~name:"estimate-cp"
        (Staged.stage (fun () ->
             ignore (Core.Estimator.estimate estimator cp : float)));
      Test.make ~name:"nok-eval-sp"
        (Staged.stage (fun () -> ignore (Nok.Eval.cardinality storage sp : int)));
      Test.make ~name:"nok-eval-cp"
        (Staged.stage (fun () -> ignore (Nok.Eval.cardinality storage cp : int)));
      Test.make ~name:"counter-stacks-100-ops"
        (Staged.stage (fun () ->
             let cs = Core.Counter_stacks.create () in
             let order = Array.init 100 (fun i -> i mod 7) in
             Array.iter (fun i -> ignore (Core.Counter_stacks.push cs i : int)) order;
             for i = 99 downto 0 do
               Core.Counter_stacks.pop cs order.(i)
             done)) ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second (scale 0.2 0.5)) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg [ instance ]
      (Test.make_grouped ~name:"xseed" ~fmt:"%s/%s" tests)
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  pf "%-34s %16s\n" "operation" "time/run";
  List.iter
    (fun (name, v) ->
      match Analyze.OLS.estimates v with
      | Some [ ns ] ->
        let pretty =
          if ns > 1e6 then Printf.sprintf "%10.3f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%10.3f us" (ns /. 1e3)
          else Printf.sprintf "%10.0f ns" ns
        in
        pf "%-34s %16s\n" name pretty
      | _ -> pf "%-34s %16s\n" name "n/a")
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

let sections =
  [ ("table2", table2); ("table3", table3); ("fig5", fig5); ("fig6", fig6);
    ("sec64", sec64); ("ablation", ablation); ("values", values);
    ("feedback", feedback); ("telemetry", telemetry); ("audit", audit_bench);
    ("parallel", parallel); ("profile", profile_section);
    ("json", bench_json); ("micro", micro) ]

let () =
  let requested =
    Array.to_list Sys.argv |> List.tl
    |> List.filter (fun a -> a <> "--quick" && a <> "all")
  in
  let to_run =
    match requested with
    | [] -> List.map snd sections
    | names ->
      List.map
        (fun n ->
          match List.assoc_opt n sections with
          | Some f -> f
          | None ->
            Printf.eprintf "unknown section %s (have: %s)\n" n
              (String.concat " " (List.map fst sections));
            exit 2)
        names
  in
  pf "XSEED benchmark harness%s\n" (if quick then " (--quick scales)" else "");
  let (), total = time (fun () -> List.iter (fun f -> f ()) to_run) in
  pf "\ntotal: %.1f s\n" total
