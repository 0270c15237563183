(* Estimation tests: matcher semantics against the paper's Examples 3-5,
   HET construction and effect, budget adaptivity, feedback, and exactness
   properties on random documents. *)

let parse = Xpath.Parser.parse

let paper_kernel = lazy (Core.Builder.of_string Datagen.Paper_example.document)

let kernel_estimate ?card_threshold kernel q =
  let est = Core.Estimator.create ?card_threshold kernel in
  Core.Estimator.estimate est (parse q)

(* ------------------------------------------------------------------ *)
(* Example 3 and friends: simple paths on the paper document. *)

let test_example3 () =
  let k = Lazy.force paper_kernel in
  let check q expected =
    Alcotest.(check (float 1e-9)) q expected (kernel_estimate k q)
  in
  check "/a" 1.0;
  check "/a/c" 2.0;
  check "/a/c/s" 5.0;
  check "/a/c/s/s" 2.0;
  check "/a/c/s/s/t" 1.0;  (* the paper's Example 3 result *)
  check "/a/c/s/s/s" 2.0;
  check "/a/c/s/s/s/p" 3.0;
  check "/a/t" 1.0;
  check "/a/c/p" 3.0;
  check "/a/c/s/p" 9.0

let test_nonexistent_paths () =
  let k = Lazy.force paper_kernel in
  Alcotest.(check (float 1e-9)) "/a/zzz" 0.0 (kernel_estimate k "/a/zzz");
  Alcotest.(check (float 1e-9)) "/zzz" 0.0 (kernel_estimate k "/zzz");
  (* Derivable from the kernel? (a,c,p) exists; (a,p) does not. *)
  Alcotest.(check (float 1e-9)) "/a/p" 0.0 (kernel_estimate k "/a/p");
  Alcotest.(check (float 1e-9)) "/c root mismatch" 0.0 (kernel_estimate k "/c")

let test_descendant_queries () =
  let k = Lazy.force paper_kernel in
  let check q expected =
    Alcotest.(check (float 1e-6)) q expected (kernel_estimate k q)
  in
  (* //s: all s EPT nodes: 5 + 2 + 2 = 9 (exact). *)
  check "//s" 9.0;
  (* //s//s: s nodes with an s ancestor: 2 + 2 = 4 (exact). *)
  check "//s//s" 4.0;
  (* //s//s//p: Observation 3: 2 + 3 = 5 (exact). *)
  check "//s//s//p" 5.0;
  (* //p: 3 + 9 + 2 + 3 = 17 (exact). *)
  check "//p" 17.0;
  check "//c//t" 5.0

let test_wildcard_queries () =
  let k = Lazy.force paper_kernel in
  Alcotest.(check (float 1e-6)) "/a/*" 4.0 (kernel_estimate k "/a/*");
  Alcotest.(check (float 1e-6)) "//*" 36.0 (kernel_estimate k "//*");
  Alcotest.(check (float 1e-6)) "/a/c/*" 10.0 (kernel_estimate k "/a/c/*")

let test_branching_queries () =
  let k = Lazy.force paper_kernel in
  (* /a/c[t]/s : bsel(c/t) = 1, so exactly |/a/c/s| = 5. *)
  Alcotest.(check (float 1e-6)) "/a/c[t]/s" 5.0 (kernel_estimate k "/a/c[t]/s");
  (* /a/c/s[t]/p : paper formula 9 x bsel(s/t at level 0) = 9 x 0.4 = 3.6
     (actual is 4; the error is the independence assumption). *)
  Alcotest.(check (float 1e-6)) "/a/c/s[t]/p" 3.6 (kernel_estimate k "/a/c/s[t]/p");
  (* Predicate on the result node. *)
  Alcotest.(check (float 1e-6)) "/a/c/s[t][p]" 2.0 (kernel_estimate k "/a/c/s[t][p]")

(* ------------------------------------------------------------------ *)
(* Examples 4 and 5: the Figure 4 kernel, built directly. *)

let figure4_kernel () =
  let table = Xml.Label.create_table () in
  let k = Core.Kernel.create ~table () in
  let l n = Xml.Label.intern table n in
  let edge src dst p c =
    let e = Core.Kernel.get_edge k (l src) (l dst) in
    Core.Kernel.add_at_level e 0 ~parents:p ~children:c
  in
  Core.Kernel.set_root k (l "a");
  Core.Kernel.get_vertex k (l "a");
  edge "a" "b" 1 3;
  edge "a" "c" 1 4;
  edge "b" "d" 2 5;
  edge "c" "d" 3 9;
  edge "d" "e" 3 20;
  edge "d" "f" 4 50;
  k

let test_example4 () =
  (* |b/d/e| = 20 x 5/14 = 7.142857 (ancestor independence assumption). *)
  let k = figure4_kernel () in
  Alcotest.(check (float 1e-4)) "//b/d/e" (20.0 *. 5.0 /. 14.0)
    (kernel_estimate k "//b/d/e");
  Alcotest.(check (float 1e-4)) "//c/d/e" (20.0 *. 9.0 /. 14.0)
    (kernel_estimate k "//c/d/e");
  (* The two estimates decompose the total exactly. *)
  Alcotest.(check (float 1e-4)) "//d/e" 20.0 (kernel_estimate k "//d/e")

let test_example5 () =
  (* |b/d[f]/e| = 20 x 5/14 x 4/14 = 2.0408... (sibling independence). *)
  let k = figure4_kernel () in
  Alcotest.(check (float 1e-4)) "//b/d[f]/e"
    (20.0 *. (5.0 /. 14.0) *. (4.0 /. 14.0))
    (kernel_estimate k "//b/d[f]/e")

(* ------------------------------------------------------------------ *)
(* A concrete document realizing the Figure 4 kernel, with correlations the
   kernel cannot see: all e children live under b-side d nodes, and e/f
   co-occur. Used to test HET effectiveness end to end. *)

let figure4_doc =
  let d_with s = "<d>" ^ s ^ "</d>" in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  "<a>"
  (* b side: 3 b nodes, 2 with d children (2 + 3 = 5 d total). *)
  ^ ("<b>" ^ d_with (rep 10 "<e/>" ^ rep 20 "<f/>") ^ d_with (rep 6 "<e/>" ^ rep 10 "<f/>") ^ "</b>")
  ^ ("<b>" ^ d_with (rep 4 "<e/>" ^ rep 10 "<f/>") ^ d_with "" ^ d_with "" ^ "</b>")
  ^ "<b/>"
  (* c side: 4 c nodes, 3 with d children (3 x 3 = 9 d total); one d has the
     remaining 10 f. *)
  ^ ("<c>" ^ d_with (rep 10 "<f/>") ^ d_with "" ^ d_with "" ^ "</c>")
  ^ ("<c>" ^ d_with "" ^ d_with "" ^ d_with "" ^ "</c>")
  ^ ("<c>" ^ d_with "" ^ d_with "" ^ d_with "" ^ "</c>")
  ^ "<c/>" ^ "</a>"

let test_figure4_doc_matches_kernel () =
  let k = Core.Builder.of_string figure4_doc in
  Alcotest.(check string) "document realizes Figure 4"
    (Core.Kernel.to_string (figure4_kernel ()))
    (Core.Kernel.to_string k)

let build_full ?mbp ?bsel_threshold doc =
  let table = Xml.Label.create_table () in
  let kernel = Core.Builder.of_string ~table doc in
  let path_tree = Pathtree.Path_tree.of_string ~table doc in
  let storage = Nok.Storage.of_string ~table doc in
  let het, stats =
    Core.Het_builder.build ?mbp ?bsel_threshold ~kernel ~path_tree ~storage ()
  in
  (kernel, het, stats, storage)

let test_het_fixes_simple_paths () =
  let kernel, het, _stats, storage = build_full figure4_doc in
  let with_het = Core.Estimator.create ~het kernel in
  let without = Core.Estimator.create kernel in
  let actual q = float_of_int (Nok.Eval.cardinality storage (parse q)) in
  (* Kernel alone splits e across b and c parents; the HET must restore the
     exact cardinalities. *)
  Alcotest.(check (float 1e-4)) "kernel-only /a/b/d/e" (20.0 *. 5.0 /. 14.0)
    (Core.Estimator.estimate without (parse "/a/b/d/e"));
  Alcotest.(check (float 1e-9)) "HET /a/b/d/e exact" (actual "/a/b/d/e")
    (Core.Estimator.estimate with_het (parse "/a/b/d/e"));
  Alcotest.(check (float 1e-9)) "HET /a/c/d/e exact (zero)" 0.0
    (Core.Estimator.estimate with_het (parse "/a/c/d/e"));
  Alcotest.(check (float 1e-9)) "HET /a/c/d/f exact" (actual "/a/c/d/f")
    (Core.Estimator.estimate with_het (parse "/a/c/d/f"))

let test_het_correlated_bsel () =
  (* bsel(e)=3/14 > 0.1, so raise the threshold so d[e]/f is captured. *)
  let kernel, het, _stats, storage = build_full ~bsel_threshold:0.5 figure4_doc in
  let with_het = Core.Estimator.create ~het kernel in
  let without = Core.Estimator.create kernel in
  let q = "//d[e]/f" in
  let actual = float_of_int (Nok.Eval.cardinality storage (parse q)) in
  let err_with = Float.abs (Core.Estimator.estimate with_het (parse q) -. actual) in
  let err_without = Float.abs (Core.Estimator.estimate without (parse q) -. actual) in
  Alcotest.(check bool)
    (Printf.sprintf "correlated bsel helps (%.2f vs %.2f, actual %.0f)"
       err_with err_without actual)
    true (err_with < err_without)

let test_het_builder_stats () =
  let _, _, stats, _ = build_full ~bsel_threshold:0.5 figure4_doc in
  (* Paths: a, a/b, a/b/d, a/b/d/e, a/b/d/f, a/c, a/c/d, a/c/d/f. *)
  Alcotest.(check int) "simple entries = path tree size" 8 stats.simple_entries;
  Alcotest.(check bool) "has branching entries" true (stats.branching_entries > 0);
  Alcotest.(check bool) "took pattern counts" true (stats.nok_evaluations > 0)

let test_het_mbp3 () =
  (* 3BP patterns (paper: "for 2BP and 3BP HET we need to change
     AGGREGATED-BSEL as well"): the builder enumerates triples and the
     matcher resolves them through pair/single fallbacks. *)
  let doc =
    "<r>" ^ String.concat ""
      (List.init 30 (fun i ->
           "<n>" ^ (if i mod 2 = 0 then "<a/>" else "")
           ^ (if i mod 3 = 0 then "<b/>" else "")
           ^ (if i mod 5 = 0 then "<c/>" else "")
           ^ "<d/></n>"))
    ^ "</r>"
  in
  let table = Xml.Label.create_table () in
  let kernel = Core.Builder.of_string ~table doc in
  let path_tree = Pathtree.Path_tree.of_string ~table doc in
  let storage = Nok.Storage.of_string ~table doc in
  let het2, s2 =
    Core.Het_builder.build ~mbp:2 ~bsel_threshold:0.9 ~kernel ~path_tree ~storage ()
  in
  let het3, s3 =
    Core.Het_builder.build ~mbp:3 ~bsel_threshold:0.9 ~kernel ~path_tree ~storage ()
  in
  Alcotest.(check bool) "mbp 3 adds patterns" true
    (s3.branching_entries > s2.branching_entries);
  ignore het2;
  (* With the full-MBP table the triple-predicate query is exact. *)
  let est = Core.Estimator.create ~het:het3 kernel in
  let q = parse "//n[a][b][c]/d" in
  let actual = float_of_int (Nok.Eval.cardinality storage q) in
  Alcotest.(check (float 1e-6)) "triple-predicate exact" actual
    (Core.Estimator.estimate est q)

let test_het_zero_entries_kill_false_positives () =
  (* Document where the kernel derives a false path: <a><b><c/></b><b/></a>
     plus <x><b/></x>-style sharing. Construct: b appears under a and under
     d; c appears under the first kind only. Kernel derives /a/d/b/c as
     plausible. *)
  let doc = "<a><b><c/><c/></b><d><b/></d></a>" in
  let kernel, het, stats, _ = build_full doc in
  let with_het = Core.Estimator.create ~het kernel in
  let without = Core.Estimator.create kernel in
  Alcotest.(check bool) "kernel overestimates /a/d/b/c" true
    (Core.Estimator.estimate without (parse "/a/d/b/c") > 0.0);
  Alcotest.(check (float 1e-9)) "HET kills the false positive" 0.0
    (Core.Estimator.estimate with_het (parse "/a/d/b/c"));
  Alcotest.(check bool) "zero entries recorded" true (stats.zero_entries > 0)

let test_het_budget () =
  let _, het, _, _ = build_full ~bsel_threshold:0.5 figure4_doc in
  let full = Core.Het.active_count het in
  Alcotest.(check bool) "has entries" true (full > 0);
  Core.Het.set_budget het ~bytes:32;
  Alcotest.(check bool) "budget shrinks actives" true (Core.Het.active_count het < full);
  Alcotest.(check bool) "fits budget" true (Core.Het.size_in_bytes het <= 32);
  Core.Het.set_budget het ~bytes:0;
  Alcotest.(check int) "zero budget" 0 (Core.Het.active_count het);
  Core.Het.unlimited_budget het;
  Alcotest.(check int) "unlimited restores" full (Core.Het.active_count het)

let test_het_budget_prefers_large_errors () =
  let het = Core.Het.create () in
  Core.Het.add_simple het ~hash:1 ~card:10 ~bsel:None ~error:100.0;
  Core.Het.add_simple het ~hash:2 ~card:20 ~bsel:None ~error:1.0;
  Core.Het.add_simple het ~hash:3 ~card:30 ~bsel:None ~error:50.0;
  Core.Het.set_budget het ~bytes:(2 * Core.Het.simple_entry_bytes);
  Alcotest.(check bool) "keeps worst error" true
    (Core.Het.lookup_simple het 1 <> None);
  Alcotest.(check bool) "keeps second worst" true
    (Core.Het.lookup_simple het 3 <> None);
  Alcotest.(check bool) "drops smallest" true (Core.Het.lookup_simple het 2 = None)

let test_het_serialization () =
  let _, het, _, _ = build_full ~bsel_threshold:0.5 figure4_doc in
  let again = Core.Het.of_string (Core.Het.to_string het) in
  Alcotest.(check int) "entry counts" (Core.Het.total_count het)
    (Core.Het.total_count again);
  Alcotest.(check string) "stable dump" (Core.Het.to_string het)
    (Core.Het.to_string again)

let test_feedback () =
  let kernel = figure4_kernel () in
  let het = Core.Het.create () in
  let est = Core.Estimator.create ~het kernel in
  let q = parse "/a/b/d/e" in
  Alcotest.(check (float 1e-4)) "before feedback" (20.0 *. 5.0 /. 14.0)
    (Core.Estimator.estimate est q);
  ignore (Core.Estimator.record_feedback est q ~actual:20);
  Alcotest.(check (float 1e-9)) "after feedback exact" 20.0
    (Core.Estimator.estimate est q)

let test_feedback_branching () =
  let kernel = figure4_kernel () in
  let het = Core.Het.create () in
  let est = Core.Estimator.create ~het kernel in
  let q = parse "//d[e]/f" in
  let before = Core.Estimator.estimate est q in
  ignore (Core.Estimator.record_feedback est q ~actual:40);
  let after = Core.Estimator.estimate est q in
  Alcotest.(check bool)
    (Printf.sprintf "feedback improves branching (%.2f -> %.2f, actual 40)"
       before after)
    true
    (Float.abs (after -. 40.0) < Float.abs (before -. 40.0))

(* ------------------------------------------------------------------ *)
(* Synopsis facade *)

let test_synopsis_build_and_estimate () =
  let syn = Core.Synopsis.build Datagen.Paper_example.document in
  Alcotest.(check (float 1e-9)) "estimate" 1.0
    (Core.Synopsis.estimate syn "/a/c/s/s/t");
  Alcotest.(check bool) "size accounted" true (Core.Synopsis.size_in_bytes syn > 0)

let test_synopsis_budget () =
  let syn = Core.Synopsis.build ~bsel_threshold:0.5 figure4_doc in
  let unlimited = Core.Synopsis.size_in_bytes syn in
  let budget = Core.Synopsis.kernel_size_in_bytes syn + 48 in
  Core.Synopsis.set_budget syn ~bytes:budget;
  Alcotest.(check bool) "fits" true (Core.Synopsis.size_in_bytes syn <= budget);
  Alcotest.(check bool) "smaller than unlimited" true
    (Core.Synopsis.size_in_bytes syn < unlimited)

let test_synopsis_serialization () =
  (* The round trip must preserve estimates exactly — including HET lookups,
     which depend on label interning order surviving the dump. *)
  let syn = Core.Synopsis.build ~bsel_threshold:0.5 figure4_doc in
  let again = Core.Synopsis.of_string (Core.Synopsis.to_string syn) in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) q (Core.Synopsis.estimate syn q)
        (Core.Synopsis.estimate again q))
    [ "/a/b/d/e"; "/a/c/d/f"; "//d[e]/f"; "//d/e"; "/a/b" ];
  Alcotest.(check int) "sizes preserved" (Core.Synopsis.size_in_bytes syn)
    (Core.Synopsis.size_in_bytes again);
  Alcotest.(check bool) "garbage rejected" true
    (match Core.Synopsis.of_string "nonsense" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_synopsis_without_het () =
  let syn = Core.Synopsis.build ~with_het:false Datagen.Paper_example.document in
  Alcotest.(check bool) "no het" true (Core.Synopsis.het syn = None);
  Alcotest.(check (float 1e-9)) "still estimates" 5.0
    (Core.Synopsis.estimate syn "/a/c/s")

(* ------------------------------------------------------------------ *)
(* Properties *)

let gen_doc =
  let open QCheck in
  let labels = [| "a"; "b"; "c"; "d" |] in
  let gen rand =
    let buf = Buffer.create 256 in
    let rec node depth =
      let l = labels.(Gen.int_bound (Array.length labels - 1) rand) in
      Buffer.add_string buf ("<" ^ l ^ ">");
      if depth < 5 then
        for _ = 1 to Gen.int_bound 3 rand do node (depth + 1) done;
      Buffer.add_string buf ("</" ^ l ^ ">")
    in
    node 0;
    Buffer.contents buf
  in
  make ~print:(fun d -> d) gen

let prop_sp_exact_with_het =
  (* With an unbudgeted HET every simple-path estimate is exact. *)
  QCheck.Test.make ~count:100 ~name:"SP exact with full HET" gen_doc (fun doc ->
      let table = Xml.Label.create_table () in
      let kernel = Core.Builder.of_string ~table doc in
      let path_tree = Pathtree.Path_tree.of_string ~table doc in
      let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
      let est = Core.Estimator.create ~het kernel in
      let ept = Core.Estimator.ept est in
      List.for_all
        (fun (labels, card) ->
          let steps =
            List.map
              (fun l ->
                { Xpath.Ast.axis = Xpath.Ast.Child;
                  test = Xpath.Ast.Name (Xml.Label.name table l);
                  predicates = []; value_predicates = [] })
              labels
          in
          let e = Core.Estimator.estimate_on est ept steps in
          Float.abs (e -. float_of_int card) < 1e-6)
        (Pathtree.Path_tree.all_simple_paths path_tree))

let prop_estimates_finite_nonnegative =
  let gen_query =
    QCheck.make
      ~print:(fun q -> q)
      (fun rand ->
        let labels = [| "a"; "b"; "c"; "d"; "*" |] in
        let axis () = if QCheck.Gen.int_bound 2 rand = 0 then "//" else "/" in
        let test () = labels.(QCheck.Gen.int_bound 4 rand) in
        let n = 1 + QCheck.Gen.int_bound 3 rand in
        String.concat ""
          (List.init n (fun i ->
               axis () ^ test ()
               ^ if i = n - 1 || QCheck.Gen.int_bound 3 rand > 0 then ""
                 else "[" ^ test () ^ "]")))
  in
  QCheck.Test.make ~count:200 ~name:"estimates are finite and >= 0"
    (QCheck.pair gen_doc gen_query) (fun (doc, q) ->
      let kernel = Core.Builder.of_string doc in
      let est = Core.Estimator.create kernel in
      let v = Core.Estimator.estimate est (parse q) in
      Float.is_finite v && v >= 0.0)

let gen_nonrecursive_doc =
  (* Labels chosen by depth, so no label repeats along a rooted path. *)
  let open QCheck in
  let gen rand =
    let buf = Buffer.create 256 in
    let rec node depth =
      let l = Printf.sprintf "l%d%c" depth (Char.chr (Char.code 'a' + Gen.int_bound 1 rand)) in
      Buffer.add_string buf ("<" ^ l ^ ">");
      if depth < 5 then
        for _ = 1 to Gen.int_bound 3 rand do node (depth + 1) done;
      Buffer.add_string buf ("</" ^ l ^ ">")
    in
    node 0;
    Buffer.contents buf
  in
  make ~print:(fun d -> d) gen

let prop_descendant_single_step_exact =
  (* On a non-recursive document with no pruning, the kernel estimates //x
     exactly for every label: forward selectivities of the paths reaching a
     vertex sum to 1, so EPT cards per label sum to the document total.
     (This conservation breaks under recursion, where paths at different
     recursion levels share the fsel normalization - hence the restricted
     generator.) *)
  QCheck.Test.make ~count:100 ~name:"//label exact on non-recursive docs"
    gen_nonrecursive_doc (fun doc ->
      let tree = Xml.Tree.of_string doc in
      let kernel = Core.Builder.of_string ~table:tree.table doc in
      let est = Core.Estimator.create ~card_threshold:0.0 kernel in
      let storage = Nok.Storage.of_tree tree in
      List.for_all
        (fun (l, _) ->
          let q = [ { Xpath.Ast.axis = Xpath.Ast.Descendant;
                      test = Xpath.Ast.Name (Xml.Label.name tree.table l);
                      predicates = []; value_predicates = [] } ]
          in
          let e = Core.Estimator.estimate est q in
          let a = float_of_int (Nok.Eval.cardinality storage q) in
          Float.abs (e -. a) < 1e-6 *. Float.max 1.0 a)
        (Xml.Tree.label_counts tree))

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_sp_exact_with_het; prop_estimates_finite_nonnegative;
      prop_descendant_single_step_exact ]

(* ------------------------------------------------------------------ *)
(* Allocation per cache-miss estimate. The matcher's per-node accumulators
   live in a reused domain-local scratch, so a warmed estimate against a
   shared EPT allocates for the query alone (query tree, compiled query,
   outcome, HET keys on bucket hits): a small constant, where one fresh
   array per EPT node and query node used to cost ~100 words per node. *)

let words_budget = 2000.0

let minor_words_per_estimate est queries =
  let ept = Lazy.from_val (Core.Estimator.ept est) in
  let run () =
    List.iter
      (fun q -> ignore (Core.Estimator.estimate_result_stats_on est ept q))
      queries
  in
  run ();  (* warm: the scratch grows to the largest query once *)
  let rounds = 10 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    run ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int (rounds * List.length queries)

let test_estimate_allocation () =
  (* One document, one query set; the card threshold alone sets the EPT's
     size. *)
  let doc = Datagen.Treebank.generate ~seed:1 ~sentences:200 () in
  let synopsis = Core.Synopsis.build ~mbp:2 ~card_threshold:20.0 doc in
  let kernel = Core.Synopsis.kernel synopsis in
  let path_tree = Pathtree.Path_tree.of_string doc in
  let rng = Datagen.Rng.create ~seed:3 in
  let queries =
    Datagen.Workload.branching path_tree ~rng ~count:60 ~mbp:2 ()
    @ Datagen.Workload.complex path_tree ~rng ~count:60 ~mbp:2 ()
  in
  let measure ?het card_threshold =
    let est = Core.Estimator.create ~card_threshold ?het kernel in
    ( Core.Matcher.node_count (Core.Estimator.ept est),
      minor_words_per_estimate est queries )
  in
  let small_nodes, small = measure 15.0 in
  let large_nodes, large = measure 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "EPT sizes ~50 and ~200 (%d, %d)" small_nodes large_nodes)
    true
    (small_nodes >= 40 && small_nodes <= 70 && large_nodes >= 180
    && large_nodes <= 260);
  List.iter
    (fun (what, words) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words per estimate, budget %.0f" what words
           words_budget)
        true (words < words_budget))
    [ ("50-node EPT", small); ("200-node EPT", large) ];
  (* Four times the nodes, the same queries: no more words. *)
  Alcotest.(check bool)
    (Printf.sprintf "words do not grow with the EPT (%.1f -> %.1f)" small large)
    true
    (large <= small +. 8.0);
  let het_nodes, with_het = measure ?het:(Core.Synopsis.het synopsis) 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "with HET, %d-node EPT: %.0f words per estimate" het_nodes
       with_het)
    true (with_het < words_budget)

let () =
  Alcotest.run "estimator"
    [
      ( "simple paths",
        [
          Alcotest.test_case "example 3" `Quick test_example3;
          Alcotest.test_case "nonexistent paths" `Quick test_nonexistent_paths;
        ] );
      ( "complex queries",
        [
          Alcotest.test_case "descendant" `Quick test_descendant_queries;
          Alcotest.test_case "wildcard" `Quick test_wildcard_queries;
          Alcotest.test_case "branching" `Quick test_branching_queries;
        ] );
      ( "figure 4",
        [
          Alcotest.test_case "example 4" `Quick test_example4;
          Alcotest.test_case "example 5" `Quick test_example5;
          Alcotest.test_case "document realizes kernel" `Quick
            test_figure4_doc_matches_kernel;
        ] );
      ( "het",
        [
          Alcotest.test_case "fixes simple paths" `Quick test_het_fixes_simple_paths;
          Alcotest.test_case "correlated bsel" `Quick test_het_correlated_bsel;
          Alcotest.test_case "builder stats" `Quick test_het_builder_stats;
          Alcotest.test_case "mbp 3" `Quick test_het_mbp3;
          Alcotest.test_case "zero entries" `Quick
            test_het_zero_entries_kill_false_positives;
          Alcotest.test_case "budget" `Quick test_het_budget;
          Alcotest.test_case "budget ranking" `Quick test_het_budget_prefers_large_errors;
          Alcotest.test_case "serialization" `Quick test_het_serialization;
          Alcotest.test_case "feedback simple" `Quick test_feedback;
          Alcotest.test_case "feedback branching" `Quick test_feedback_branching;
        ] );
      ( "synopsis",
        [
          Alcotest.test_case "build and estimate" `Quick test_synopsis_build_and_estimate;
          Alcotest.test_case "budget" `Quick test_synopsis_budget;
          Alcotest.test_case "serialization" `Quick test_synopsis_serialization;
          Alcotest.test_case "without het" `Quick test_synopsis_without_het;
        ] );
      ( "allocation",
        [ Alcotest.test_case "words per estimate bounded" `Quick
            test_estimate_allocation ] );
      ("properties", props);
    ]
