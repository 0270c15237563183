(* Value-predicate extension tests: parsing, NoK evaluation with values,
   histogram selectivities, and end-to-end estimation. *)

open Xpath

let parse = Parser.parse

let check_parse_error input =
  match Parser.parse input with
  | p -> Alcotest.failf "expected error on %S, parsed %s" input (Ast.to_string p)
  | exception Parser.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Parsing *)

let test_parse_value_predicates () =
  let q = parse "/shop/item[price>9.5]/name" in
  Alcotest.(check int) "one value predicate" 1 (Ast.value_predicate_count q);
  Alcotest.(check bool) "flagged" true (Ast.has_value_predicates q);
  let q = parse "/a[@id='x42']/b" in
  (match q with
   | { Ast.value_predicates = [ { target = Ast.Attribute "id"; cmp = Ast.Eq;
                                  literal = Ast.Text "x42" } ]; _ } :: _ -> ()
   | _ -> Alcotest.fail "attribute predicate shape");
  let q = parse "//item[quantity<=3][payment='Creditcard']" in
  Alcotest.(check int) "two value predicates" 2 (Ast.value_predicate_count q)

let test_parse_value_round_trips () =
  List.iter
    (fun q -> Alcotest.(check string) q q (Ast.to_string (parse q)))
    [ "/shop/item[price>9.5]/name"; "/a[@id='x42']/b"; "//item[quantity<=3]";
      "/a/b[c!=7]"; "/a/b[c=-4]"; "//r[v>=10][w<20]"; "/a/b[t='hi there']";
      "/a[b[c=1]/d]/e"; "/a[b>1e+15]"; "/a[b=2.5e-07]"; "/a[b<10.0000001]";
      "/a[t=\"x'y\"]" ]

let test_parse_mixed_qualifiers () =
  (* Structural and value predicates on the same step. *)
  let q = parse "/dblp/article[author][year>=2000]/title" in
  Alcotest.(check int) "structural" 1 (Ast.predicate_count q);
  Alcotest.(check int) "value" 1 (Ast.value_predicate_count q);
  Alcotest.check (Alcotest.testable Ast.pp Ast.equal) "strip"
    (parse "/dblp/article[author]/title")
    (Ast.strip_value_predicates q)

let test_parse_value_errors () =
  List.iter check_parse_error
    [ "/a[@id]"; (* attribute without comparison *)
      "/a[b<'x']"; (* ordered comparison on a string *)
      "/a[b=]"; "/a[b='unterminated]"; "/a[@='v']";
      "/a[b>1e]"; "/a[b>1e999]"; (* malformed; not a finite number *)
      "/a[b>1-2]" ]

(* ------------------------------------------------------------------ *)
(* NoK storage and evaluation with values *)

let shop_doc =
  "<shop>\
   <item><name>anvil</name><price>10</price><qty>3</qty></item>\
   <item><name>rope</name><price>4.5</price><qty>10</qty></item>\
   <item><name>anvil</name><price>25</price><qty>1</qty></item>\
   <item id=\"special\"><name>tnt</name><price>99</price></item>\
   <item><name>rope</name><price>6</price><qty>2</qty></item>\
   </shop>"

let shop = lazy (Nok.Storage.of_string ~with_values:true shop_doc)

let card q = Nok.Eval.cardinality (Lazy.force shop) (parse q)

let test_storage_values () =
  let st = Lazy.force shop in
  Alcotest.(check bool) "has values" true (Nok.Storage.has_values st);
  (* Node 2 is the first <name>. *)
  Alcotest.(check string) "text" "anvil" (Nok.Storage.node_text st 2);
  (* The fourth item carries the id attribute. *)
  let item4 =
    match Nok.Storage.children st 0 with
    | _ :: _ :: _ :: i :: _ -> i
    | _ -> Alcotest.fail "shape"
  in
  Alcotest.(check (option string)) "attribute" (Some "special")
    (Nok.Storage.node_attribute st item4 "id");
  Alcotest.(check (option string)) "absent attribute" None
    (Nok.Storage.node_attribute st item4 "class")

let test_storage_without_values () =
  let st = Nok.Storage.of_string shop_doc in
  Alcotest.(check bool) "no values" false (Nok.Storage.has_values st);
  Alcotest.(check string) "empty text" "" (Nok.Storage.node_text st 2);
  Alcotest.check_raises "evaluation refuses" Nok.Eval.Values_not_collected
    (fun () -> ignore (Nok.Eval.cardinality st (parse "//item[price>5]") : int))

let test_eval_numeric () =
  Alcotest.(check int) "price > 5" 4 (card "//item[price>5]");
  Alcotest.(check int) "price >= 10" 3 (card "//item[price>=10]");
  Alcotest.(check int) "price < 10" 2 (card "//item[price<10]");
  Alcotest.(check int) "price <= 10" 3 (card "//item[price<=10]");
  Alcotest.(check int) "price = 4.5" 1 (card "//item[price=4.5]");
  (* tnt has no qty child, so an existential qty comparison skips it. *)
  Alcotest.(check int) "qty != 3" 3 (card "//item[qty!=3]")

let test_eval_string () =
  Alcotest.(check int) "name = anvil" 2 (card "//item[name='anvil']");
  Alcotest.(check int) "name != anvil" 3 (card "//item[name!='anvil']");
  Alcotest.(check int) "name = none" 0 (card "//item[name='none']")

let test_eval_attribute () =
  Alcotest.(check int) "@id = special" 1 (card "//item[@id='special']");
  Alcotest.(check int) "@id = other" 0 (card "//item[@id='other']")

let test_eval_combined () =
  Alcotest.(check int) "structure + value" 2
    (card "//item[qty][price>5][name='anvil']/name");
  Alcotest.(check int) "value pred inside structural pred" 2
    (card "/shop[item[price>20]]/item[name='rope']")

let test_eval_missing_child () =
  (* The tnt item has no qty: a qty comparison never matches it. *)
  Alcotest.(check int) "qty < 100" 4 (card "//item[qty<100]")

(* ------------------------------------------------------------------ *)
(* Value synopsis *)

let uniform_doc n =
  let buf = Buffer.create (n * 40) in
  Buffer.add_string buf "<root>";
  for i = 1 to n do
    Buffer.add_string buf
      (Printf.sprintf "<row kind=\"%s\"><v>%d</v></row>"
         (if i mod 4 = 0 then "gold" else "base")
         i)
  done;
  Buffer.add_string buf "</root>";
  Buffer.contents buf

let test_synopsis_numeric_selectivity () =
  let st = Nok.Storage.of_string ~with_values:true (uniform_doc 1000) in
  let vs = Core.Value_synopsis.build st in
  let row = Option.get (Xml.Label.find_opt st.table "row") in
  let sel cmp lit =
    Core.Value_synopsis.selectivity vs ~context:row
      { Ast.target = Ast.Child_text "v"; cmp; literal = Ast.Number lit }
  in
  (* Values are uniform on 1..1000. *)
  Alcotest.(check bool) "P(v<500) ~ 0.5" true
    (Float.abs (sel Ast.Lt 500.0 -. 0.5) < 0.08);
  Alcotest.(check bool) "P(v<100) ~ 0.1" true
    (Float.abs (sel Ast.Lt 100.0 -. 0.1) < 0.05);
  Alcotest.(check bool) "P(v>900) ~ 0.1" true
    (Float.abs (sel Ast.Gt 900.0 -. 0.1) < 0.05);
  Alcotest.(check (float 1e-9)) "P(v<0) = 0" 0.0 (sel Ast.Lt 0.0);
  Alcotest.(check bool) "P(v>=1) ~ 1" true (sel Ast.Ge 1.0 > 0.9)

let test_synopsis_string_selectivity () =
  let st = Nok.Storage.of_string ~with_values:true (uniform_doc 1000) in
  let vs = Core.Value_synopsis.build st in
  let row = Option.get (Xml.Label.find_opt st.table "row") in
  let sel v =
    Core.Value_synopsis.selectivity vs ~context:row
      { Ast.target = Ast.Attribute "kind"; cmp = Ast.Eq; literal = Ast.Text v }
  in
  Alcotest.(check bool) "P(kind=gold) ~ 0.25" true (Float.abs (sel "gold" -. 0.25) < 0.03);
  Alcotest.(check bool) "P(kind=base) ~ 0.75" true (Float.abs (sel "base" -. 0.75) < 0.03);
  Alcotest.(check (float 1e-9)) "unseen pair" 0.0
    (Core.Value_synopsis.selectivity vs ~context:row
       { Ast.target = Ast.Child_text "nonexistent"; cmp = Ast.Eq;
         literal = Ast.Text "x" })

let test_synopsis_requires_values () =
  let st = Nok.Storage.of_string (uniform_doc 10) in
  Alcotest.(check bool) "refuses structural storage" true
    (match Core.Value_synopsis.build st with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_synopsis_targets_and_samples () =
  let st = Nok.Storage.of_string ~with_values:true (uniform_doc 100) in
  let vs = Core.Value_synopsis.build st in
  let row = Option.get (Xml.Label.find_opt st.table "row") in
  let targets = Core.Value_synopsis.targets_of vs ~context:row in
  Alcotest.(check int) "two targets" 2 (List.length targets);
  let samples =
    Core.Value_synopsis.sample_values vs ~context:row (Ast.Attribute "kind")
  in
  Alcotest.(check bool) "samples drawn from document" true
    (List.for_all (fun v -> v = "gold" || v = "base") samples && samples <> [])

(* ------------------------------------------------------------------ *)
(* End-to-end estimation *)

let test_estimation_with_values () =
  let doc = uniform_doc 1000 in
  let st = Nok.Storage.of_string ~with_values:true doc in
  let vs = Core.Value_synopsis.build st in
  let kernel = Core.Builder.of_string ~table:st.table doc in
  let with_values = Core.Estimator.create ~values:vs kernel in
  let without = Core.Estimator.create kernel in
  let q = parse "/root/row[v<250]" in
  let actual = float_of_int (Nok.Eval.cardinality st q) in
  let est = Core.Estimator.estimate with_values q in
  let ignored = Core.Estimator.estimate without q in
  Alcotest.(check bool)
    (Printf.sprintf "estimate close (%.0f vs actual %.0f)" est actual)
    true
    (Float.abs (est -. actual) < 0.15 *. actual);
  Alcotest.(check (float 1e-6)) "without synopsis the predicate is ignored"
    1000.0 ignored;
  (* Combined with a structural result step. *)
  let q = parse "/root/row[kind='gold']/v" in
  ignore q;
  let q2 = parse "/root/row[@kind='gold']/v" in
  let actual2 = float_of_int (Nok.Eval.cardinality st q2) in
  let est2 = Core.Estimator.estimate with_values q2 in
  Alcotest.(check bool)
    (Printf.sprintf "attribute predicate (%.0f vs %.0f)" est2 actual2)
    true
    (Float.abs (est2 -. actual2) < 0.15 *. Float.max 1.0 actual2)

let test_synopsis_facade_with_values () =
  let doc = uniform_doc 500 in
  let syn = Core.Synopsis.build ~with_values:true doc in
  Alcotest.(check bool) "value synopsis present" true
    (Core.Synopsis.values syn <> None);
  let est = Core.Synopsis.estimate syn "/root/row[v<100]" in
  Alcotest.(check bool)
    (Printf.sprintf "estimate in range (%.1f)" est)
    true
    (est > 60.0 && est < 140.0)

let test_valued_workload () =
  let doc = Datagen.Xmark.generate ~seed:77 ~items:40 () in
  let st = Nok.Storage.of_string ~with_values:true doc in
  let pt = Pathtree.Path_tree.of_string ~table:st.table doc in
  let rng = Datagen.Rng.create ~seed:5 in
  let queries = Datagen.Workload.valued pt ~storage:st ~rng ~count:60 () in
  Alcotest.(check bool) "got queries" true (List.length queries >= 40);
  let with_preds =
    List.filter (fun q -> Ast.has_value_predicates q) queries
  in
  Alcotest.(check bool)
    (Printf.sprintf "most carry value predicates (%d/%d)" (List.length with_preds)
       (List.length queries))
    true
    (2 * List.length with_preds > List.length queries);
  (* All evaluable, and equality queries grounded in real values are often
     non-empty. *)
  let nonempty =
    List.length (List.filter (fun q -> Nok.Eval.cardinality st q > 0) with_preds)
  in
  Alcotest.(check bool)
    (Printf.sprintf "many non-empty (%d/%d)" nonempty (List.length with_preds))
    true
    (3 * nonempty > List.length with_preds)

let test_valued_workload_end_to_end_error () =
  (* The headline: with the value synopsis the NRMSE over a valued workload
     is much lower than when value predicates are ignored. *)
  let doc = Datagen.Xmark.generate ~seed:78 ~items:50 () in
  let st = Nok.Storage.of_string ~with_values:true doc in
  let pt = Pathtree.Path_tree.of_string ~table:st.table doc in
  let kernel = Core.Builder.of_string ~table:st.table doc in
  let vs = Core.Value_synopsis.build st in
  let rng = Datagen.Rng.create ~seed:6 in
  let queries = Datagen.Workload.valued pt ~storage:st ~rng ~count:80 () in
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
  Alcotest.(check bool)
    (Printf.sprintf "value synopsis helps (RMSE %.2f vs %.2f)" with_vs.rmse
       without.rmse)
    true
    (with_vs.rmse < without.rmse)

let test_value_synopsis_serialization () =
  let st = Nok.Storage.of_string ~with_values:true (uniform_doc 300) in
  let vs = Core.Value_synopsis.build st in
  let again = Core.Value_synopsis.of_string (Core.Value_synopsis.to_string vs) in
  Alcotest.(check string) "stable dump" (Core.Value_synopsis.to_string vs)
    (Core.Value_synopsis.to_string again);
  Alcotest.(check int) "entries" (Core.Value_synopsis.entry_count vs)
    (Core.Value_synopsis.entry_count again);
  (* Selectivities must survive exactly; note the reloaded table has its own
     interning, so we resolve the context by name. *)
  let row r = Option.get (Xml.Label.find_opt st.table r) in
  let vp =
    { Ast.target = Ast.Child_text "v"; cmp = Ast.Lt; literal = Ast.Number 100.0 }
  in
  (* Reload into the same table for a like-for-like comparison. *)
  let again_same =
    Core.Value_synopsis.of_string ~table:st.table (Core.Value_synopsis.to_string vs)
  in
  Alcotest.(check (float 1e-12)) "selectivity preserved"
    (Core.Value_synopsis.selectivity vs ~context:(row "row") vp)
    (Core.Value_synopsis.selectivity again_same ~context:(row "row") vp);
  Alcotest.(check bool) "garbage rejected" true
    (match Core.Value_synopsis.of_string "junk" with
     | _ -> false
     | exception Invalid_argument _ -> true)

let test_synopsis_bundle_with_values () =
  (* The full bundle (labels + kernel + HET + value synopsis) round-trips
     and keeps estimating value predicates. *)
  let doc = uniform_doc 400 in
  let syn = Core.Synopsis.build ~with_values:true doc in
  let reloaded = Core.Synopsis.of_string (Core.Synopsis.to_string syn) in
  Alcotest.(check bool) "values section survived" true
    (Core.Synopsis.values reloaded <> None);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) q (Core.Synopsis.estimate syn q)
        (Core.Synopsis.estimate reloaded q))
    [ "/root/row[v<100]"; "/root/row[@kind='gold']"; "/root/row[v>=350]/v" ]

(* Property: generated valued queries round-trip through the printer and
   parser (exercises value-predicate printing on realistic shapes). *)
let prop_valued_queries_round_trip =
  QCheck.Test.make ~count:30 ~name:"valued workload pp/parse round trip"
    (QCheck.make ~print:string_of_int (QCheck.Gen.int_bound 1000))
    (fun seed ->
      let doc = Datagen.Xmark.generate ~seed:(seed + 1) ~items:10 () in
      let st = Nok.Storage.of_string ~with_values:true doc in
      let pt = Pathtree.Path_tree.of_string ~table:st.table doc in
      let rng = Datagen.Rng.create ~seed in
      let queries = Datagen.Workload.valued pt ~storage:st ~rng ~count:10 () in
      List.for_all
        (fun q -> Ast.equal (Parser.parse (Ast.to_string q)) q)
        queries)

let props = List.map QCheck_alcotest.to_alcotest [ prop_valued_queries_round_trip ]

let () =
  Alcotest.run "values"
    [
      ( "parser",
        [
          Alcotest.test_case "forms" `Quick test_parse_value_predicates;
          Alcotest.test_case "round trips" `Quick test_parse_value_round_trips;
          Alcotest.test_case "mixed qualifiers" `Quick test_parse_mixed_qualifiers;
          Alcotest.test_case "errors" `Quick test_parse_value_errors;
        ] );
      ( "nok",
        [
          Alcotest.test_case "storage values" `Quick test_storage_values;
          Alcotest.test_case "without values" `Quick test_storage_without_values;
          Alcotest.test_case "numeric" `Quick test_eval_numeric;
          Alcotest.test_case "string" `Quick test_eval_string;
          Alcotest.test_case "attribute" `Quick test_eval_attribute;
          Alcotest.test_case "combined" `Quick test_eval_combined;
          Alcotest.test_case "missing child" `Quick test_eval_missing_child;
        ] );
      ( "synopsis",
        [
          Alcotest.test_case "numeric selectivity" `Quick
            test_synopsis_numeric_selectivity;
          Alcotest.test_case "string selectivity" `Quick
            test_synopsis_string_selectivity;
          Alcotest.test_case "requires values" `Quick test_synopsis_requires_values;
          Alcotest.test_case "targets and samples" `Quick
            test_synopsis_targets_and_samples;
        ] );
      ( "estimation",
        [
          Alcotest.test_case "uniform values" `Quick test_estimation_with_values;
          Alcotest.test_case "facade" `Quick test_synopsis_facade_with_values;
          Alcotest.test_case "valued workload" `Quick test_valued_workload;
          Alcotest.test_case "end-to-end error" `Quick
            test_valued_workload_end_to_end_error;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "value synopsis" `Quick
            test_value_synopsis_serialization;
          Alcotest.test_case "full bundle" `Quick test_synopsis_bundle_with_values;
        ] );
      ("properties", props);
    ]
