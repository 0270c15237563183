(* Core XSEED tests: counter stacks (Figure 3), kernel construction
   (Example 2), incremental maintenance, serialization, and the traveler's
   EPT checked against the paper's Section 4 dump, value by value. *)

let paper_kernel = lazy (Core.Builder.of_string Datagen.Paper_example.document)

let label kernel name =
  match Xml.Label.find_opt (Core.Kernel.table kernel) name with
  | Some l -> l
  | None -> Alcotest.failf "label %s not in kernel" name

(* ------------------------------------------------------------------ *)
(* Counter stacks *)

let test_counter_figure3 () =
  (* Paper Figure 3: after pushing a b b c c b the occurrences are a=1, b=3,
     c=2 and three stacks are non-empty. *)
  let cs = Core.Counter_stacks.create () in
  let a = 0 and b = 1 and c = 2 in
  let rls = List.map (Core.Counter_stacks.push cs) [ a; b; b; c; c; b ] in
  Alcotest.(check (list int)) "recursion level after each push" [ 0; 0; 1; 1; 1; 2 ] rls;
  Alcotest.(check int) "occ a" 1 (Core.Counter_stacks.occurrences cs a);
  Alcotest.(check int) "occ b" 3 (Core.Counter_stacks.occurrences cs b);
  Alcotest.(check int) "occ c" 2 (Core.Counter_stacks.occurrences cs c);
  Alcotest.(check int) "non-empty stacks" 3 (Core.Counter_stacks.stack_count cs);
  Alcotest.(check int) "depth" 6 (Core.Counter_stacks.depth cs);
  (* Pop back out in path (LIFO) order. *)
  List.iter (Core.Counter_stacks.pop cs) [ b; c; c; b; b; a ];
  Alcotest.(check int) "empty rl" (-1) (Core.Counter_stacks.recursion_level cs);
  Alcotest.(check int) "empty depth" 0 (Core.Counter_stacks.depth cs)

let test_counter_pop_validation () =
  let cs = Core.Counter_stacks.create () in
  ignore (Core.Counter_stacks.push cs 5 : int);
  Alcotest.check_raises "pop absent item"
    (Invalid_argument "Counter_stacks.pop: item not on the path") (fun () ->
      Core.Counter_stacks.pop cs 7)

let test_counter_interleaved () =
  let cs = Core.Counter_stacks.create () in
  (* Path a/b/a/b/a : rl grows with the deepest repetition. *)
  Alcotest.(check int) "a" 0 (Core.Counter_stacks.push cs 0);
  Alcotest.(check int) "a/b" 0 (Core.Counter_stacks.push cs 1);
  Alcotest.(check int) "a/b/a" 1 (Core.Counter_stacks.push cs 0);
  Alcotest.(check int) "a/b/a/b" 1 (Core.Counter_stacks.push cs 1);
  Alcotest.(check int) "a/b/a/b/a" 2 (Core.Counter_stacks.push cs 0);
  Core.Counter_stacks.pop cs 0;
  Alcotest.(check int) "back to rl 1" 1 (Core.Counter_stacks.recursion_level cs)

(* Property: recursion level always equals the naive "max occurrences - 1"
   computation over random tree walks. *)
let prop_counter_matches_naive =
  let open QCheck in
  (* A walk is a list of pushes (labels 0..3); we simulate a DFS where after
     each push we may pop some suffix. Encode as ints: 0..3 push, 4 pop. *)
  let gen = Gen.list_size (Gen.int_range 1 60) (Gen.int_bound 4) in
  Test.make ~count:500 ~name:"counter stacks = naive max-occurrence" (make gen)
    (fun ops ->
      let cs = Core.Counter_stacks.create () in
      let path = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op = 4 then (
            match !path with
            | [] -> ()
            | x :: rest ->
              Core.Counter_stacks.pop cs x;
              path := rest)
          else begin
            ignore (Core.Counter_stacks.push cs op : int);
            path := op :: !path
          end;
          let naive =
            if !path = [] then -1
            else
              let counts = Hashtbl.create 8 in
              List.iter
                (fun x ->
                  Hashtbl.replace counts x
                    (1 + Option.value (Hashtbl.find_opt counts x) ~default:0))
                !path;
              Hashtbl.fold (fun _ c acc -> max acc c) counts 0 - 1
          in
          if Core.Counter_stacks.recursion_level cs <> naive then ok := false)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Kernel construction: every edge label of the paper's Figure 2(b). *)

let check_edge kernel src dst expected =
  let e =
    match Core.Kernel.find_edge kernel (label kernel src) (label kernel dst) with
    | Some e -> e
    | None -> Alcotest.failf "edge (%s,%s) missing" src dst
  in
  let got = List.init e.levels (fun l -> Core.Kernel.edge_counts e l) in
  Alcotest.(check (list (pair int int)))
    (Printf.sprintf "edge (%s,%s)" src dst)
    expected got

let test_kernel_example2 () =
  let k = Lazy.force paper_kernel in
  Alcotest.(check int) "vertices" 6 (Core.Kernel.vertex_count k);
  Alcotest.(check int) "edges" 9 (Core.Kernel.edge_count k);
  Alcotest.(check string) "root" "a"
    (Xml.Label.name (Core.Kernel.table k) (Core.Kernel.root k));
  check_edge k "a" "t" [ (1, 1) ];
  check_edge k "a" "u" [ (1, 1) ];
  check_edge k "a" "c" [ (1, 2) ];
  check_edge k "c" "t" [ (2, 2) ];
  check_edge k "c" "p" [ (2, 3) ];
  check_edge k "c" "s" [ (2, 5) ];
  check_edge k "s" "t" [ (2, 2); (1, 1) ];
  check_edge k "s" "p" [ (5, 9); (1, 2); (2, 3) ];
  check_edge k "s" "s" [ (0, 0); (2, 2); (1, 2) ]

let test_kernel_total_children () =
  let k = Lazy.force paper_kernel in
  let s = label k "s" and p = label k "p" and t = label k "t" and a = label k "a" in
  Alcotest.(check int) "S(a,0) counts the root" 1
    (Core.Kernel.total_children k a ~level:0);
  Alcotest.(check int) "S(t,0)" 5 (Core.Kernel.total_children k t ~level:0);
  Alcotest.(check int) "S(s,0)" 5 (Core.Kernel.total_children k s ~level:0);
  Alcotest.(check int) "S(s,1)" 2 (Core.Kernel.total_children k s ~level:1);
  Alcotest.(check int) "S(s,2)" 2 (Core.Kernel.total_children k s ~level:2);
  Alcotest.(check int) "S(p,0)" 12 (Core.Kernel.total_children k p ~level:0);
  Alcotest.(check int) "S(p,3) beyond levels" 0
    (Core.Kernel.total_children k p ~level:3)

let test_kernel_observation3 () =
  (* Observation 3: |//s//s//p| = sum of child counts of (s,p) at recursion
     levels >= 1 = 2 + 3 = 5. *)
  let k = Lazy.force paper_kernel in
  let e =
    Option.get (Core.Kernel.find_edge k (label k "s") (label k "p"))
  in
  let sum = ref 0 in
  for l = 1 to e.levels - 1 do
    sum := !sum + snd (Core.Kernel.edge_counts e l)
  done;
  Alcotest.(check int) "kernel sum" 5 !sum;
  let actual =
    Nok.Eval.cardinality
      (Nok.Storage.of_string Datagen.Paper_example.document)
      (Xpath.Parser.parse "//s//s//p")
  in
  Alcotest.(check int) "matches actual //s//s//p" 5 actual

let test_kernel_size_small () =
  let k = Lazy.force paper_kernel in
  let bytes = Core.Kernel.size_in_bytes k in
  Alcotest.(check bool) "kernel is tiny" true (bytes < 500);
  Alcotest.(check bool) "kernel is non-trivial" true (bytes > 50)

let test_kernel_serialization_round_trip () =
  let k = Lazy.force paper_kernel in
  let again = Core.Kernel.of_string (Core.Kernel.to_string k) in
  Alcotest.(check bool) "round trip equal" true (Core.Kernel.equal k again);
  Alcotest.(check int) "same size" (Core.Kernel.size_in_bytes k)
    (Core.Kernel.size_in_bytes again)

let test_kernel_copy_independent () =
  let k = Core.Builder.of_string "<a><b/></a>" in
  let k2 = Core.Kernel.copy k in
  let e = Core.Kernel.get_edge k (label k "a") (label k "b") in
  Core.Kernel.add_at_level e 0 ~parents:1 ~children:1;
  Alcotest.(check bool) "copy unaffected" false (Core.Kernel.equal k k2)

let test_kernel_of_string_malformed () =
  Alcotest.(check bool) "bad dump rejected" true
    (match Core.Kernel.of_string "edge a" with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Incremental maintenance *)

let test_builder_add_subtree () =
  (* Insert <s><p/></s> under the first c of a small document; the kernel
     must equal the one built from the edited document. *)
  let before = "<a><c><t/></c><c><p/></c></a>" in
  let after = "<a><c><t/><s><p/></s></c><c><p/></c></a>" in
  let k = Core.Builder.of_string before in
  let a = label k "a" and c = label k "c" in
  Core.Builder.add_subtree k ~at:[ a; c ] (Xml.Sax.events "<s><p/></s>");
  let expected = Core.Builder.of_string ~table:(Core.Kernel.table k) after in
  Alcotest.(check string) "kernels equal" (Core.Kernel.to_string expected)
    (Core.Kernel.to_string k)

let test_builder_add_recursive_subtree () =
  (* Insertion at a path that creates recursion: the new levels must land at
     the right indices. *)
  let before = "<a><s><t/></s></a>" in
  let after = "<a><s><t/><s><t/></s></s></a>" in
  let k = Core.Builder.of_string before in
  let a = label k "a" and s = label k "s" in
  Core.Builder.add_subtree k ~at:[ a; s ] (Xml.Sax.events "<s><t/></s>");
  let expected = Core.Builder.of_string ~table:(Core.Kernel.table k) after in
  Alcotest.(check string) "kernels equal" (Core.Kernel.to_string expected)
    (Core.Kernel.to_string k)

let test_builder_remove_subtree () =
  let before = "<a><c><t/><s><p/></s></c><c><p/></c></a>" in
  let after = "<a><c><t/></c><c><p/></c></a>" in
  let k = Core.Builder.of_string before in
  let a = label k "a" and c = label k "c" in
  Core.Builder.remove_subtree k ~at:[ a; c ] (Xml.Sax.events "<s><p/></s>");
  let expected = Core.Builder.of_string ~table:(Core.Kernel.table k) after in
  Alcotest.(check string) "kernels equal" (Core.Kernel.to_string expected)
    (Core.Kernel.to_string k)

let test_builder_add_remove_round_trip () =
  let doc = Datagen.Paper_example.document in
  let k = Core.Builder.of_string doc in
  let baseline = Core.Kernel.to_string k in
  let a = label k "a" and c = label k "c" in
  let sub = Xml.Sax.events "<x><y/><y/></x>" in
  Core.Builder.add_subtree k ~at:[ a; c ] sub;
  Alcotest.(check bool) "changed" true (Core.Kernel.to_string k <> baseline);
  Core.Builder.remove_subtree k ~at:[ a; c ] sub;
  Alcotest.(check string) "restored" baseline (Core.Kernel.to_string k)

let test_builder_rejects_bad_subtrees () =
  let k = Core.Builder.of_string "<a><b/></a>" in
  let a = label k "a" in
  Alcotest.(check bool) "two roots rejected" true
    (match Core.Builder.add_subtree k ~at:[ a ] (Xml.Sax.events "<x/>" @ Xml.Sax.events "<y/>") with
     | () -> false
     | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "empty path rejected" true
    (match Core.Builder.add_subtree k ~at:[] (Xml.Sax.events "<x/>") with
     | () -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Traveler: the paper's EPT, event by event. *)

let expected_ept =
  (* label, dewey, card, fsel, bsel — transcribed from Section 4. *)
  [
    ("a", "1.", 1.0, 1.0, 1.0);
    ("t", "1.1.", 1.0, 0.2, 1.0);
    ("u", "1.2.", 1.0, 1.0, 1.0);
    ("c", "1.3.", 2.0, 1.0, 1.0);
    ("t", "1.3.1.", 2.0, 0.4, 1.0);
    ("p", "1.3.2.", 3.0, 0.25, 1.0);
    ("s", "1.3.3.", 5.0, 1.0, 1.0);
    ("t", "1.3.3.1.", 2.0, 0.4, 0.4);
    ("p", "1.3.3.2.", 9.0, 0.75, 1.0);
    ("s", "1.3.3.3.", 2.0, 1.0, 0.4);
    ("t", "1.3.3.3.1.", 1.0, 1.0, 0.5);
    ("p", "1.3.3.3.2.", 2.0, 1.0, 0.5);
    ("s", "1.3.3.3.3.", 2.0, 1.0, 0.5);
    ("p", "1.3.3.3.3.1.", 3.0, 1.0, 1.0);
  ]

let collect_opens kernel =
  let traveler = Core.Traveler.create kernel in
  let opens = ref [] in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open { label = l; dewey; card; fsel; bsel } ->
        opens :=
          (Xml.Label.name (Core.Kernel.table kernel) l,
           Xml.Dewey.to_string dewey, card, fsel, bsel)
          :: !opens
      | Core.Traveler.Close _ | Core.Traveler.Eos -> ());
  List.rev !opens

let test_traveler_ept () =
  let got = collect_opens (Lazy.force paper_kernel) in
  Alcotest.(check int) "14 open events" 14 (List.length got);
  List.iter2
    (fun (el, ed, ec, ef, eb) (gl, gd, gc, gf, gb) ->
      let ctx = Printf.sprintf "%s %s" el ed in
      Alcotest.(check string) (ctx ^ " label") el gl;
      Alcotest.(check string) (ctx ^ " dewey") ed gd;
      Alcotest.(check (float 1e-9)) (ctx ^ " card") ec gc;
      Alcotest.(check (float 1e-9)) (ctx ^ " fsel") ef gf;
      Alcotest.(check (float 1e-9)) (ctx ^ " bsel") eb gb)
    expected_ept got

let test_traveler_balanced () =
  let traveler = Core.Traveler.create (Lazy.force paper_kernel) in
  let depth = ref 0 and max_depth = ref 0 and closes = ref 0 in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open _ ->
        incr depth;
        if !depth > !max_depth then max_depth := !depth
      | Core.Traveler.Close _ ->
        decr depth;
        incr closes
      | Core.Traveler.Eos -> ());
  Alcotest.(check int) "balanced" 0 !depth;
  Alcotest.(check int) "14 closes" 14 !closes;
  Alcotest.(check int) "depth 6" 6 !max_depth

let test_traveler_eos_stable () =
  let traveler = Core.Traveler.create (Lazy.force paper_kernel) in
  Core.Traveler.iter traveler ~f:(fun _ -> ());
  Alcotest.(check bool) "eos" true (Core.Traveler.next traveler = Core.Traveler.Eos);
  Alcotest.(check bool) "eos again" true
    (Core.Traveler.next traveler = Core.Traveler.Eos)

let test_traveler_threshold_prunes () =
  (* With a threshold of 2.5 every branch estimated at <= 2.5 nodes is cut:
     only a(1), c(2), t(2)... wait cards <= 2.5 are pruned, so only a, c
     with card > 2.5? c has card 2 <= 2.5. Only the root survives below
     threshold pruning of its children except s (5), p (3). *)
  let traveler = Core.Traveler.create ~card_threshold:2.5 (Lazy.force paper_kernel) in
  let labels = ref [] in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open { label = l; _ } ->
        labels := Xml.Label.name (Core.Kernel.table (Lazy.force paper_kernel)) l :: !labels
      | _ -> ());
  (* Root always opens; its children t(1), u(1), c(2) are all pruned. *)
  Alcotest.(check (list string)) "only root survives" [ "a" ] (List.rev !labels)

let test_traveler_recursion_terminates () =
  (* A cyclic kernel (self-loop) must terminate thanks to the level bound. *)
  let k = Core.Builder.of_string "<s><s><s><s/></s></s></s>" in
  let traveler = Core.Traveler.create ~card_threshold:0.0 k in
  let count = ref 0 in
  Core.Traveler.iter traveler ~f:(fun _ -> incr count);
  Alcotest.(check bool) "finite" true (!count < 100)

let test_ept_to_xml () =
  let xml = Core.Traveler.ept_to_xml (Lazy.force paper_kernel) in
  Alcotest.(check bool) "root attrs" true
    (String.length xml > 0
     && (let prefix = "<a dID=\"1.\" card=\"1\" fsel=\"1\" bsel=\"1\">" in
         String.length xml >= String.length prefix
         && String.sub xml 0 (String.length prefix) = prefix));
  (* Spot-check a nested value from the paper's dump. *)
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "1.3.2 p row" true
    (contains xml "<p dID=\"1.3.2.\" card=\"3\" fsel=\"0.25\" bsel=\"1\"/>");
  Alcotest.(check bool) "1.3.3.3 s row" true
    (contains xml "<s dID=\"1.3.3.3.\" card=\"2\" fsel=\"1\" bsel=\"0.4\">")

(* ------------------------------------------------------------------ *)
(* Path hashing *)

let test_path_hash_distinct_on_paper_paths () =
  (* All 14 rooted paths of the example must hash distinctly. *)
  let pt = Pathtree.Path_tree.of_string Datagen.Paper_example.document in
  let hashes =
    List.map
      (fun (labels, _) -> Core.Path_hash.of_labels labels)
      (Pathtree.Path_tree.all_simple_paths pt)
  in
  Alcotest.(check int) "distinct hashes" 14
    (List.length (List.sort_uniq Int.compare hashes))

let test_path_hash_incremental () =
  let h1 = Core.Path_hash.of_labels [ 3; 1; 4 ] in
  let h2 = Core.Path_hash.(extend (extend (extend empty 3) 1) 4) in
  Alcotest.(check int) "of_labels = folded extend" h1 h2

let test_path_hash_order_sensitive () =
  Alcotest.(check bool) "a/b <> b/a" true
    (Core.Path_hash.of_labels [ 0; 1 ] <> Core.Path_hash.of_labels [ 1; 0 ]);
  Alcotest.(check bool) "prefix differs" true
    (Core.Path_hash.of_labels [ 0 ] <> Core.Path_hash.of_labels [ 0; 0 ])

let test_path_hash_branching_keys () =
  let open Core.Path_hash in
  Alcotest.(check int) "predicate order canonical"
    (branching ~parent:5 ~predicates:[ 1; 2 ] ~next:3)
    (branching ~parent:5 ~predicates:[ 2; 1 ] ~next:3);
  Alcotest.(check bool) "next matters" true
    (branching ~parent:5 ~predicates:[ 1 ] ~next:3
     <> branching ~parent:5 ~predicates:[ 1 ] ~next:4);
  Alcotest.(check bool) "predicate vs next distinct" true
    (branching ~parent:5 ~predicates:[ 1 ] ~next:2
     <> branching ~parent:5 ~predicates:[ 2 ] ~next:1);
  Alcotest.(check bool) "no-next sentinel" true
    (branching ~parent:5 ~predicates:[ 1 ] ~next:(-1)
     <> branching ~parent:5 ~predicates:[ 1 ] ~next:0)

let test_path_hash_collision_rate () =
  (* The paper keys the HET by one 32-bit hash and relies on collisions
     being negligible for tens of thousands of paths; measure it. *)
  let rng = Datagen.Rng.create ~seed:99 in
  let seen = Hashtbl.create (1 lsl 17) in
  let collisions = ref 0 in
  let total = 50_000 in
  for _ = 1 to total do
    let len = 1 + Datagen.Rng.int rng 10 in
    let labels = List.init len (fun _ -> Datagen.Rng.int rng 200) in
    let h = Core.Path_hash.of_labels labels in
    match Hashtbl.find_opt seen h with
    | Some other when other <> labels -> incr collisions
    | Some _ -> ()
    | None -> Hashtbl.add seen h labels
  done;
  Alcotest.(check bool)
    (Printf.sprintf "collisions negligible (%d / %d)" !collisions total)
    true
    (!collisions < total / 500)

(* ------------------------------------------------------------------ *)
(* Traveler x HET interaction *)

let test_traveler_het_overrides_card () =
  (* A simple-path HET entry replaces the estimated cardinality and bsel of
     that exact path in the EPT (Section 5's modified EST). *)
  let k = Lazy.force paper_kernel in
  let table = Core.Kernel.table k in
  let labels names = List.map (fun n -> Option.get (Xml.Label.find_opt table n)) names in
  let het = Core.Het.create () in
  Core.Het.add_simple het
    ~hash:(Core.Path_hash.of_labels (labels [ "a"; "c" ]))
    ~card:7 ~bsel:(Some 0.25) ~error:5.0;
  let traveler = Core.Traveler.create ~het k in
  let found = ref None in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open { label; dewey; card; bsel; _ }
        when Xml.Label.name table label = "c"
             && Xml.Dewey.to_string dewey = "1.3." ->
        found := Some (card, bsel)
      | _ -> ());
  Alcotest.(check (option (pair (float 1e-9) (float 1e-9))))
    "card and bsel overridden" (Some (7.0, 0.25)) !found

let test_traveler_het_zero_entry_prunes () =
  let k = Lazy.force paper_kernel in
  let table = Core.Kernel.table k in
  let labels names = List.map (fun n -> Option.get (Xml.Label.find_opt table n)) names in
  let het = Core.Het.create () in
  Core.Het.add_simple het
    ~hash:(Core.Path_hash.of_labels (labels [ "a"; "c"; "s" ]))
    ~card:0 ~bsel:(Some 0.0) ~error:5.0;
  let traveler = Core.Traveler.create ~het k in
  let s_opens = ref 0 in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open { label; _ } when Xml.Label.name table label = "s" ->
        incr s_opens
      | _ -> ());
  (* All s paths hang below a/c/s, so zeroing it prunes every one. *)
  Alcotest.(check int) "subtree pruned" 0 !s_opens

(* ------------------------------------------------------------------ *)
(* Ablation switches *)

let test_collapse_levels_preserves_totals () =
  let k = Lazy.force paper_kernel in
  let flat = Core.Kernel.collapse_levels k in
  Alcotest.(check int) "vertices" (Core.Kernel.vertex_count k)
    (Core.Kernel.vertex_count flat);
  Alcotest.(check int) "edges" (Core.Kernel.edge_count k)
    (Core.Kernel.edge_count flat);
  (* Every edge's level-0 pair in the collapsed kernel is the sum over all
     levels in the original. *)
  let s_label = label k "s" and p_label = label k "p" in
  let e = Option.get (Core.Kernel.find_edge flat s_label p_label) in
  Alcotest.(check (pair int int)) "(s,p) summed" (8, 14)
    (Core.Kernel.edge_counts e 0);
  Alcotest.(check int) "single level" 1 e.levels;
  Alcotest.(check bool) "collapsed kernel is smaller" true
    (Core.Kernel.size_in_bytes flat < Core.Kernel.size_in_bytes k)

let test_recursion_blind_traveler_terminates () =
  (* A collapsed kernel has self-loops with level-0 mass; the blind traveler
     must still terminate via max_depth. *)
  let k = Lazy.force paper_kernel in
  let flat = Core.Kernel.collapse_levels k in
  let traveler =
    Core.Traveler.create ~card_threshold:0.0 ~recursion_aware:false
      ~max_depth:12 flat
  in
  let opens = ref 0 and max_depth = ref 0 and depth = ref 0 in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open _ ->
        incr opens;
        incr depth;
        if !depth > !max_depth then max_depth := !depth
      | Core.Traveler.Close _ -> decr depth
      | Core.Traveler.Eos -> ());
  Alcotest.(check bool) "terminates" true (!opens > 0);
  Alcotest.(check bool) "depth bounded" true (!max_depth <= 12)

let test_recursion_aware_beats_blind () =
  (* On the recursive paper document, //s//s is exact with levels and wrong
     without them. *)
  let k = Lazy.force paper_kernel in
  let flat = Core.Kernel.collapse_levels k in
  let aware = Core.Estimator.create k in
  let blind = Core.Estimator.create ~recursion_aware:false flat in
  let q = Xpath.Parser.parse "//s//s" in
  Alcotest.(check (float 1e-6)) "aware exact" 4.0 (Core.Estimator.estimate aware q);
  let blind_est = Core.Estimator.estimate blind q in
  Alcotest.(check bool)
    (Printf.sprintf "blind differs (%.2f)" blind_est)
    true
    (Float.abs (blind_est -. 4.0) > 0.5)

(* ------------------------------------------------------------------ *)
(* Kernel properties on random documents *)

let gen_doc =
  let open QCheck in
  let labels = [| "a"; "b"; "c" |] in
  let gen rand =
    let buf = Buffer.create 256 in
    let rec node depth =
      let l = labels.(Gen.int_bound (Array.length labels - 1) rand) in
      Buffer.add_string buf ("<" ^ l ^ ">");
      if depth < 6 then
        for _ = 1 to Gen.int_bound 3 rand do node (depth + 1) done;
      Buffer.add_string buf ("</" ^ l ^ ">")
    in
    node 0;
    Buffer.contents buf
  in
  make ~print:(fun d -> d) gen

let prop_child_counts_total =
  (* Observation: summing c_cnt over all levels of edge (u,v) gives the
     number of parent-child pairs (u,v) in the document. *)
  QCheck.Test.make ~count:300 ~name:"kernel child counts sum to edge count" gen_doc
    (fun doc ->
      let tree = Xml.Tree.of_string doc in
      let k = Core.Builder.of_string ~table:tree.table doc in
      (* Count actual parent-child label pairs. *)
      let pairs = Hashtbl.create 16 in
      let rec walk (n : Xml.Tree.node) =
        Array.iter
          (fun (child : Xml.Tree.node) ->
            let key = (n.label, child.label) in
            Hashtbl.replace pairs key
              (1 + Option.value (Hashtbl.find_opt pairs key) ~default:0);
            walk child)
          n.children
      in
      walk tree.root;
      Hashtbl.fold
        (fun (u, v) expected ok ->
          ok
          &&
          match Core.Kernel.find_edge k u v with
          | None -> false
          | Some e ->
            let sum = ref 0 in
            for l = 0 to e.levels - 1 do
              sum := !sum + snd (Core.Kernel.edge_counts e l)
            done;
            !sum = expected)
        pairs true)

let prop_parent_counts_total =
  (* Summing p_cnt over all levels of (u,v) counts the u-nodes having at
     least one v child. *)
  QCheck.Test.make ~count:300 ~name:"kernel parent counts sum to parent count"
    gen_doc (fun doc ->
      let tree = Xml.Tree.of_string doc in
      let k = Core.Builder.of_string ~table:tree.table doc in
      let parents = Hashtbl.create 16 in
      let rec walk (n : Xml.Tree.node) =
        let seen = Hashtbl.create 4 in
        Array.iter
          (fun (child : Xml.Tree.node) ->
            if not (Hashtbl.mem seen child.label) then begin
              Hashtbl.add seen child.label ();
              let key = (n.label, child.label) in
              Hashtbl.replace parents key
                (1 + Option.value (Hashtbl.find_opt parents key) ~default:0)
            end)
          n.children;
        Array.iter walk n.children
      in
      walk tree.root;
      Hashtbl.fold
        (fun (u, v) expected ok ->
          ok
          &&
          match Core.Kernel.find_edge k u v with
          | None -> false
          | Some e ->
            let sum = ref 0 in
            for l = 0 to e.levels - 1 do
              sum := !sum + fst (Core.Kernel.edge_counts e l)
            done;
            !sum = expected)
        parents true)

let prop_serialization_round_trip =
  QCheck.Test.make ~count:200 ~name:"kernel serialization round trip" gen_doc
    (fun doc ->
      let k = Core.Builder.of_string doc in
      Core.Kernel.equal k (Core.Kernel.of_string (Core.Kernel.to_string k)))

let prop_incremental_add =
  (* Adding a fresh-labeled subtree under the root always matches a from-
     scratch build (fresh labels make the connecting-edge assumption hold). *)
  QCheck.Test.make ~count:200 ~name:"incremental add = rebuild" gen_doc (fun doc ->
      let tree = Xml.Tree.of_string doc in
      let root_name = Xml.Label.name tree.table tree.root.label in
      let sub = "<fresh><x1/><x1/></fresh>" in
      let after =
        (* Splice [sub] as the last child of the root. *)
        let body = String.sub doc 0 (String.length doc - (String.length root_name + 3)) in
        body ^ sub ^ "</" ^ root_name ^ ">"
      in
      let k = Core.Builder.of_string ~table:tree.table doc in
      Core.Builder.add_subtree k ~at:[ tree.root.label ] (Xml.Sax.events sub);
      let expected = Core.Builder.of_string ~table:tree.table after in
      Core.Kernel.to_string k = Core.Kernel.to_string expected)

let prop_branching_key_spelling =
  (* The HET's canonical branching key is written into one buffer; its
     bytes must stay the Printf spelling that existing dumps carry. *)
  let label = QCheck.(oneof [ int_range (-1) 300; int ]) in
  QCheck.Test.make ~count:500 ~name:"branching key = Printf spelling"
    QCheck.(triple label (array_of_size Gen.(int_bound 4) label) label)
    (fun (parent, predicates, next) ->
      let predicates = Array.copy predicates in
      Array.sort Int.compare predicates;
      Core.Path_hash.branching_key_of_sorted ~parent ~predicates ~next
      = Printf.sprintf "%d[%s]/%d" parent
          (String.concat "," (Array.to_list (Array.map string_of_int predicates)))
          next)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_counter_matches_naive; prop_child_counts_total;
      prop_parent_counts_total; prop_serialization_round_trip;
      prop_incremental_add; prop_branching_key_spelling ]

let () =
  Alcotest.run "core"
    [
      ( "counter_stacks",
        [
          Alcotest.test_case "figure 3" `Quick test_counter_figure3;
          Alcotest.test_case "pop validation" `Quick test_counter_pop_validation;
          Alcotest.test_case "interleaved labels" `Quick test_counter_interleaved;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "example 2 edges" `Quick test_kernel_example2;
          Alcotest.test_case "total children" `Quick test_kernel_total_children;
          Alcotest.test_case "observation 3" `Quick test_kernel_observation3;
          Alcotest.test_case "size" `Quick test_kernel_size_small;
          Alcotest.test_case "serialization" `Quick test_kernel_serialization_round_trip;
          Alcotest.test_case "copy independence" `Quick test_kernel_copy_independent;
          Alcotest.test_case "malformed dump" `Quick test_kernel_of_string_malformed;
        ] );
      ( "builder",
        [
          Alcotest.test_case "add subtree" `Quick test_builder_add_subtree;
          Alcotest.test_case "add recursive subtree" `Quick
            test_builder_add_recursive_subtree;
          Alcotest.test_case "remove subtree" `Quick test_builder_remove_subtree;
          Alcotest.test_case "add/remove round trip" `Quick
            test_builder_add_remove_round_trip;
          Alcotest.test_case "bad subtrees rejected" `Quick
            test_builder_rejects_bad_subtrees;
        ] );
      ( "path_hash",
        [
          Alcotest.test_case "distinct on paper paths" `Quick
            test_path_hash_distinct_on_paper_paths;
          Alcotest.test_case "incremental" `Quick test_path_hash_incremental;
          Alcotest.test_case "order sensitive" `Quick test_path_hash_order_sensitive;
          Alcotest.test_case "branching keys" `Quick test_path_hash_branching_keys;
          Alcotest.test_case "collision rate" `Quick test_path_hash_collision_rate;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "collapse levels" `Quick
            test_collapse_levels_preserves_totals;
          Alcotest.test_case "blind traveler terminates" `Quick
            test_recursion_blind_traveler_terminates;
          Alcotest.test_case "recursion awareness wins" `Quick
            test_recursion_aware_beats_blind;
        ] );
      ( "traveler",
        [
          Alcotest.test_case "het overrides card" `Quick
            test_traveler_het_overrides_card;
          Alcotest.test_case "het zero entry prunes" `Quick
            test_traveler_het_zero_entry_prunes;
          Alcotest.test_case "paper EPT" `Quick test_traveler_ept;
          Alcotest.test_case "balanced events" `Quick test_traveler_balanced;
          Alcotest.test_case "eos stable" `Quick test_traveler_eos_stable;
          Alcotest.test_case "threshold prunes" `Quick test_traveler_threshold_prunes;
          Alcotest.test_case "recursion terminates" `Quick
            test_traveler_recursion_terminates;
          Alcotest.test_case "ept_to_xml" `Quick test_ept_to_xml;
        ] );
      ("properties", props);
    ]
