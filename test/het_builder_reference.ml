(* Reference HET builder: [Core.Het_builder.build] as it was when every
   branching candidate's correlated bsel was measured with two whole-document
   NoK evaluations (the paper's Section 5 procedure, one NoK run per
   pattern). Kept verbatim in enumeration order, arithmetic and insertion
   order so the differential suite can demand that the one-scan builder
   produce the same HET bytes and the same statistics.

   Per candidate it builds the [//p/r] (or [//p]) and [//p[q1]..[qk]/r] (or
   [//p[q1]..[qk]]) ASTs and runs [Nok.Eval.cardinality] over the storage:
   slow, but obviously what the pattern counts mean. *)

(* Estimated cardinality of every rooted simple path in one EPT pass: each
   EPT node is a distinct rooted label path, so its card IS the kernel
   estimate of that path. Returns hash -> (estimated card, canonical path). *)
let ept_estimates ~card_threshold kernel =
  let estimates = Hashtbl.create 1024 in
  let traveler = Core.Traveler.create ~card_threshold kernel in
  let stack = ref [] in
  Core.Traveler.iter traveler ~f:(fun event ->
      match event with
      | Core.Traveler.Open info ->
        let h, key =
          match !stack with
          | [] ->
            (Core.Path_hash.extend Core.Path_hash.empty info.label,
             string_of_int info.label)
          | (ph, pkey) :: _ ->
            (Core.Path_hash.extend ph info.label,
             pkey ^ "/" ^ string_of_int info.label)
        in
        stack := (h, key) :: !stack;
        Hashtbl.replace estimates h (info.card, key)
      | Core.Traveler.Close _ ->
        (match !stack with [] -> () | _ :: rest -> stack := rest)
      | Core.Traveler.Eos -> ());
  estimates

(* Queries used to measure actual correlated selectivities: all of the form
   //p[q1]..[qk]/r or //p[q1]..[qk], built directly as ASTs. *)
let pattern_query table ~parent ~predicates ~next =
  let name l = Xpath.Ast.Name (Xml.Label.name table l) in
  let step axis test predicates =
    { Xpath.Ast.axis; test; predicates; value_predicates = [] }
  in
  let preds =
    List.map (fun q -> [ step Xpath.Ast.Child (name q) [] ]) predicates
  in
  let p = step Xpath.Ast.Descendant (name parent) preds in
  match next with
  | Some r -> [ p; step Xpath.Ast.Child (name r) [] ]
  | None -> [ p ]

let build ?(mbp = 1) ?(bsel_threshold = 0.1) ?(card_threshold = 0.5)
    ?(max_branching_candidates = 50_000) ?(zero_entries = true) ~kernel
    ~path_tree ?storage () =
  let het = Core.Het.create () in
  let table = Core.Kernel.table kernel in
  let estimates = ept_estimates ~card_threshold kernel in
  let simple = ref 0 and zero = ref 0 and branching = ref 0 in
  let candidates = ref 0 and nok_evals = ref 0 in

  (* Simple-path entries: actual card and bsel from the path tree, error
     against the kernel estimate read off the EPT. *)
  Pathtree.Path_tree.iter_paths path_tree ~f:(fun labels ~parent node ->
      let hash = Core.Path_hash.of_labels labels in
      let path = Core.Path_hash.key_of_labels labels in
      let est =
        match Hashtbl.find_opt estimates hash with
        | Some (e, key) when key = path ->
          Hashtbl.remove estimates hash;
          e
        | _ -> 0.0
      in
      let actual = node.cardinality in
      let bsel = Pathtree.Path_tree.bsel path_tree ~parent node in
      let error = Float.abs (est -. float_of_int actual) in
      incr simple;
      Core.Het.add_simple het ~hash ~path ~card:actual ~bsel:(Some bsel) ~error);

  (* What remains in [estimates] are false-positive paths: derivable from
     the kernel but absent from the document. A zero-cardinality entry both
     fixes their estimate and stops the traveler from expanding them. *)
  if zero_entries then
    Hashtbl.iter
      (fun hash (est, path) ->
        if est > 0.0 then begin
          incr zero;
          Core.Het.add_simple het ~hash ~path ~card:0 ~bsel:(Some 0.0) ~error:est
        end)
      estimates;

  (* Branching entries need actual evaluation: NoK over the storage. *)
  (match storage with
   | None -> ()
   | Some storage when mbp >= 1 ->
     let ept =
       Core.Matcher.materialize (Core.Traveler.create ~card_threshold kernel)
     in
     let estimate path =
       Core.Matcher.estimate ~table ept (Xpath.Query_tree.of_path path)
     in
     let actual path =
       incr nok_evals;
       Nok.Eval.cardinality storage path
     in
     let seen = Hashtbl.create 256 in
     let consider ~parent_label ~preds ~next =
       if !candidates < max_branching_candidates then begin
         let next_label = match next with Some r -> r | None -> -1 in
         let hash =
           Core.Path_hash.branching ~parent:parent_label ~predicates:preds
             ~next:next_label
         in
         let path =
           Core.Path_hash.branching_key ~parent:parent_label ~predicates:preds
             ~next:next_label
         in
         if not (Hashtbl.mem seen hash) then begin
           Hashtbl.add seen hash ();
           incr candidates;
           (* Correlated bsel: P(p has all predicate children | p has r). *)
           let denom =
             actual (pattern_query table ~parent:parent_label ~predicates:[] ~next)
           in
           if denom > 0 then begin
             let joint =
               actual
                 (pattern_query table ~parent:parent_label ~predicates:preds ~next)
             in
             (* [joint] counts p (or r) nodes under the predicates; both
                queries count the same node kind, so the ratio is the
                conditional selectivity. *)
             let bsel = float_of_int joint /. float_of_int denom in
             let q = pattern_query table ~parent:parent_label ~predicates:preds ~next in
             let err = Float.abs (estimate q -. float_of_int joint) in
             incr branching;
             Core.Het.add_branching het ~hash ~path ~bsel ~error:err
           end
         end
       end
     in
     (* Enumerate label patterns from the path tree: for each internal node,
        low-bsel children become predicates, siblings become the next step. *)
     Pathtree.Path_tree.iter_paths path_tree ~f:(fun _labels ~parent:_ node ->
         let kids = node.children in
         let low =
           List.filter
             (fun (k : Pathtree.Path_tree.node) ->
               Pathtree.Path_tree.bsel path_tree ~parent:(Some node) k
               < bsel_threshold)
             kids
         in
         List.iter
           (fun (q : Pathtree.Path_tree.node) ->
             List.iter
               (fun (r : Pathtree.Path_tree.node) ->
                 if r.label <> q.label then
                   consider ~parent_label:node.label ~preds:[ q.label ]
                     ~next:(Some r.label))
               kids;
             consider ~parent_label:node.label ~preds:[ q.label ] ~next:None;
             if mbp >= 2 then
               List.iter
                 (fun (q2 : Pathtree.Path_tree.node) ->
                   if q2.label <> q.label then begin
                     let preds = [ q.label; q2.label ] in
                     List.iter
                       (fun (r : Pathtree.Path_tree.node) ->
                         if r.label <> q.label && r.label <> q2.label then
                           consider ~parent_label:node.label ~preds
                             ~next:(Some r.label))
                       kids;
                     consider ~parent_label:node.label ~preds ~next:None;
                     if mbp >= 3 then
                       List.iter
                         (fun (q3 : Pathtree.Path_tree.node) ->
                           if q3.label <> q.label && q3.label <> q2.label then
                             List.iter
                               (fun (r : Pathtree.Path_tree.node) ->
                                 if
                                   r.label <> q.label && r.label <> q2.label
                                   && r.label <> q3.label
                                 then
                                   consider ~parent_label:node.label
                                     ~preds:[ q.label; q2.label; q3.label ]
                                     ~next:(Some r.label))
                               kids)
                         kids
                   end)
                 kids)
           low)
   | Some _ -> ());
  ( het,
    { Core.Het_builder.simple_entries = !simple; zero_entries = !zero;
      branching_entries = !branching; branching_candidates = !candidates;
      nok_evaluations = !nok_evals } )
