(* Reference matcher: the recursive pointer-tree implementation of paper
   Algorithm 3 that [Core.Matcher] replaced with a flat preorder layout,
   kept verbatim in arithmetic and operation order so the differential
   suite can demand bit-identical floats, equal match statistics and equal
   HET counter deltas from the optimized matcher.

   Every per-node quantity is a freshly allocated array, the query is
   re-inspected at every EPT node through lists, and HET keys are built
   on every branching lookup: slow, but obviously the paper's two passes. *)

type node = {
  mutable id : int;  (* preorder index *)
  label : Xml.Label.t;
  card : float;
  bsel : float;
  children : node array;
}

type ept = { root : node; nodes : int }

let materialize traveler =
  let count = ref 0 in
  (* Stack of (open_info, preorder id, reversed children). *)
  let stack = ref [] in
  let finished = ref None in
  let rec drain () =
    match Core.Traveler.next traveler with
    | Core.Traveler.Eos -> ()
    | Core.Traveler.Open info ->
      incr count;
      stack := (info, !count - 1, ref []) :: !stack;
      drain ()
    | Core.Traveler.Close _ ->
      (match !stack with
       | [] -> invalid_arg "Matcher_reference.materialize: unbalanced events"
       | ((info : Core.Traveler.open_info), id, kids) :: rest ->
         let node =
           { id; label = info.label; card = info.card; bsel = info.bsel;
             children = Array.of_list (List.rev !kids) }
         in
         (match rest with
          | [] -> finished := Some node
          | (_, _, parent_kids) :: _ -> parent_kids := node :: !parent_kids);
         stack := rest;
         drain ())
  in
  drain ();
  match !finished with
  | Some root -> { root; nodes = !count }
  | None -> invalid_arg "Matcher_reference.materialize: no events"

let node_count ept = ept.nodes

let synthetic_node ~label ~card ~bsel ~children =
  { id = 0; label; card; bsel; children = Array.of_list children }

let of_synthetic root =
  let next = ref 0 in
  let rec go n =
    n.id <- !next;
    incr next;
    Array.iter go n.children
  in
  go root;
  { root; nodes = !next }

type compiled = {
  size : int;
  test : int array;  (* label id, -1 wildcard, -2 unknown name *)
  is_descendant : bool array;
  parent : int array;
  preds : int list array;
  spine : int array;
  kids : int list array;  (* preds @ spine *)
  vpreds : Xpath.Ast.value_predicate list array;
  on_result_path : bool array;
  result_id : int;
}

let compile table (qt : Xpath.Query_tree.t) =
  if qt.size > 62 then invalid_arg "Matcher_reference: more than 62 steps";
  let test = Array.make qt.size (-2) in
  let is_descendant = Array.make qt.size false in
  let parent = Array.make qt.size (-1) in
  let preds = Array.make qt.size [] in
  let spine = Array.make qt.size (-1) in
  let kids = Array.make qt.size [] in
  let vpreds = Array.make qt.size [] in
  let on_result_path = Array.make qt.size false in
  Xpath.Query_tree.iter qt ~f:(fun n ->
      test.(n.id) <-
        (match n.test with
         | Xpath.Ast.Wildcard -> -1
         | Xpath.Ast.Name name ->
           (match Xml.Label.find_opt table name with Some l -> l | None -> -2));
      is_descendant.(n.id) <- n.axis = Xpath.Ast.Descendant;
      on_result_path.(n.id) <- n.on_result_path;
      vpreds.(n.id) <- n.value_predicates;
      preds.(n.id) <- List.map (fun c -> c.Xpath.Query_tree.id) n.predicates;
      (match n.spine with Some s -> spine.(n.id) <- s.id | None -> ());
      let children = Xpath.Query_tree.children n in
      kids.(n.id) <- List.map (fun c -> c.Xpath.Query_tree.id) children;
      List.iter (fun c -> parent.(c.Xpath.Query_tree.id) <- n.id) children);
  { size = qt.size; test; is_descendant; parent; preds; spine; kids; vpreds;
    on_result_path; result_id = qt.result.id }

let test_matches c q label = c.test.(q) = -1 || c.test.(q) = label

let noisy_or a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

let fresh_stats () : Core.Matcher.match_stats =
  { ept_nodes = 0; frontier = 0; frontier_peak = 0; frontier_sum = 0;
    match_steps = 0; het_joint_overrides = 0; het_single_overrides = 0;
    independence_preds = 0 }

let value_factor values c node_label q =
  match values with
  | None -> 1.0
  | Some vs ->
    List.fold_left
      (fun acc vp ->
        acc *. Core.Value_synopsis.selectivity vs ~context:node_label vp)
      1.0 c.vpreds.(q)

type scratch = { sc_c_or : float array array; sc_d_or : float array array }

let fresh_scratch ept =
  { sc_c_or = Array.make ept.nodes [||]; sc_d_or = Array.make ept.nodes [||] }

(* Bottom-up: fill every node's c_or / d_or slots and return its m vector.
   m.(q) = P(this node embeds the full pattern subtree of q | it exists). *)
let rec bottom_up ?values (ms : Core.Matcher.match_stats) sc c node =
  let q_n = c.size in
  ms.ept_nodes <- ms.ept_nodes + 1;
  ms.match_steps <- ms.match_steps + q_n;
  let c_or = Array.make q_n 0.0 in
  let d_or = Array.make q_n 0.0 in
  sc.sc_c_or.(node.id) <- c_or;
  sc.sc_d_or.(node.id) <- d_or;
  ms.frontier <- ms.frontier + Array.length node.children;
  if ms.frontier > ms.frontier_peak then ms.frontier_peak <- ms.frontier;
  ms.frontier_sum <- ms.frontier_sum + ms.frontier;
  let kid_ms = Array.map (bottom_up ?values ms sc c) node.children in
  ms.frontier <- ms.frontier - Array.length node.children;
  Array.iteri
    (fun i kid ->
      let m_kid = kid_ms.(i) in
      let kid_d_or = sc.sc_d_or.(kid.id) in
      for q = 0 to q_n - 1 do
        c_or.(q) <- noisy_or c_or.(q) (kid.bsel *. m_kid.(q));
        let below = noisy_or m_kid.(q) kid_d_or.(q) in
        d_or.(q) <- noisy_or d_or.(q) (kid.bsel *. below)
      done)
    node.children;
  let m = Array.make q_n 0.0 in
  for q = 0 to q_n - 1 do
    if test_matches c q node.label then begin
      let sat = ref (value_factor values c node.label q) in
      List.iter
        (fun k ->
          let p = if c.is_descendant.(k) then d_or.(k) else c_or.(k) in
          sat := !sat *. p)
        c.kids.(q);
      m.(q) <- !sat
    end
  done;
  m

let pred_factor het (ms : Core.Matcher.match_stats) sc c node q =
  let plain k =
    ms.independence_preds <- ms.independence_preds + 1;
    if c.is_descendant.(k) then sc.sc_d_or.(node.id).(k)
    else sc.sc_c_or.(node.id).(k)
  in
  match het with
  | None -> List.fold_left (fun acc k -> acc *. plain k) 1.0 c.preds.(q)
  | Some het ->
    let next = if c.spine.(q) >= 0 then c.test.(c.spine.(q)) else -1 in
    let simple_pred k =
      (not c.is_descendant.(k)) && c.test.(k) >= 0 && c.kids.(k) = []
    in
    let eligible, rest = List.partition simple_pred c.preds.(q) in
    let rest_factor = List.fold_left (fun acc k -> acc *. plain k) 1.0 rest in
    let joint =
      match eligible with
      | _ :: _ :: _ when next >= -1 ->
        let predicates = List.map (fun k -> c.test.(k)) eligible in
        let hash =
          Core.Path_hash.branching ~parent:node.label ~predicates ~next
        in
        Core.Het.lookup_branching het
          ~path:(Core.Path_hash.branching_key ~parent:node.label ~predicates ~next)
          hash
      | _ -> None
    in
    (match joint with
     | Some bsel ->
       ms.het_joint_overrides <- ms.het_joint_overrides + 1;
       bsel *. rest_factor
     | None ->
       List.fold_left
         (fun acc k ->
           let predicates = [ c.test.(k) ] in
           let hash =
             Core.Path_hash.branching ~parent:node.label ~predicates ~next
           in
           let path =
             Core.Path_hash.branching_key ~parent:node.label ~predicates ~next
           in
           let factor =
             match Core.Het.lookup_branching het ~path hash with
             | Some bsel ->
               ms.het_single_overrides <- ms.het_single_overrides + 1;
               bsel
             | None -> plain k
           in
           acc *. factor)
         rest_factor eligible)

let rec top_down ?values het (ms : Core.Matcher.match_stats) sc c node
    ~is_root ~parent_a ~anc_or acc =
  let q_n = c.size in
  ms.match_steps <- ms.match_steps + q_n;
  let a = Array.make q_n 0.0 in
  for q = 0 to q_n - 1 do
    if c.on_result_path.(q) && test_matches c q node.label then begin
      let anc_factor =
        let p = c.parent.(q) in
        if p < 0 then if c.is_descendant.(q) then 1.0 else if is_root then 1.0 else 0.0
        else if c.is_descendant.(q) then anc_or.(p)
        else parent_a.(p)
      in
      if anc_factor > 0.0 then
        a.(q) <-
          anc_factor *. pred_factor het ms sc c node q
          *. value_factor values c node.label q
    end
  done;
  acc := !acc +. (node.card *. a.(c.result_id));
  let anc_or' = Array.init q_n (fun q -> noisy_or anc_or.(q) a.(q)) in
  Array.iter
    (fun kid ->
      top_down ?values het ms sc c kid ~is_root:false ~parent_a:a
        ~anc_or:anc_or' acc)
    node.children

let estimate_with_stats ?het ?values ~table ept qt =
  let c = compile table qt in
  let ms = fresh_stats () in
  let sc = fresh_scratch ept in
  ignore (bottom_up ?values ms sc c ept.root : float array);
  let acc = ref 0.0 in
  let zeros = Array.make c.size 0.0 in
  top_down ?values het ms sc c ept.root ~is_root:true ~parent_a:zeros
    ~anc_or:zeros acc;
  (!acc, ms)
