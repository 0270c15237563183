exception Ept_too_large of int

(* The EPT in preorder struct-of-arrays form: node [n]'s fields live at
   index [n] of each column, children are threaded through
   [first_child]/[next_sibling] in document order, and every descendant of
   [n] has a larger id. Immutable once built, so one EPT serves concurrent
   estimates from several domains (the serving pool shares one across its
   workers with no locks): per-estimate accumulators live in a domain-local
   {!scratch}, never in the EPT. *)
type ept = {
  nodes : int;
  label : Xml.Label.t array;
  card : float array;
  bsel : float array;
  depth : int array;  (* root 0 *)
  first_child : int array;  (* -1 for a leaf *)
  next_sibling : int array;  (* -1 for a last child *)
  max_depth : int;
  frontier_peak : int;
  frontier_sum : int;
}

(* The columns from the nodes in preorder, given newest first as
   (label, card, bsel, depth). A node's parent is the last node seen one
   level up, and its previous sibling the last node seen at its own level
   if that came after the parent. The frontier at a node is the number of
   candidate match vectors live when Algorithm 3 visits it: the children
   counts of every node on its root path, itself included. It depends on
   the EPT alone, so it is taken here, once. *)
let of_preorder rev_nodes =
  let nodes = Array.of_list (List.rev rev_nodes) in
  let n = Array.length nodes in
  let depth = Array.map (fun (_, _, _, d) -> d) nodes in
  let max_depth = Array.fold_left max 0 depth in
  let first_child = Array.make n (-1) and next_sibling = Array.make n (-1) in
  let kids = Array.make n 0 and last_at = Array.make (max_depth + 1) (-1) in
  Array.iteri
    (fun i d ->
      if d > 0 then begin
        let p = last_at.(d - 1) and prev = last_at.(d) in
        if prev > p then next_sibling.(prev) <- i else first_child.(p) <- i;
        kids.(p) <- kids.(p) + 1
      end;
      last_at.(d) <- i)
    depth;
  let frontier_at = Array.make (max_depth + 1) 0 in
  let peak = ref 0 and sum = ref 0 in
  Array.iteri
    (fun i d ->
      let f = (if d = 0 then 0 else frontier_at.(d - 1)) + kids.(i) in
      frontier_at.(d) <- f;
      peak := max !peak f;
      sum := !sum + f)
    depth;
  { nodes = n; label = Array.map (fun (l, _, _, _) -> l) nodes;
    card = Array.map (fun (_, c, _, _) -> c) nodes;
    bsel = Array.map (fun (_, _, b, _) -> b) nodes; depth; first_child;
    next_sibling; max_depth; frontier_peak = !peak; frontier_sum = !sum }

let materialize ?(max_nodes = 2_000_000) ?obs traveler =
  let unbalanced () =
    invalid_arg "Matcher.materialize: unbalanced traveler events"
  in
  let rec drain acc count depth =
    match Traveler.next traveler with
    | Traveler.Eos ->
      if count = 0 || depth > 0 then
        invalid_arg "Matcher.materialize: traveler produced no events";
      acc
    | Traveler.Open info ->
      if count + 1 > max_nodes then raise (Ept_too_large (count + 1));
      if count > 0 && depth = 0 then unbalanced ();
      drain
        ((info.label, info.card, info.bsel, depth) :: acc)
        (count + 1) (depth + 1)
    | Traveler.Close _ ->
      if depth = 0 then unbalanced ();
      drain acc count (depth - 1)
  in
  let ept = of_preorder (drain [] 0 0) in
  Obs.add_to ?obs "matcher.ept_nodes" ept.nodes;
  ept

let node_count ept = ept.nodes

type synthetic = {
  s_label : Xml.Label.t;
  s_card : float;
  s_bsel : float;
  s_children : synthetic list;
}

let synthetic_node ~label ~card ~bsel ~children =
  { s_label = label; s_card = card; s_bsel = bsel; s_children = children }

let of_synthetic root =
  let rec go depth acc s =
    List.fold_left (go (depth + 1))
      ((s.s_label, s.s_card, s.s_bsel, depth) :: acc)
      s.s_children
  in
  of_preorder (go 0 [] root)

(* Compiled query mirror (same shape as Nok.Eval's), with everything the
   passes would otherwise recompute per EPT node precomputed per query
   node: children as int arrays, the HET eligible/rest partition of the
   predicates and their sorted labels. *)
type compiled = {
  size : int;
  test : int array;  (* label id, -1 wildcard, -2 unknown name *)
  is_descendant : bool array;
  parent : int array;
  preds : int array array;  (* predicate children *)
  kid_slots : int array array;
      (* a predicate node's children (preds then spine) as scratch slots *)
  vpreds : Xpath.Ast.value_predicate list array;
  result_path : int array;  (* the spine from the root, ascending ids *)
  pred_nodes : int array;  (* every other node: the predicate subtrees *)
  slot : int array;  (* index in [pred_nodes], -1 on the result path *)
  result_id : int;
  next : int array;  (* label test of the spine child, -1 when none *)
  eligible : int array array;
      (* HET-pattern predicates: child axis, name test, no nested steps *)
  rest : int array array;  (* the other predicates *)
  eligible_sorted : int array array;  (* labels of [eligible], ascending *)
  single : int array array;  (* [| test.(k) |] for an eligible k *)
}

let compile table (qt : Xpath.Query_tree.t) =
  if qt.size > 62 then invalid_arg "Matcher: query has more than 62 steps";
  let size = qt.size in
  let test = Array.make size (-2) in
  let is_descendant = Array.make size false in
  let parent = Array.make size (-1) in
  let preds = Array.make size [||] in
  let spine = Array.make size (-1) in
  let kids = Array.make size [||] in
  let vpreds = Array.make size [] in
  let result_path = ref [] and pred_nodes = ref [] in
  let ids nodes = Array.of_list (List.map (fun c -> c.Xpath.Query_tree.id) nodes) in
  Xpath.Query_tree.iter qt ~f:(fun n ->
      test.(n.id) <-
        (match n.test with
         | Xpath.Ast.Wildcard -> -1
         | Xpath.Ast.Name name ->
           (match Xml.Label.find_opt table name with Some l -> l | None -> -2));
      is_descendant.(n.id) <- n.axis = Xpath.Ast.Descendant;
      if n.on_result_path then result_path := n.id :: !result_path
      else pred_nodes := n.id :: !pred_nodes;
      vpreds.(n.id) <- n.value_predicates;
      preds.(n.id) <- ids n.predicates;
      (match n.spine with Some s -> spine.(n.id) <- s.id | None -> ());
      kids.(n.id) <- ids (Xpath.Query_tree.children n);
      Array.iter (fun k -> parent.(k) <- n.id) kids.(n.id));
  let simple_pred k =
    (not is_descendant.(k)) && test.(k) >= 0 && Array.length kids.(k) = 0
  in
  let eligible, rest =
    Array.split
      (Array.map
         (fun ps ->
           let e, r = List.partition simple_pred (Array.to_list ps) in
           (Array.of_list e, Array.of_list r))
         preds)
  in
  let sorted_labels ks =
    let ls = Array.map (fun k -> test.(k)) ks in
    Array.sort Int.compare ls;
    ls
  in
  let pred_nodes = Array.of_list (List.rev !pred_nodes) in
  let slot = Array.make size (-1) in
  Array.iteri (fun i q -> slot.(q) <- i) pred_nodes;
  { size; test; is_descendant; parent; preds;
    kid_slots = Array.map (Array.map (fun k -> slot.(k))) kids; vpreds;
    result_path = Array.of_list (List.rev !result_path); pred_nodes; slot;
    result_id = qt.result.id;
    next = Array.map (fun s -> if s >= 0 then test.(s) else -1) spine;
    eligible; rest;
    eligible_sorted = Array.map sorted_labels eligible;
    single =
      Array.init size (fun k -> if simple_pred k then [| test.(k) |] else [||]) }

let[@inline] noisy_or a b = 1.0 -. ((1.0 -. a) *. (1.0 -. b))

type match_stats = {
  mutable ept_nodes : int;
  mutable frontier : int;
  mutable frontier_peak : int;
  mutable frontier_sum : int;
  mutable match_steps : int;
  mutable het_joint_overrides : int;
  mutable het_single_overrides : int;
  mutable independence_preds : int;
}

(* Selectivity of value predicates at a node with this label, multiplied in
   query order. With no value synopsis the predicates are ignored (factor
   1), preserving the purely structural behaviour of the paper. *)
let rec value_product vs label acc = function
  | [] -> acc
  | vp :: rest ->
    value_product vs label
      (acc *. Value_synopsis.selectivity vs ~context:label vp)
      rest

let value_factor values c label q =
  match values with
  | None -> 1.0
  | Some vs -> value_product vs label 1.0 c.vpreds.(q)

(* Per-estimate accumulators.

   [any] and [m] are node-major EPT columns with one cell per predicate
   QTN: cell [n * |pred_nodes| + slot q]. Predicate factors are all the
   top-down pass reads of the bottom-up one, so the spine's embeddings
   are never computed. [m] is P(node n embeds QTN q's pattern subtree).
   [any] is P(some child of n embeds it) for a child-axis q, P(some proper
   descendant does) for a descendant-axis q: a QTN is only ever matched
   along its own axis, so the other of the pair is never read and never
   computed.

   [a] and [anc] hold the top-down pass, one row of [size] cells per
   depth: the node being visited at depth [d] writes row [d + 1] and reads
   its parent's in row [d]; row 0 is the zero row above the root. [a] is
   P(valid image of result-path QTN q), [anc] its noisy-or over the
   ancestors. Only result-path cells are written or read.

   The arrays are only ever extended. *)
type scratch = {
  mutable busy : bool;
  mutable any : float array;
  mutable m : float array;
  mutable a : float array;
  mutable anc : float array;
}

let empty_scratch () = { busy = false; any = [||]; m = [||]; a = [||]; anc = [||] }

(* One scratch per domain. A domain runs one estimate at a time (there are
   no systhreads), so the busy flag only trips on re-entry, which then
   gets a private scratch. *)
let scratch_key = Domain.DLS.new_key empty_scratch

let ensure sc ~cells ~rows =
  if Array.length sc.any < cells then begin
    sc.any <- Array.make cells 0.0;
    sc.m <- Array.make cells 0.0
  end;
  if Array.length sc.a < rows then begin
    sc.a <- Array.make rows 0.0;
    sc.anc <- Array.make rows 0.0
  end

(* Bottom-up, by descending id so every child is done before its parent:
   fold each node's children in sibling order into its [any] cells, then
   fill its [m] cells. *)
let bottom_up values sc c ept =
  let qs = c.pred_nodes in
  let np = Array.length qs in
  let any = sc.any and m = sc.m in
  let test = c.test and is_descendant = c.is_descendant in
  let valued = Option.is_some values in
  for n = (if np = 0 then -1 else ept.nodes - 1) downto 0 do
    let base = n * np in
    for j = 0 to np - 1 do
      any.(base + j) <- 0.0
    done;
    let kid = ref ept.first_child.(n) in
    while !kid >= 0 do
      let k = !kid in
      let kb = k * np and bs = ept.bsel.(k) in
      for j = 0 to np - 1 do
        let m_kid = m.(kb + j) in
        any.(base + j) <-
          noisy_or any.(base + j)
            (if is_descendant.(qs.(j)) then bs *. noisy_or m_kid any.(kb + j)
             else bs *. m_kid)
      done;
      kid := ept.next_sibling.(k)
    done;
    let label = ept.label.(n) in
    for j = 0 to np - 1 do
      let q = qs.(j) in
      let t = test.(q) in
      if t = -1 || t = label then begin
        let sat = ref (if valued then value_factor values c label q else 1.0) in
        let ks = c.kid_slots.(q) in
        for i = 0 to Array.length ks - 1 do
          sat := !sat *. any.(base + ks.(i))
        done;
        m.(base + j) <- !sat
      end
      else m.(base + j) <- 0.0
    done
  done

let[@inline] plain ms sc c base k =
  ms.independence_preds <- ms.independence_preds + 1;
  sc.any.(base + c.slot.(k))

(* Predicate factor at a spine node, with HET correlated-bsel overrides.
   A child-axis single-name predicate pattern p[q1]..[qk]/r is looked up
   jointly first, then each predicate singly; remaining predicates fall back
   to the independence factors from the bottom-up pass. *)
let[@inline] pred_factor het ms sc c base label q =
  match het with
  | None ->
    let acc = ref 1.0 and ps = c.preds.(q) in
    for i = 0 to Array.length ps - 1 do
      acc := !acc *. plain ms sc c base ps.(i)
    done;
    !acc
  | Some het ->
    let next = c.next.(q) and eligible = c.eligible.(q) in
    let rest_factor = ref 1.0 and rest = c.rest.(q) in
    for i = 0 to Array.length rest - 1 do
      rest_factor := !rest_factor *. plain ms sc c base rest.(i)
    done;
    let joint =
      if Array.length eligible >= 2 && next >= -1 then
        Het.lookup_branching_pattern het ~parent:label
          ~predicates:c.eligible_sorted.(q) ~next
      else None
    in
    (match joint with
     | Some bsel ->
       ms.het_joint_overrides <- ms.het_joint_overrides + 1;
       bsel *. !rest_factor
     | None ->
       let acc = ref !rest_factor in
       for i = 0 to Array.length eligible - 1 do
         let k = eligible.(i) in
         let factor =
           match
             Het.lookup_branching_pattern het ~parent:label
               ~predicates:c.single.(k) ~next
           with
           | Some bsel ->
             ms.het_single_overrides <- ms.het_single_overrides + 1;
             bsel
           | None -> plain ms sc c base k
         in
         acc := !acc *. factor
       done;
       !acc)

(* Top-down, by ascending id so every parent is done before its children:
   a = P(node is a valid image of result-path QTN q given its own
   existence), combining test, predicates (structural and value) and
   ancestor validity; the estimate sums card × a(result) in preorder. *)
let top_down values het ms sc c ept =
  let qn = c.size in
  let a = sc.a and anc = sc.anc in
  let path = c.result_path and test = c.test in
  let parent = c.parent and is_descendant = c.is_descendant in
  let valued = Option.is_some values in
  for q = 0 to qn - 1 do
    a.(q) <- 0.0;
    anc.(q) <- 0.0
  done;
  let acc = ref 0.0 in
  let np = Array.length c.pred_nodes in
  for n = 0 to ept.nodes - 1 do
    let base = n * np in
    let d = ept.depth.(n) in
    let up = d * qn and row = (d + 1) * qn in
    let label = ept.label.(n) in
    for i = 0 to Array.length path - 1 do
      let q = path.(i) in
      let t = test.(q) in
      let v =
        if t = -1 || t = label then begin
          let p = parent.(q) in
          let anc_factor =
            if p < 0 then
              if is_descendant.(q) then 1.0 else if n = 0 then 1.0 else 0.0
            else if is_descendant.(q) then anc.(up + p)
            else a.(up + p)
          in
          if anc_factor > 0.0 then
            let pf =
              if Array.length c.preds.(q) = 0 then 1.0
              else pred_factor het ms sc c base label q
            in
            anc_factor *. pf
            *. if valued then value_factor values c label q else 1.0
          else 0.0
        end
        else 0.0
      in
      a.(row + q) <- v;
      anc.(row + q) <- noisy_or anc.(up + q) v
    done;
    acc := !acc +. (ept.card.(n) *. a.(row + c.result_id))
  done;
  !acc

let acquire () =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then empty_scratch ()
  else begin
    sc.busy <- true;
    sc
  end

let estimate_with_stats ?het ?values ~table ept qt =
  let c = compile table qt in
  let sc = acquire () in
  ensure sc
    ~cells:(ept.nodes * Array.length c.pred_nodes)
    ~rows:((ept.max_depth + 2) * c.size);
  (* [match_steps] is the work bound of both passes, every node at every
     query-tree node; the frontier statistics are the EPT's own. *)
  let ms =
    { ept_nodes = ept.nodes; frontier = 0; frontier_peak = ept.frontier_peak;
      frontier_sum = ept.frontier_sum; match_steps = 2 * ept.nodes * c.size;
      het_joint_overrides = 0; het_single_overrides = 0; independence_preds = 0 }
  in
  match
    bottom_up values sc c ept;
    top_down values het ms sc c ept
  with
  | estimate ->
    sc.busy <- false;
    (estimate, ms)
  | exception e ->
    sc.busy <- false;
    raise e

let publish_stats ?obs ms =
  match obs with
  | None -> ()
  | Some _ ->
    Obs.add_to ?obs "matcher.match_steps" ms.match_steps;
    Obs.max_to ?obs "matcher.frontier_peak" ms.frontier_peak;
    (* Per-query mean of the running frontier — the peak is already a
       separate counter, so the histogram carries the distribution. *)
    if ms.ept_nodes > 0 then
      Obs.observe ?obs "matcher.frontier_mean"
        (float_of_int ms.frontier_sum /. float_of_int ms.ept_nodes);
    Obs.add_to ?obs "matcher.het_joint_overrides" ms.het_joint_overrides;
    Obs.add_to ?obs "matcher.het_single_overrides" ms.het_single_overrides;
    Obs.add_to ?obs "matcher.independence_preds" ms.independence_preds

let estimate ?het ?values ?obs ~table ept qt =
  let result, ms = estimate_with_stats ?het ?values ~table ept qt in
  publish_stats ?obs ms;
  result
