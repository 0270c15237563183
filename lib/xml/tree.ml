type node = { label : Label.t; children : node array }

type t = { root : node; table : Label.table; size : int }

let of_events ?table events =
  let table = match table with Some t -> t | None -> Label.create_table () in
  (* Stack of (label, reversed children built so far). *)
  let stack = ref [] in
  let roots = ref [] in
  let size = ref 0 in
  let handle = function
    | Event.Start_element (name, _) ->
      incr size;
      stack := (Label.intern table name, ref []) :: !stack
    | Event.End_element _ ->
      (match !stack with
       | [] -> invalid_arg "Tree.of_events: unbalanced events"
       | (label, kids) :: rest ->
         let node = { label; children = Array.of_list (List.rev !kids) } in
         stack := rest;
         (match rest with
          | [] -> roots := node :: !roots
          | (_, parent_kids) :: _ -> parent_kids := node :: !parent_kids))
    | Event.Text _ -> ()
  in
  List.iter handle events;
  if !stack <> [] then invalid_arg "Tree.of_events: unclosed element";
  match !roots with
  | [ root ] -> { root; table; size = !size }
  | [] -> invalid_arg "Tree.of_events: no root element"
  | _ -> invalid_arg "Tree.of_events: multiple roots"

let of_string ?table input = of_events ?table (Sax.events input)

let node_count t = t.size

let rec depth_node node =
  Array.fold_left (fun acc child -> max acc (1 + depth_node child)) 1 node.children

let depth t = depth_node t.root

let label_counts t =
  let counts = Array.make (Label.count t.table) 0 in
  let rec go node =
    counts.(node.label) <- counts.(node.label) + 1;
    Array.iter go node.children
  in
  go t.root;
  let acc = ref [] in
  for id = Array.length counts - 1 downto 0 do
    if counts.(id) > 0 then acc := (id, counts.(id)) :: !acc
  done;
  !acc

let recursion_levels t =
  (* Descending into a node only raises the occurrence count of its own
     label, so the path recursion level is max(parent prl, occ(label) - 1). *)
  let occ = Array.make (Label.count t.table) 0 in
  let total = ref 0 and nodes = ref 0 and maximum = ref 0 in
  let rec go node prl_above =
    occ.(node.label) <- occ.(node.label) + 1;
    let prl = max prl_above (occ.(node.label) - 1) in
    total := !total + prl;
    incr nodes;
    if prl > !maximum then maximum := prl;
    Array.iter (fun child -> go child prl) node.children;
    occ.(node.label) <- occ.(node.label) - 1
  in
  go t.root 0;
  (float_of_int !total /. float_of_int !nodes, !maximum)

let to_events t =
  let acc = ref [] in
  let rec go node =
    acc := Event.Start_element (Label.name t.table node.label, []) :: !acc;
    Array.iter go node.children;
    acc := Event.End_element (Label.name t.table node.label) :: !acc
  in
  go t.root;
  List.rev !acc

let equal_structure a b =
  let rec go na nb =
    String.equal (Label.name a.table na.label) (Label.name b.table nb.label)
    && Array.length na.children = Array.length nb.children
    && (let ok = ref true in
        Array.iteri (fun i ca -> if !ok then ok := go ca nb.children.(i)) na.children;
        !ok)
  in
  go a.root b.root

let distinct_rooted_paths t =
  (* Count path-tree nodes: group children of each path-tree node by label. *)
  let count = ref 0 in
  let rec go nodes =
    (* [nodes] is the set of tree nodes sharing one rooted label path. *)
    incr count;
    let by_label = Hashtbl.create 8 in
    List.iter
      (fun node ->
        Array.iter
          (fun child ->
            let existing =
              Option.value (Hashtbl.find_opt by_label child.label) ~default:[]
            in
            Hashtbl.replace by_label child.label (child :: existing))
          node.children)
      nodes;
    Hashtbl.iter (fun _ group -> go group) by_label
  in
  go [ t.root ];
  !count
