type node = {
  label : Xml.Label.t;
  cardinality : int;
  parents_with_child : int;
  children : node list;
}

type t = { root : node; table : Xml.Label.table; size : int }

(* Mutable shadow used during the single construction pass. [mlast_parent]
   is the pre-order id of the last document node whose children bumped
   [mparents], so each parent counts once without a per-element set. *)
type mnode = {
  mlabel : Xml.Label.t;
  mutable mcard : int;
  mutable mparents : int;
  mutable mlast_parent : int;
  mkids : (Xml.Label.t, mnode) Hashtbl.t;
}

let new_mnode label =
  { mlabel = label; mcard = 0; mparents = 0; mlast_parent = -1;
    mkids = Hashtbl.create 4 }

let freeze table (root : mnode) =
  let size = ref 0 in
  let rec go m =
    incr size;
    let kids =
      Hashtbl.fold (fun _ k acc -> k :: acc) m.mkids []
      |> List.sort (fun a b -> Int.compare a.mlabel b.mlabel)
      |> List.map go
    in
    { label = m.mlabel; cardinality = m.mcard; parents_with_child = m.mparents;
      children = kids }
  in
  let root = go root in
  { root; table; size = !size }

let sink ?table () =
  let table = match table with Some t -> t | None -> Xml.Label.create_table () in
  (* Stack entries: the path-tree node of each open element and that
     element's pre-order id. *)
  let root = ref None in
  let stack = ref [] in
  let next_id = ref 0 in
  let push = function
    | Xml.Event.Start_element (name, _) ->
      let label = Xml.Label.intern table name in
      let m =
        match !stack with
        | [] ->
          (match !root with
           | Some r ->
             if r.mlabel <> label then
               invalid_arg "Path_tree: documents with different roots share a table"
             else r
           | None ->
             let r = new_mnode label in
             root := Some r;
             r)
        | (parent, parent_id) :: _ ->
          let m =
            match Hashtbl.find_opt parent.mkids label with
            | Some m -> m
            | None ->
              let m = new_mnode label in
              Hashtbl.add parent.mkids label m;
              m
          in
          if m.mlast_parent <> parent_id then begin
            m.mlast_parent <- parent_id;
            m.mparents <- m.mparents + 1
          end;
          m
      in
      m.mcard <- m.mcard + 1;
      stack := (m, !next_id) :: !stack;
      incr next_id
    | Xml.Event.End_element _ ->
      (match !stack with
       | [] -> invalid_arg "Path_tree: unbalanced events"
       | _ :: rest -> stack := rest)
    | Xml.Event.Text _ -> ()
  in
  let finish () =
    if !stack <> [] then invalid_arg "Path_tree: unclosed element";
    match !root with
    | None -> invalid_arg "Path_tree: empty document"
    | Some r ->
      r.mparents <- 1;  (* the virtual document node always has the root child *)
      freeze table r
  in
  { Xml.Event.push; finish }

let of_events ?table events = Xml.Event.push_all (sink ?table ()) events
let of_string ?table input = Xml.Sax.into input (sink ?table ())

let bsel _t ~parent node =
  match parent with
  | None -> 1.0
  | Some p ->
    if p.cardinality = 0 then 0.0
    else float_of_int node.parents_with_child /. float_of_int p.cardinality

let find_path t labels =
  match labels with
  | [] -> None
  | first :: rest ->
    if first <> t.root.label then None
    else
      let rec go node = function
        | [] -> Some node
        | l :: rest ->
          (match List.find_opt (fun k -> k.label = l) node.children with
           | Some k -> go k rest
           | None -> None)
      in
      go t.root rest

let cardinality_of_labels t labels =
  match find_path t labels with Some n -> n.cardinality | None -> 0

let simple_path_cardinality t (path : Xpath.Ast.t) =
  let rec labels acc = function
    | [] -> Some (List.rev acc)
    | ({ axis = Xpath.Ast.Child; test = Xpath.Ast.Name n; predicates = [];
         value_predicates = [] } : Xpath.Ast.step)
      :: rest ->
      (match Xml.Label.find_opt t.table n with
       | Some l -> labels (l :: acc) rest
       | None -> Some []  (* unknown label: simple, cardinality 0 *))
    | _ :: _ -> None
  in
  match labels [] path with
  | None -> None
  | Some [] -> Some 0
  | Some ls -> Some (cardinality_of_labels t ls)

let iter_paths t ~f =
  let rec go rev_path ~parent node =
    let rev_path = node.label :: rev_path in
    f (List.rev rev_path) ~parent node;
    List.iter (go rev_path ~parent:(Some node)) node.children
  in
  go [] ~parent:None t.root

let all_simple_paths t =
  let acc = ref [] in
  iter_paths t ~f:(fun path ~parent:_ node -> acc := (path, node.cardinality) :: !acc);
  List.rev !acc

let size t = t.size

let depth t =
  let rec go node =
    List.fold_left (fun acc k -> max acc (1 + go k)) 1 node.children
  in
  go t.root
