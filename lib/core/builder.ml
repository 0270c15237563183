type frame = { v : Xml.Label.t; mutable out : (Kernel.edge * int) list }

(* One step of Algorithm 1. [sign] is +1 for construction / insertion and -1
   for deletion. The per-frame [out] list is a set: an (edge, level) pair is
   recorded once per parent node, so closing the parent bumps each edge's
   parent count exactly once. [mrl] tracks the maximum recursion level
   touched, for observability. *)
let feed kernel ~sign ~rl ~stack ~mrl event =
  match event with
  | Xml.Event.Start_element (name, _) ->
    let v = Xml.Label.intern (Kernel.table kernel) name in
    Kernel.get_vertex kernel v;
    (match !stack with
     | [] ->
       let l = Counter_stacks.push rl v in
       if l > !mrl then mrl := l
     | parent :: _ ->
       let e = Kernel.get_edge kernel parent.v v in
       let l = Counter_stacks.push rl v in
       if l > !mrl then mrl := l;
       Kernel.add_at_level e l ~parents:0 ~children:sign;
       if not (List.exists (fun (e', l') -> e' == e && l' = l) parent.out) then
         parent.out <- (e, l) :: parent.out);
    stack := { v; out = [] } :: !stack
  | Xml.Event.End_element _ ->
    (match !stack with
     | [] -> invalid_arg "Builder: unbalanced events"
     | fr :: rest ->
       List.iter
         (fun (e, l) -> Kernel.add_at_level e l ~parents:sign ~children:0)
         fr.out;
       Counter_stacks.pop rl fr.v;
       stack := rest)
  | Xml.Event.Text _ -> ()

let publish ?obs kernel mrl =
  Obs.add_to ?obs "builder.vertices" (Kernel.vertex_count kernel);
  Obs.add_to ?obs "builder.edges" (Kernel.edge_count kernel);
  Obs.max_to ?obs "builder.max_recursion_level" mrl

(* Construction into a fresh kernel, one event at a time. *)
let sink ?obs ?table () =
  let kernel = Kernel.create ?table () in
  let rl = Counter_stacks.create () in
  let stack = ref [] and mrl = ref 0 in
  { Xml.Event.push = feed kernel ~sign:1 ~rl ~stack ~mrl;
    finish =
      (fun () ->
        if !stack <> [] then invalid_arg "Builder: unclosed element";
        publish ?obs kernel !mrl;
        kernel) }

let of_string ?obs ?table input =
  Obs.span ?obs "builder.of_string" (fun () ->
      Xml.Sax.into ?obs input (sink ?obs ?table ()))

let of_events ?obs ?table events = Xml.Event.push_all (sink ?obs ?table ()) events

let check_single_element events =
  let depth = ref 0 and roots = ref 0 in
  List.iter
    (fun e ->
      match e with
      | Xml.Event.Start_element _ ->
        if !depth = 0 then incr roots;
        incr depth
      | Xml.Event.End_element _ ->
        decr depth;
        if !depth < 0 then invalid_arg "Builder: unbalanced subtree events"
      | Xml.Event.Text _ -> ())
    events;
  if !depth <> 0 || !roots <> 1 then
    invalid_arg "Builder: subtree events must form one balanced element"

(* Replay the subtree with the recursion-level counter primed by the
   insertion path, so every level index inside the subtree is computed
   relative to the document, then splice the connecting edge. The connecting
   edge's parent count moves only when [parent_edge_changes]: the caller
   (who can see the document) says whether the insertion parent gains its
   first / loses its last child with the subtree root's label. *)
let splice kernel ~sign ~parent_edge_changes ~at events =
  (match at with
   | [] -> invalid_arg "Builder: insertion path must be non-empty"
   | _ -> ());
  check_single_element events;
  let rl = Counter_stacks.create () in
  List.iter (fun l -> ignore (Counter_stacks.push rl l : int)) at;
  let parent_frame = { v = List.nth at (List.length at - 1); out = [] } in
  let stack = ref [ parent_frame ] and mrl = ref 0 in
  List.iter (feed kernel ~sign ~rl ~stack ~mrl) events;
  (match !stack with
   | [ fr ] when fr == parent_frame ->
     if parent_edge_changes then
       List.iter
         (fun (e, l) -> Kernel.add_at_level e l ~parents:sign ~children:0)
         fr.out
   | _ -> invalid_arg "Builder: subtree events must form one balanced element");
  if sign < 0 then Kernel.prune_empty kernel

let add_subtree ?(parent_gains_label = true) kernel ~at events =
  splice kernel ~sign:1 ~parent_edge_changes:parent_gains_label ~at events

let remove_subtree ?(parent_loses_label = true) kernel ~at events =
  splice kernel ~sign:(-1) ~parent_edge_changes:parent_loses_label ~at events
