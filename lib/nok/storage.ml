type t = {
  labels : Xml.Label.t array;
  last : int array;
  depth : int array;
  table : Xml.Label.table;
  text : string array;
  attributes : (string * string) list array;
}

type builder = {
  mutable b_labels : int array;
  mutable b_last : int array;
  mutable b_depths : int array;
  mutable b_text : Buffer.t option array;  (* scratch, only with values *)
  mutable b_texts : string array;
  mutable b_attrs : (string * string) list array;
  mutable next : int;
  mutable open_nodes : int list;
  with_values : bool;
  tbl : Xml.Label.table;
}

let ensure_capacity b =
  if b.next >= Array.length b.b_labels then begin
    let n = 2 * Array.length b.b_labels in
    let grow a =
      let bigger = Array.make n 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    b.b_labels <- grow b.b_labels;
    b.b_last <- grow b.b_last;
    b.b_depths <- grow b.b_depths;
    if b.with_values then begin
      let grow_any empty a =
        let bigger = Array.make n empty in
        Array.blit a 0 bigger 0 (Array.length a);
        bigger
      in
      b.b_text <- grow_any None b.b_text;
      b.b_texts <- grow_any "" b.b_texts;
      b.b_attrs <- grow_any [] b.b_attrs
    end
  end

let handle_event b = function
  | Xml.Event.Start_element (name, atts) ->
    ensure_capacity b;
    let i = b.next in
    b.b_labels.(i) <- Xml.Label.intern b.tbl name;
    b.b_depths.(i) <- List.length b.open_nodes;
    if b.with_values then begin
      b.b_attrs.(i) <- atts;
      b.b_text.(i) <- None
    end;
    b.next <- i + 1;
    b.open_nodes <- i :: b.open_nodes
  | Xml.Event.End_element _ ->
    (match b.open_nodes with
     | [] -> invalid_arg "Nok.Storage: unbalanced events"
     | i :: rest ->
       b.b_last.(i) <- b.next - 1;
       if b.with_values then
         b.b_texts.(i) <-
           (match b.b_text.(i) with None -> "" | Some buf -> Buffer.contents buf);
       b.open_nodes <- rest)
  | Xml.Event.Text s ->
    if b.with_values then (
      match b.open_nodes with
      | [] -> ()
      | i :: _ ->
        let buf =
          match b.b_text.(i) with
          | Some buf -> buf
          | None ->
            let buf = Buffer.create (String.length s) in
            b.b_text.(i) <- Some buf;
            buf
        in
        Buffer.add_string buf s)

let finish b =
  if b.open_nodes <> [] then invalid_arg "Nok.Storage: unclosed element";
  {
    labels = Array.sub b.b_labels 0 b.next;
    last = Array.sub b.b_last 0 b.next;
    depth = Array.sub b.b_depths 0 b.next;
    table = b.tbl;
    text = (if b.with_values then Array.sub b.b_texts 0 b.next else [||]);
    attributes = (if b.with_values then Array.sub b.b_attrs 0 b.next else [||]);
  }

let sink ?table ?(with_values = false) () =
  let tbl = match table with Some t -> t | None -> Xml.Label.create_table () in
  let b =
    { b_labels = Array.make 1024 0; b_last = Array.make 1024 0;
      b_depths = Array.make 1024 0;
      b_text = (if with_values then Array.make 1024 None else [||]);
      b_texts = (if with_values then Array.make 1024 "" else [||]);
      b_attrs = (if with_values then Array.make 1024 [] else [||]);
      next = 0; open_nodes = []; with_values; tbl }
  in
  { Xml.Event.push = handle_event b; finish = (fun () -> finish b) }

let of_events ?table ?with_values events =
  Xml.Event.push_all (sink ?table ?with_values ()) events

let of_string ?table ?with_values input =
  Xml.Sax.into input (sink ?table ?with_values ())

let of_tree (tree : Xml.Tree.t) =
  of_events ~table:tree.table (Xml.Tree.to_events tree)

let node_count (t : t) = Array.length t.labels

let has_values (t : t) = Array.length t.text > 0 || node_count t = 0

let node_text (t : t) i = if Array.length t.text = 0 then "" else t.text.(i)

let node_attribute (t : t) i name =
  if Array.length t.attributes = 0 then None
  else List.assoc_opt name t.attributes.(i)

let children (t : t) i =
  let stop = t.last.(i) in
  let rec go j acc = if j > stop then List.rev acc else go (t.last.(j) + 1) (j :: acc) in
  go (i + 1) []

let parent (t : t) i =
  if i = 0 then None
  else begin
    (* Scan left for the nearest node whose interval covers [i]. Used only in
       tests and diagnostics; the evaluator never needs parents. *)
    let rec go j = if t.last.(j) >= i then Some j else go (j - 1) in
    go (i - 1)
  end

let size_in_bytes (t : t) = 3 * 8 * Array.length t.labels
