type edge = {
  src : Xml.Label.t;
  dst : Xml.Label.t;
  mutable p_cnt : int array;
  mutable c_cnt : int array;
  mutable levels : int;
}

type t = {
  tbl : Xml.Label.table;
  vertices : (Xml.Label.t, unit) Hashtbl.t;
  edges : (int, edge) Hashtbl.t;  (* keyed by src * 2^20 + dst *)
  outs : (Xml.Label.t, edge list ref) Hashtbl.t;
  ins : (Xml.Label.t, edge list ref) Hashtbl.t;
  mutable root_label : Xml.Label.t option;
}

let edge_key src dst = (src lsl 20) lor dst

let create ?table () =
  let tbl = match table with Some t -> t | None -> Xml.Label.create_table () in
  { tbl; vertices = Hashtbl.create 64; edges = Hashtbl.create 128;
    outs = Hashtbl.create 64; ins = Hashtbl.create 64; root_label = None }

let table t = t.tbl

let root t =
  match t.root_label with
  | Some r -> r
  | None -> invalid_arg "Kernel.root: empty kernel"

let set_root t label = t.root_label <- Some label

let get_vertex t label =
  if not (Hashtbl.mem t.vertices label) then begin
    Hashtbl.add t.vertices label ();
    if t.root_label = None then t.root_label <- Some label
  end

let adj tbl label =
  match Hashtbl.find_opt tbl label with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl label r;
    r

let get_edge t src dst =
  let key = edge_key src dst in
  match Hashtbl.find_opt t.edges key with
  | Some e -> e
  | None ->
    get_vertex t src;
    get_vertex t dst;
    let e = { src; dst; p_cnt = Array.make 2 0; c_cnt = Array.make 2 0; levels = 0 } in
    Hashtbl.add t.edges key e;
    let o = adj t.outs src in
    o := e :: !o;
    let i = adj t.ins dst in
    i := e :: !i;
    e

let find_edge t src dst = Hashtbl.find_opt t.edges (edge_key src dst)

let ensure_level e level =
  if level >= Array.length e.p_cnt then begin
    let n = ref (Array.length e.p_cnt) in
    while level >= !n do n := 2 * !n done;
    let grow a =
      let bigger = Array.make !n 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    e.p_cnt <- grow e.p_cnt;
    e.c_cnt <- grow e.c_cnt
  end;
  if level >= e.levels then e.levels <- level + 1

let add_at_level e level ~parents ~children =
  if level < 0 then invalid_arg "Kernel.add_at_level: negative level";
  ensure_level e level;
  e.p_cnt.(level) <- max 0 (e.p_cnt.(level) + parents);
  e.c_cnt.(level) <- max 0 (e.c_cnt.(level) + children)

let edge_counts e level =
  if level < 0 || level >= e.levels then (0, 0) else (e.p_cnt.(level), e.c_cnt.(level))

let vertex_count t = Hashtbl.length t.vertices
let edge_count t = Hashtbl.length t.edges

let out_edges t label =
  match Hashtbl.find_opt t.outs label with
  | None -> []
  | Some r -> List.sort (fun a b -> Int.compare a.dst b.dst) !r

let in_edges t label =
  match Hashtbl.find_opt t.ins label with
  | None -> []
  | Some r -> List.sort (fun a b -> Int.compare a.src b.src) !r

let total_children t label ~level =
  let base = if t.root_label = Some label && level = 0 then 1 else 0 in
  List.fold_left
    (fun acc e -> acc + snd (edge_counts e level))
    base (in_edges t label)

let size_in_bytes t =
  let edges_bytes =
    Hashtbl.fold (fun _ e acc -> acc + 8 + (8 * e.levels)) t.edges 0
  in
  (8 * vertex_count t) + edges_bytes

let is_empty_edge e =
  let rec go i = i >= e.levels || (e.p_cnt.(i) = 0 && e.c_cnt.(i) = 0 && go (i + 1)) in
  go 0

let trim_levels e =
  while e.levels > 0 && e.p_cnt.(e.levels - 1) = 0 && e.c_cnt.(e.levels - 1) = 0 do
    e.levels <- e.levels - 1
  done

let prune_empty t =
  Hashtbl.iter (fun _ e -> trim_levels e) t.edges;
  let dead =
    Hashtbl.fold (fun k e acc -> if is_empty_edge e then (k, e) :: acc else acc)
      t.edges []
  in
  List.iter
    (fun (k, e) ->
      Hashtbl.remove t.edges k;
      let o = adj t.outs e.src in
      o := List.filter (fun e' -> e' != e) !o;
      let i = adj t.ins e.dst in
      i := List.filter (fun e' -> e' != e) !i)
    dead;
  (* Drop vertices with no remaining edges, keeping the root. *)
  let isolated =
    Hashtbl.fold
      (fun v () acc ->
        let no_out = match Hashtbl.find_opt t.outs v with None -> true | Some r -> !r = [] in
        let no_in = match Hashtbl.find_opt t.ins v with None -> true | Some r -> !r = [] in
        if no_out && no_in && t.root_label <> Some v then v :: acc else acc)
      t.vertices []
  in
  List.iter (fun v -> Hashtbl.remove t.vertices v) isolated

(* ------------------------------------------------------------------ *)
(* Serialization: stable text format keyed by label names. *)

(* Serialized order is by label name so dumps are comparable across label
   tables with different interning orders. *)
let sorted_edges t =
  let name = Xml.Label.name t.tbl in
  Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
  |> List.sort (fun a b ->
         let c = String.compare (name a.src) (name b.src) in
         if c <> 0 then c else String.compare (name a.dst) (name b.dst))

let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "xseed-kernel v1\n";
  (match t.root_label with
   | Some r -> Buffer.add_string buf (Printf.sprintf "root %s\n" (Xml.Label.name t.tbl r))
   | None -> ());
  let vs =
    Hashtbl.fold (fun v () acc -> Xml.Label.name t.tbl v :: acc) t.vertices []
  in
  List.iter
    (fun v -> Buffer.add_string buf (Printf.sprintf "vertex %s\n" v))
    (List.sort String.compare vs);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "edge %s %s" (Xml.Label.name t.tbl e.src)
           (Xml.Label.name t.tbl e.dst));
      for l = 0 to e.levels - 1 do
        Buffer.add_string buf (Printf.sprintf " %d:%d" e.p_cnt.(l) e.c_cnt.(l))
      done;
      Buffer.add_char buf '\n')
    (sorted_edges t);
  Buffer.contents buf

let of_string_result ?table s =
  Error.guard (fun () ->
      let t = create ?table () in
      let lines = String.split_on_char '\n' s in
      let malformed i line =
        Error.raisef ~position:(i + 1) ~section:"kernel" Error.Corrupt_synopsis
          "bad kernel line: %s" (String.trim line)
      in
      List.iteri
        (fun i line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] -> ()
          | [ "xseed-kernel"; "v1" ] when i = 0 -> ()
          | [ "root"; name ] -> t.root_label <- Some (Xml.Label.intern t.tbl name)
          | [ "vertex"; name ] -> get_vertex t (Xml.Label.intern t.tbl name)
          | "edge" :: src :: dst :: pairs ->
            let e =
              get_edge t (Xml.Label.intern t.tbl src) (Xml.Label.intern t.tbl dst)
            in
            List.iteri
              (fun level pair ->
                match String.split_on_char ':' pair with
                | [ p; c ] ->
                  (match (int_of_string_opt p, int_of_string_opt c) with
                   | Some p, Some c -> add_at_level e level ~parents:p ~children:c
                   | _ -> malformed i line)
                | _ -> malformed i line)
              pairs
          | _ -> malformed i line)
        lines;
      t)

let of_string ?table s =
  match of_string_result ?table s with
  | Ok t -> t
  | Error e -> invalid_arg ("Kernel.of_string: " ^ Error.message e)

let copy t = of_string ~table:t.tbl (to_string t)

let collapse_levels t =
  let flat = create ~table:t.tbl () in
  (match t.root_label with Some r -> flat.root_label <- Some r | None -> ());
  Hashtbl.iter (fun v () -> get_vertex flat v) t.vertices;
  Hashtbl.iter
    (fun _ e ->
      let e' = get_edge flat e.src e.dst in
      for l = 0 to e.levels - 1 do
        add_at_level e' 0 ~parents:e.p_cnt.(l) ~children:e.c_cnt.(l)
      done)
    t.edges;
  flat

let equal a b = String.equal (to_string a) (to_string b)

let pp ppf t = Format.pp_print_string ppf (to_string t)
