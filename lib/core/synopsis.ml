type t = {
  kernel : Kernel.t;
  het : Het.t option;
  values : Value_synopsis.t option;
  card_threshold : float;
  obs : Obs.t option;
  mutable estimator : Estimator.t;
}

let build ?budget_bytes ?(with_het = true) ?(with_values = false) ?mbp
    ?bsel_threshold ?(card_threshold = 0.5) ?obs doc =
  (* One parse feeds every structure the build needs. Each sink interns an
     element's name into the one table at its start tag, so labels get ids
     in document order, as a lone kernel parse gives them. *)
  let table = Xml.Label.create_table () in
  let kernel = Builder.sink ?obs ~table () in
  let storage =
    if with_het || with_values then Some (Nok.Storage.sink ~table ~with_values ())
    else None
  in
  let path_tree =
    if with_het then Some (Pathtree.Path_tree.sink ~table ()) else None
  in
  let push = function Some (s : _ Xml.Event.sink) -> s.push | None -> ignore in
  let push_storage = push storage and push_path_tree = push path_tree in
  Obs.span ?obs "synopsis.parse" (fun () ->
      Xml.Sax.iter ?obs doc ~f:(fun e ->
          kernel.push e;
          push_storage e;
          push_path_tree e));
  let kernel = kernel.finish () in
  let storage = Option.map (fun s -> s.Xml.Event.finish ()) storage in
  let path_tree = Option.map (fun s -> s.Xml.Event.finish ()) path_tree in
  let het =
    match path_tree with
    | None -> None
    | Some path_tree ->
      let het, stats =
        Obs.span ?obs "synopsis.het_build" (fun () ->
            Het_builder.build ?mbp ?bsel_threshold ~card_threshold ~kernel
              ~path_tree ?storage ())
      in
      Obs.add_to ?obs "het.simple_entries" stats.Het_builder.simple_entries;
      Obs.add_to ?obs "het.branching_entries" stats.Het_builder.branching_entries;
      Obs.add_to ?obs "het.nok_evaluations" stats.Het_builder.nok_evaluations;
      Some het
  in
  let values =
    match storage with
    | Some storage when with_values ->
      Some
        (Obs.span ?obs "synopsis.value_build" (fun () ->
             Value_synopsis.build storage))
    | _ -> None
  in
  (match (budget_bytes, het) with
   | Some budget, Some het ->
     Het.set_budget het ~bytes:(max 0 (budget - Kernel.size_in_bytes kernel))
   | _ -> ());
  let estimator = Estimator.create ~card_threshold ?het ?values ?obs kernel in
  { kernel; het; values; card_threshold; obs; estimator }

let build_result ?budget_bytes ?with_het ?with_values ?mbp ?bsel_threshold
    ?card_threshold ?obs doc =
  Error.guard (fun () ->
      build ?budget_bytes ?with_het ?with_values ?mbp ?bsel_threshold
        ?card_threshold ?obs doc)

let kernel t = t.kernel
let het t = t.het
let values t = t.values
let estimator t = t.estimator
let card_threshold t = t.card_threshold

let estimate t query = Estimator.estimate_string t.estimator query

let set_budget t ~bytes =
  match t.het with
  | None -> ()
  | Some het ->
    Het.set_budget het ~bytes:(max 0 (bytes - Kernel.size_in_bytes t.kernel));
    t.estimator <-
      Estimator.create ~card_threshold:t.card_threshold ~het ?values:t.values
        ?obs:t.obs t.kernel

let kernel_size_in_bytes t = Kernel.size_in_bytes t.kernel

let size_in_bytes t =
  kernel_size_in_bytes t
  + (match t.het with None -> 0 | Some h -> Het.size_in_bytes h)

(* Serialization. Two formats:

   - v1 (legacy, still readable): label table, kernel, HET and values
     concatenated with marker lines. The markers are found by scanning the
     whole payload, so a label or HET line that happens to contain a marker
     string mis-splits the file — a documented limitation fixed by v2.
   - v2 (default): a header carrying [card_threshold] and, per section, a
     byte length and a CRC-32, followed by the raw section payloads. Any
     truncation or byte flip in a payload is caught by the length/checksum
     check before section parsing starts; marker collisions are impossible
     because nothing is ever scanned for. See DESIGN.md for the layout. *)

let label_marker = "---kernel---\n"
let het_marker = "---het---\n"
let values_marker = "---values---\n"

let corrupt ?position ?section fmt =
  Error.raisef ?position ?section Error.Corrupt_synopsis fmt

(* Sections in canonical order; labels first (preserving interning order,
   which HET hashes depend on), then the kernel, then the optional parts. *)
let sections_of t =
  let labels =
    String.concat ""
      (List.map (fun n -> n ^ "\n") (Xml.Label.names (Kernel.table t.kernel)))
  in
  [ ("labels", labels); ("kernel", Kernel.to_string t.kernel) ]
  @ (match t.het with Some h -> [ ("het", Het.to_string h) ] | None -> [])
  @ (match t.values with
     | Some v -> [ ("values", Value_synopsis.to_string v) ]
     | None -> [])

let to_string_v1 t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "xseed-synopsis v1\n";
  List.iter
    (fun name ->
      Buffer.add_string buf name;
      Buffer.add_char buf '\n')
    (Xml.Label.names (Kernel.table t.kernel));
  Buffer.add_string buf label_marker;
  Buffer.add_string buf (Kernel.to_string t.kernel);
  (match t.het with
   | Some het ->
     Buffer.add_string buf het_marker;
     Buffer.add_string buf (Het.to_string het)
   | None -> ());
  (match t.values with
   | Some values ->
     Buffer.add_string buf values_marker;
     Buffer.add_string buf (Value_synopsis.to_string values)
   | None -> ());
  Buffer.contents buf

let to_string_v2 t =
  let sections = sections_of t in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "xseed-synopsis v2\n";
  Buffer.add_string buf (Printf.sprintf "card_threshold %h\n" t.card_threshold);
  List.iter
    (fun (name, payload) ->
      Buffer.add_string buf
        (Printf.sprintf "section %s %d %s\n" name (String.length payload)
           (Crc32.to_hex (Crc32.digest payload))))
    sections;
  Buffer.add_string buf "end\n";
  List.iter (fun (_, payload) -> Buffer.add_string buf payload) sections;
  Buffer.contents buf

let to_string ?(version = `V2) t =
  match version with `V1 -> to_string_v1 t | `V2 -> to_string_v2 t

let find_marker contents marker =
  let n = String.length marker in
  let rec go i =
    if i + n > String.length contents then None
    else if String.sub contents i n = marker then Some i
    else go (i + 1)
  in
  go 0

let ok_or_raise = function Ok v -> v | Error e -> raise (Error.Xseed e)

let check_kernel kernel =
  if Kernel.vertex_count kernel = 0 then
    corrupt ~section:"kernel" "empty kernel (no vertices)";
  kernel

let of_string_v1_exn contents =
  let kernel_at =
    match find_marker contents label_marker with
    | Some i -> i
    | None -> corrupt ~section:"header" "missing kernel section marker"
  in
  let table = Xml.Label.create_table () in
  (match String.split_on_char '\n' (String.sub contents 0 kernel_at) with
   | "xseed-synopsis v1" :: names ->
     List.iter
       (fun name -> if name <> "" then ignore (Xml.Label.intern table name : int))
       names
   | _ -> corrupt ~section:"header" "bad v1 header");
  let body =
    String.sub contents
      (kernel_at + String.length label_marker)
      (String.length contents - kernel_at - String.length label_marker)
  in
  (* Peel the optional values section off the tail first. *)
  let body, values =
    match find_marker body values_marker with
    | None -> (body, None)
    | Some i ->
      ( String.sub body 0 i,
        Some
          (ok_or_raise
             (Value_synopsis.of_string_result ~table
                (String.sub body
                   (i + String.length values_marker)
                   (String.length body - i - String.length values_marker)))) )
  in
  let kernel, het =
    match find_marker body het_marker with
    | None -> (ok_or_raise (Kernel.of_string_result ~table body), None)
    | Some i ->
      ( ok_or_raise (Kernel.of_string_result ~table (String.sub body 0 i)),
        Some
          (ok_or_raise
             (Het.of_string_result
                (String.sub body
                   (i + String.length het_marker)
                   (String.length body - i - String.length het_marker)))) )
  in
  let kernel = check_kernel kernel in
  (* v1 has nowhere to store the build threshold; fall back to the default. *)
  let card_threshold = 0.5 in
  let estimator = Estimator.create ~card_threshold ?het ?values kernel in
  { kernel; het; values; card_threshold; obs = None; estimator }

let section_names = [ "labels"; "kernel"; "het"; "values" ]

let read_line s pos =
  match String.index_from_opt s pos '\n' with
  | None -> None
  | Some i -> Some (String.sub s pos (i - pos), i + 1)

let of_string_v2_exn contents =
  let card_threshold = ref 0.5 in
  let sections = ref [] in
  (* Header: one line per field, terminated by "end"; everything after the
     "end" line is raw payload bytes. *)
  let rec header pos lineno =
    match read_line contents pos with
    | None ->
      corrupt ~section:"header" ~position:lineno "unterminated header (no 'end')"
    | Some (line, pos') ->
      (match String.split_on_char ' ' line with
       | [ "end" ] -> pos'
       | [ "card_threshold"; v ] ->
         (match float_of_string_opt v with
          | Some x when Float.is_finite x ->
            card_threshold := x;
            header pos' (lineno + 1)
          | _ ->
            corrupt ~section:"header" ~position:lineno "bad card_threshold %S" v)
       | [ "section"; name; len; crc ] ->
         (match (int_of_string_opt len, Crc32.of_hex crc) with
          | Some len, Some crc when len >= 0 ->
            if not (List.mem name section_names) then
              corrupt ~section:"header" ~position:lineno "unknown section %S" name;
            if List.exists (fun (n, _, _) -> n = name) !sections then
              corrupt ~section:"header" ~position:lineno "duplicate section %S"
                name;
            sections := (name, len, crc) :: !sections;
            header pos' (lineno + 1)
          | _ ->
            corrupt ~section:"header" ~position:lineno "bad section line: %s" line)
       | _ -> corrupt ~section:"header" ~position:lineno "bad header line: %s" line)
  in
  let body_start =
    match read_line contents 0 with
    | Some ("xseed-synopsis v2", pos) -> pos
    | _ -> corrupt ~section:"header" ~position:1 "bad v2 magic line"
  in
  let payload_start = header body_start 2 in
  let sections = List.rev !sections in
  let names = List.map (fun (n, _, _) -> n) sections in
  if names <> List.filter (fun n -> List.mem n names) section_names then
    corrupt ~section:"header" "sections out of canonical order";
  if not (List.mem "labels" names) || not (List.mem "kernel" names) then
    corrupt ~section:"header" "missing mandatory labels/kernel section";
  let total = List.fold_left (fun acc (_, len, _) -> acc + len) 0 sections in
  let avail = String.length contents - payload_start in
  if avail < total then
    corrupt ~section:"header" "truncated payload: header promises %d bytes, %d present"
      total avail;
  if avail > total then
    corrupt ~section:"header" "%d bytes of trailing garbage after the last section"
      (avail - total);
  (* Slice and checksum every section before parsing any of them, so a
     corruption report always points at the file, not at a parser. *)
  let slices, _ =
    List.fold_left
      (fun (acc, off) (name, len, crc) ->
        let payload = String.sub contents off len in
        let computed = Crc32.digest payload in
        if computed <> crc then
          corrupt ~section:name "checksum mismatch: header %s, payload %s"
            (Crc32.to_hex crc) (Crc32.to_hex computed);
        ((name, payload) :: acc, off + len))
      ([], payload_start) sections
  in
  let slices = List.rev slices in
  let table = Xml.Label.create_table () in
  List.iter
    (fun name -> if name <> "" then ignore (Xml.Label.intern table name : int))
    (String.split_on_char '\n' (List.assoc "labels" slices));
  let kernel =
    check_kernel (ok_or_raise (Kernel.of_string_result ~table (List.assoc "kernel" slices)))
  in
  let het =
    Option.map (fun s -> ok_or_raise (Het.of_string_result s))
      (List.assoc_opt "het" slices)
  in
  let values =
    Option.map
      (fun s -> ok_or_raise (Value_synopsis.of_string_result ~table s))
      (List.assoc_opt "values" slices)
  in
  let card_threshold = !card_threshold in
  let estimator = Estimator.create ~card_threshold ?het ?values kernel in
  { kernel; het; values; card_threshold; obs = None; estimator }

let of_string_result contents =
  Error.guard (fun () ->
      match read_line contents 0 with
      | Some ("xseed-synopsis v1", _) -> of_string_v1_exn contents
      | Some ("xseed-synopsis v2", _) -> of_string_v2_exn contents
      | _ ->
        corrupt ~section:"header" ~position:1
          "not a synopsis file (unrecognized first line)")

let of_string contents =
  match of_string_result contents with
  | Ok t -> t
  | Error e -> invalid_arg ("Synopsis.of_string: " ^ Error.to_string e)

let pp ppf t =
  Format.fprintf ppf "XSEED synopsis: kernel %dB (%d vertices, %d edges)%a"
    (kernel_size_in_bytes t) (Kernel.vertex_count t.kernel)
    (Kernel.edge_count t.kernel)
    (fun ppf -> function
      | None -> Format.fprintf ppf ", no HET"
      | Some h -> Format.fprintf ppf ", %a" Het.pp h)
    t.het
