type t =
  | Start_element of string * (string * string) list
  | End_element of string
  | Text of string

let pp ppf = function
  | Start_element (n, atts) ->
    let pp_att ppf (k, v) = Format.fprintf ppf " %s=%S" k v in
    Format.fprintf ppf "<%s%a>" n (Format.pp_print_list pp_att) atts
  | End_element n -> Format.fprintf ppf "</%s>" n
  | Text s -> Format.fprintf ppf "%S" s

let equal a b =
  match a, b with
  | Start_element (n1, a1), Start_element (n2, a2) -> n1 = n2 && a1 = a2
  | End_element n1, End_element n2 -> n1 = n2
  | Text t1, Text t2 -> t1 = t2
  | (Start_element _ | End_element _ | Text _), _ -> false

type 'a sink = { push : t -> unit; finish : unit -> 'a }

let push_all sink events =
  List.iter sink.push events;
  sink.finish ()
