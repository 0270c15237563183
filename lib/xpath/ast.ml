type axis = Child | Descendant

type test = Name of string | Wildcard

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal = Number of float | Text of string

type value_target = Child_text of string | Attribute of string

type value_predicate = { target : value_target; cmp : cmp; literal : literal }

type step = {
  axis : axis;
  test : test;
  predicates : t list;
  value_predicates : value_predicate list;
}

and t = step list

let rec compare_step a b =
  let c = Stdlib.compare a.axis b.axis in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.test b.test in
    if c <> 0 then c
    else
      let c = Stdlib.compare a.value_predicates b.value_predicates in
      if c <> 0 then c else List.compare compare a.predicates b.predicates

and compare a b = List.compare compare_step a b

let equal a b = compare a b = 0

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* The float primitive behind Printf's [%g], without the format
   interpreter: the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

(* The shortest [%g] text that reads back as [x]. A double whose shortest
   decimal has at most 15 digits prints as exactly those digits under
   [%.15g]; every other one needs 16 or 17. *)
let shortest_g x =
  let s = format_float "%.15g" x in
  if float_of_string s = x then s
  else
    let s = format_float "%.16g" x in
    if float_of_string s = x then s else format_float "%.17g" x

(* The one printer: concrete syntax into a buffer. [to_string] is the
   serving engine's cache-key text, so it prints without [Format]. *)
let add_test b = function
  | Name n -> Buffer.add_string b n
  | Wildcard -> Buffer.add_char b '*'

(* Literals print so that the parser reads back the same value: a number
   in its shortest exact form; a text between single quotes, or between
   double quotes when it holds a single one (a parsed literal never holds
   both kinds). *)
let add_literal b = function
  | Number x ->
    if Float.is_integer x && Float.abs x < 1e15 then
      Buffer.add_string b (string_of_int (int_of_float x))
    else Buffer.add_string b (shortest_g x)
  | Text s ->
    let q = if String.contains s '\'' then '"' else '\'' in
    Buffer.add_char b q;
    Buffer.add_string b s;
    Buffer.add_char b q

let add_value_predicate b { target; cmp; literal } =
  (match target with
   | Child_text n -> Buffer.add_string b n
   | Attribute a ->
     Buffer.add_char b '@';
     Buffer.add_string b a);
  Buffer.add_string b (cmp_to_string cmp);
  add_literal b literal

let rec add_path b = function
  | [] -> ()
  | { axis; test; predicates; value_predicates } :: rest ->
    Buffer.add_string b (match axis with Child -> "/" | Descendant -> "//");
    add_test b test;
    add_qualifiers b predicates value_predicates;
    add_path b rest

(* Structural predicates, then value predicates, each in brackets. *)
and add_qualifiers b predicates value_predicates =
  match (predicates, value_predicates) with
  | [], [] -> ()
  | p :: ps, vs ->
    Buffer.add_char b '[';
    add_relative b p;
    Buffer.add_char b ']';
    add_qualifiers b ps vs
  | [], v :: vs ->
    Buffer.add_char b '[';
    add_value_predicate b v;
    Buffer.add_char b ']';
    add_qualifiers b [] vs

and add_relative b = function
  | [] -> ()
  | first :: rest ->
    (* Inside a predicate a leading child axis is implicit; a leading
       descendant axis is written [.//], XPath style. *)
    (match first.axis with
     | Child -> ()
     | Descendant -> Buffer.add_string b ".//");
    add_test b first.test;
    add_qualifiers b first.predicates first.value_predicates;
    add_path b rest

let to_string path =
  let b = Buffer.create 64 in
  add_path b path;
  Buffer.contents b

let pp ppf path = Format.pp_print_string ppf (to_string path)

let rec steps path =
  List.fold_left
    (fun acc step -> acc + 1 + List.fold_left (fun a p -> a + steps p) 0 step.predicates)
    0 path

let rec predicate_count path =
  List.fold_left
    (fun acc step ->
      acc
      + List.length step.predicates
      + List.fold_left (fun a p -> a + predicate_count p) 0 step.predicates)
    0 path

let rec value_predicate_count path =
  List.fold_left
    (fun acc step ->
      acc
      + List.length step.value_predicates
      + List.fold_left (fun a p -> a + value_predicate_count p) 0 step.predicates)
    0 path

let has_value_predicates path = value_predicate_count path > 0

let rec strip_value_predicates path =
  List.map
    (fun step ->
      { step with value_predicates = [];
        predicates = List.map strip_value_predicates step.predicates })
    path

let rec max_predicates_per_step path =
  List.fold_left
    (fun acc step ->
      let nested =
        List.fold_left (fun a p -> max a (max_predicates_per_step p)) 0 step.predicates
      in
      max acc (max (List.length step.predicates) nested))
    0 path

let rec has_descendant path =
  List.exists
    (fun step -> step.axis = Descendant || List.exists has_descendant step.predicates)
    path

let rec has_wildcard path =
  List.exists
    (fun step -> step.test = Wildcard || List.exists has_wildcard step.predicates)
    path
