let compare_value_predicate (a : Xpath.Ast.value_predicate)
    (b : Xpath.Ast.value_predicate) =
  Stdlib.compare a b

let rec canonicalize (path : Xpath.Ast.t) : Xpath.Ast.t =
  List.map canonical_step path

and canonical_step (s : Xpath.Ast.step) =
  let predicates =
    List.sort_uniq Xpath.Ast.compare (List.map canonicalize s.predicates)
  in
  let value_predicates =
    List.sort_uniq compare_value_predicate s.value_predicates
  in
  { s with predicates; value_predicates }

type key = { hash : int; text : string }

let hash_of_text text =
  String.fold_left
    (fun h c -> Core.Path_hash.extend h (Char.code c))
    Core.Path_hash.empty text

let of_ast ast =
  let text = Xpath.Ast.to_string (canonicalize ast) in
  { hash = hash_of_text text; text }

let of_string query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Core.Error.make ~position Core.Error.Malformed_query message)
  | Ok path -> Ok (of_ast path)

let equal a b = String.equal a.text b.text
