let compare_value_predicate (a : Xpath.Ast.value_predicate)
    (b : Xpath.Ast.value_predicate) =
  Stdlib.compare a b

(* [List.map f l], but [l] itself when [f] returns every element as it
   was, so an AST already in normal form is not copied. *)
let rec map_same f l =
  match l with
  | [] -> l
  | x :: rest ->
    let x' = f x in
    let rest' = map_same f rest in
    if x' == x && rest' == rest then l else x' :: rest'

let rec strictly_sorted cmp = function
  | a :: (b :: _ as rest) -> cmp a b < 0 && strictly_sorted cmp rest
  | _ -> true

(* [List.sort_uniq], skipped when the list is already sorted without
   duplicates — always so for fewer than two elements. *)
let sort_uniq cmp l = if strictly_sorted cmp l then l else List.sort_uniq cmp l

let rec canonicalize (path : Xpath.Ast.t) : Xpath.Ast.t =
  map_same canonical_step path

and canonical_step (s : Xpath.Ast.step) =
  let predicates =
    sort_uniq Xpath.Ast.compare (map_same canonicalize s.predicates)
  in
  let value_predicates = sort_uniq compare_value_predicate s.value_predicates in
  if predicates == s.predicates && value_predicates == s.value_predicates then s
  else { s with predicates; value_predicates }

type key = { hash : int; text : string }

let hash_of_text text =
  let h = ref Core.Path_hash.empty in
  for i = 0 to String.length text - 1 do
    h := Core.Path_hash.extend !h (Char.code text.[i])
  done;
  !h

let normal_form ast =
  let cast = canonicalize ast in
  let text = Xpath.Ast.to_string cast in
  (cast, { hash = hash_of_text text; text })

let of_ast ast = snd (normal_form ast)

let of_string query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Core.Error.make ~position Core.Error.Malformed_query message)
  | Ok path -> Ok (of_ast path)

let equal a b = String.equal a.text b.text
