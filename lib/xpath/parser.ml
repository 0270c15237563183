exception Error of { position : int; message : string }

let fail pos fmt =
  Format.kasprintf (fun message -> raise (Error { position = pos; message })) fmt

type state = { input : string; len : int; mutable pos : int }

let peek st = if st.pos < st.len then Some st.input.[st.pos] else None

let skip_space st =
  while
    st.pos < st.len
    && (match st.input.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.' || c = ':'

let read_axis st =
  (* Returns [Some axis] when positioned on '/' or '//'. *)
  skip_space st;
  match peek st with
  | Some '/' ->
    st.pos <- st.pos + 1;
    if peek st = Some '/' then begin
      st.pos <- st.pos + 1;
      Some Ast.Descendant
    end
    else Some Ast.Child
  | _ -> None

let read_test st =
  skip_space st;
  match peek st with
  | Some '*' ->
    st.pos <- st.pos + 1;
    Ast.Wildcard
  | Some c when is_name_start c ->
    let start = st.pos in
    while st.pos < st.len && is_name_char st.input.[st.pos] do
      st.pos <- st.pos + 1
    done;
    Ast.Name (String.sub st.input start (st.pos - start))
  | Some c -> fail st.pos "expected a name test or '*', found %C" c
  | None -> fail st.pos "expected a name test or '*', found end of input"

let read_name st =
  skip_space st;
  match peek st with
  | Some c when is_name_start c ->
    let start = st.pos in
    while st.pos < st.len && is_name_char st.input.[st.pos] do
      st.pos <- st.pos + 1
    done;
    String.sub st.input start (st.pos - start)
  | Some c -> fail st.pos "expected a name, found %C" c
  | None -> fail st.pos "expected a name, found end of input"

let read_literal st =
  skip_space st;
  match peek st with
  | Some (('\'' | '"') as q) ->
    st.pos <- st.pos + 1;
    let start = st.pos in
    while st.pos < st.len && st.input.[st.pos] <> q do
      st.pos <- st.pos + 1
    done;
    if st.pos >= st.len then fail start "unterminated string literal";
    let text = String.sub st.input start (st.pos - start) in
    st.pos <- st.pos + 1;
    Ast.Text text
  | Some c when c = '-' || (c >= '0' && c <= '9') ->
    let start = st.pos in
    if c = '-' then st.pos <- st.pos + 1;
    (* Digits, a point and an exponent as the printer writes one ([1e+15],
       [2.5e-07]); [float_of_string] rejects any other mix. *)
    while
      st.pos < st.len
      && (match st.input.[st.pos] with
          | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
          | _ -> false)
    do
      st.pos <- st.pos + 1
    done;
    (match float_of_string_opt (String.sub st.input start (st.pos - start)) with
     | Some x when Float.is_finite x -> Ast.Number x
     | Some _ -> fail start "numeric literal out of range"
     | None -> fail start "malformed numeric literal")
  | Some c -> fail st.pos "expected a literal, found %C" c
  | None -> fail st.pos "expected a literal, found end of input"

let read_cmp st =
  skip_space st;
  let two a = st.pos <- st.pos + 2; Some a in
  let one a = st.pos <- st.pos + 1; Some a in
  match peek st with
  | Some '=' -> one Ast.Eq
  | Some '!' when st.pos + 1 < st.len && st.input.[st.pos + 1] = '=' -> two Ast.Ne
  | Some '<' when st.pos + 1 < st.len && st.input.[st.pos + 1] = '=' -> two Ast.Le
  | Some '<' -> one Ast.Lt
  | Some '>' when st.pos + 1 < st.len && st.input.[st.pos + 1] = '=' -> two Ast.Ge
  | Some '>' -> one Ast.Gt
  | _ -> None

let self_dot st =
  (* A bare '.' step (XPath self::node() abbreviation): semantically a no-op
     on the child axis, so it is consumed and dropped. A '.' that starts a
     longer token ('..', '.5', a name containing '.') is left alone and
     rejected by [read_test] as before. *)
  skip_space st;
  if
    st.pos < st.len
    && st.input.[st.pos] = '.'
    && (st.pos + 1 >= st.len || not (is_name_char st.input.[st.pos + 1]))
  then begin
    st.pos <- st.pos + 1;
    true
  end
  else false

(* Inside '[...]': a value predicate is NAME op literal or @NAME op literal;
   anything else is a structural relative path. Try the value form first and
   roll back on mismatch. *)
let read_value_predicate st =
  let saved = st.pos in
  skip_space st;
  let target =
    match peek st with
    | Some '@' ->
      st.pos <- st.pos + 1;
      Some (Ast.Attribute (read_name st))
    | Some c when is_name_start c -> Some (Ast.Child_text (read_name st))
    | _ -> None
  in
  match target with
  | None ->
    st.pos <- saved;
    None
  | Some target ->
    (match read_cmp st with
     | None ->
       (match target with
        | Ast.Attribute _ -> fail st.pos "expected a comparison after '@name'"
        | Ast.Child_text _ ->
          st.pos <- saved;
          None)
     | Some cmp ->
       let literal = read_literal st in
       (match (cmp, literal) with
        | (Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), Ast.Text _ ->
          fail saved "ordered comparisons require a numeric literal"
        | _ -> ());
       Some { Ast.target; cmp; literal })

let rec read_qualifiers st =
  skip_space st;
  match peek st with
  | Some '[' ->
    st.pos <- st.pos + 1;
    let qualifier =
      match read_value_predicate st with
      | Some vp -> `Value vp
      | None -> `Structural (read_relative st)
    in
    skip_space st;
    (match peek st with
     | Some ']' -> st.pos <- st.pos + 1
     | Some c -> fail st.pos "expected ']', found %C" c
     | None -> fail st.pos "expected ']', found end of input");
    let rest = read_qualifiers st in
    qualifier :: rest
  | _ -> []

and read_step st axis =
  let test = read_test st in
  let qualifiers = read_qualifiers st in
  let predicates =
    List.filter_map (function `Structural p -> Some p | `Value _ -> None) qualifiers
  in
  let value_predicates =
    List.filter_map (function `Value v -> Some v | `Structural _ -> None) qualifiers
  in
  { Ast.axis; test; predicates; value_predicates }

and read_relative st =
  (* First step of a predicate: implicit child axis, or explicit [.//]. *)
  skip_space st;
  let first_axis =
    if st.pos + 3 <= st.len && String.sub st.input st.pos 3 = ".//" then begin
      st.pos <- st.pos + 3;
      Ast.Descendant
    end
    else if st.pos + 2 <= st.len && String.sub st.input st.pos 2 = "./" then begin
      st.pos <- st.pos + 2;
      Ast.Child
    end
    else Ast.Child
  in
  let first = read_step st first_axis in
  let rest = read_rest st in
  first :: rest

and read_rest st =
  match read_axis st with
  | Some Ast.Child when self_dot st -> read_rest st
  | Some axis ->
    let step = read_step st axis in
    let rest = read_rest st in
    step :: rest
  | None -> []

let parse input =
  let st = { input; len = String.length input; pos = 0 } in
  match read_axis st with
  | None -> fail st.pos "a path must start with '/' or '//'"
  | Some axis ->
    let path =
      if axis = Ast.Child && self_dot st then read_rest st
      else
        let first = read_step st axis in
        first :: read_rest st
    in
    if path = [] then
      (* '/.' or '/./.' alone: the document root, which no step selects. *)
      fail st.pos "expected a name test or '*', found end of input";
    skip_space st;
    if st.pos <> st.len then fail st.pos "trailing input after path";
    path

let parse_opt input = match parse input with
  | path -> Some path
  | exception Error _ -> None

type error = { position : int; message : string }

let parse_result input =
  match parse input with
  | path -> Ok path
  | exception Error { position; message } -> Result.Error { position; message }
