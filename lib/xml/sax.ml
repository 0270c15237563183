exception Malformed of { position : int; message : string }
exception Limit of { position : int; message : string }

let fail pos fmt =
  Format.kasprintf (fun message -> raise (Malformed { position = pos; message })) fmt

let fail_limit pos fmt =
  Format.kasprintf (fun message -> raise (Limit { position = pos; message })) fmt

(* Resource guards, enforced during the scan so a hostile input is rejected
   before it can exhaust memory or blow the stack downstream. The defaults
   are far above anything the paper's corpora produce. *)
type limits = {
  max_depth : int;
  max_attribute_length : int;
  max_text_length : int;
  max_entity_length : int;
  max_input_bytes : int;
}

let default_limits =
  { max_depth = 1_000_000;
    max_attribute_length = 1 lsl 20;  (* 1 MiB *)
    max_text_length = 1 lsl 24;  (* 16 MiB per text node *)
    max_entity_length = 16;
    max_input_bytes = 1 lsl 30 (* 1 GiB *) }

(* The parser is a single left-to-right scan holding only the open-tag stack,
   so it runs in space proportional to document depth, not size. *)
type 'a state = {
  input : string;
  len : int;
  limits : limits;
  mutable pos : int;
  mutable stack : string list;  (* open elements, innermost first *)
  mutable acc : 'a;
  mutable seen_root : bool;
  f : 'a -> Event.t -> 'a;
  buf : Buffer.t;  (* scratch for text/attribute decoding *)
  (* Parse statistics, published to an Obs context when one is supplied;
     plain field bumps so the cost without one is negligible. *)
  mutable n_events : int;
  mutable n_elements : int;
  mutable n_text : int;
  mutable depth : int;
  mutable max_depth : int;
}

let peek st = if st.pos < st.len then Some st.input.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while st.pos < st.len && is_space st.input.[st.pos] do advance st done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 128

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let read_name st =
  let start = st.pos in
  (match peek st with
   | Some c when is_name_start c -> advance st
   | Some c -> fail st.pos "expected a name, found %C" c
   | None -> fail st.pos "expected a name, found end of input");
  while st.pos < st.len && is_name_char st.input.[st.pos] do advance st done;
  String.sub st.input start (st.pos - start)

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st.pos "expected %C, found %C" c c'
  | None -> fail st.pos "expected %C, found end of input" c

(* Decode an entity reference starting after '&'; appends to [st.buf]. *)
let read_entity st =
  let start = st.pos in
  let rec semi i =
    if i >= st.len then fail start "unterminated entity reference"
    else if st.input.[i] = ';' then i
    else if i - start > st.limits.max_entity_length then
      fail_limit start "entity reference longer than %d bytes"
        st.limits.max_entity_length
    else semi (i + 1)
  in
  let stop = semi st.pos in
  let body = String.sub st.input st.pos (stop - st.pos) in
  st.pos <- stop + 1;
  let add_codepoint cp =
    (* UTF-8 encode; XML corpora here are ASCII-heavy but be correct. *)
    if cp < 0 then fail start "negative character reference"
    else if cp < 0x80 then Buffer.add_char st.buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char st.buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char st.buf (Char.chr (0x80 lor (cp land 0x3F)))
    end else if cp >= 0xD800 && cp <= 0xDFFF then
      (* Surrogate codepoints are not Unicode scalar values; encoding them
         would emit invalid UTF-8 (CESU-8-style). XML 1.0 forbids them. *)
      fail start "surrogate character reference U+%04X" cp
    else if cp < 0x10000 then begin
      Buffer.add_char st.buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char st.buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char st.buf (Char.chr (0x80 lor (cp land 0x3F)))
    end else if cp <= 0x10FFFF then begin
      Buffer.add_char st.buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char st.buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char st.buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char st.buf (Char.chr (0x80 lor (cp land 0x3F)))
    end else fail start "character reference out of range"
  in
  match body with
  | "amp" -> Buffer.add_char st.buf '&'
  | "lt" -> Buffer.add_char st.buf '<'
  | "gt" -> Buffer.add_char st.buf '>'
  | "quot" -> Buffer.add_char st.buf '"'
  | "apos" -> Buffer.add_char st.buf '\''
  | _ ->
    if String.length body > 1 && body.[0] = '#' then
      let num = String.sub body 1 (String.length body - 1) in
      let cp =
        try
          if String.length num > 1 && (num.[0] = 'x' || num.[0] = 'X') then
            int_of_string ("0x" ^ String.sub num 1 (String.length num - 1))
          else int_of_string num
        with Failure _ -> fail start "bad character reference &%s;" body
      in
      add_codepoint cp
    else fail start "unknown entity &%s;" body

let read_attribute_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) -> advance st; q
    | Some c -> fail st.pos "expected quoted attribute value, found %C" c
    | None -> fail st.pos "expected quoted attribute value, found end of input"
  in
  Buffer.clear st.buf;
  let rec loop () =
    if Buffer.length st.buf > st.limits.max_attribute_length then
      fail_limit st.pos "attribute value longer than %d bytes"
        st.limits.max_attribute_length;
    match peek st with
    | None -> fail st.pos "unterminated attribute value"
    | Some c when c = quote -> advance st
    | Some '&' -> advance st; read_entity st; loop ()
    | Some '<' -> fail st.pos "'<' in attribute value"
    | Some c -> advance st; Buffer.add_char st.buf c; loop ()
  in
  loop ();
  let value = Buffer.contents st.buf in
  Buffer.clear st.buf;
  value

let read_attributes st =
  let rec loop acc =
    skip_space st;
    match peek st with
    | Some c when is_name_start c ->
      let name = read_name st in
      skip_space st;
      expect st '=';
      skip_space st;
      let value = read_attribute_value st in
      loop ((name, value) :: acc)
    | _ -> List.rev acc
  in
  loop []

let emit st evt =
  st.n_events <- st.n_events + 1;
  (match evt with
   | Event.Start_element _ ->
     st.n_elements <- st.n_elements + 1;
     st.depth <- st.depth + 1;
     if st.depth > st.limits.max_depth then
       fail_limit st.pos "element depth exceeds %d" st.limits.max_depth;
     if st.depth > st.max_depth then st.max_depth <- st.depth
   | Event.End_element _ -> st.depth <- st.depth - 1
   | Event.Text _ -> st.n_text <- st.n_text + 1);
  st.acc <- st.f st.acc evt

let flush_text st =
  if Buffer.length st.buf > 0 then begin
    (* Whitespace-only runs between elements are not reported: the cardinality
       corpora are element-structured and the paper ignores text nodes. *)
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    let all_space = ref true in
    String.iter (fun c -> if not (is_space c) then all_space := false) s;
    if not !all_space then emit st (Text s)
  end

let skip_until st pattern =
  (* Advance past the next occurrence of [pattern]. *)
  let plen = String.length pattern in
  let rec search i =
    if i + plen > st.len then fail st.pos "unterminated construct (missing %S)" pattern
    else if String.sub st.input i plen = pattern then st.pos <- i + plen
    else search (i + 1)
  in
  search st.pos

let read_doctype st =
  (* st.pos is just after "<!DOCTYPE". The internal subset may contain '>' so
     track '[' ... ']' nesting. *)
  let rec loop depth =
    match peek st with
    | None -> fail st.pos "unterminated DOCTYPE"
    | Some '[' -> advance st; loop (depth + 1)
    | Some ']' -> advance st; loop (depth - 1)
    | Some '>' when depth = 0 -> advance st
    | Some ('"' | '\'' as q) ->
      advance st;
      let rec quoted () =
        match peek st with
        | None -> fail st.pos "unterminated literal in DOCTYPE"
        | Some c when c = q -> advance st
        | Some _ -> advance st; quoted ()
      in
      quoted (); loop depth
    | Some _ -> advance st; loop depth
  in
  loop 0

let read_cdata st =
  (* st.pos is just after "<![CDATA[". *)
  let start = st.pos in
  let rec search i =
    if i + 3 > st.len then fail start "unterminated CDATA section"
    else if st.input.[i] = ']' && st.input.[i + 1] = ']' && st.input.[i + 2] = '>'
    then begin
      Buffer.add_substring st.buf st.input start (i - start);
      if Buffer.length st.buf > st.limits.max_text_length then
        fail_limit start "text node longer than %d bytes" st.limits.max_text_length;
      st.pos <- i + 3
    end
    else search (i + 1)
  in
  search st.pos

let starts_with st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.input st.pos n = s

let rec parse_markup st =
  (* st.pos is at '<'. *)
  advance st;
  match peek st with
  | Some '!' ->
    advance st;
    if starts_with st "--" then begin
      st.pos <- st.pos + 2;
      skip_until st "-->"
    end
    else if starts_with st "[CDATA[" then begin
      st.pos <- st.pos + 7;
      flush_text st;  (* CDATA joins adjacent text; keep it a separate event *)
      Buffer.clear st.buf;
      read_cdata st;
      flush_text_always st
    end
    else if starts_with st "DOCTYPE" then begin
      st.pos <- st.pos + 7;
      read_doctype st
    end
    else fail st.pos "unrecognized markup declaration"
  | Some '?' ->
    advance st;
    skip_until st "?>"
  | Some '/' ->
    advance st;
    let name = read_name st in
    skip_space st;
    expect st '>';
    (match st.stack with
     | top :: rest when top = name ->
       st.stack <- rest;
       emit st (End_element name)
     | top :: _ -> fail st.pos "mismatched closing tag </%s> (open: <%s>)" name top
     | [] -> fail st.pos "closing tag </%s> with no open element" name)
  | Some c when is_name_start c ->
    if st.stack = [] && st.seen_root then
      fail st.pos "content after the root element";
    let name = read_name st in
    let atts = read_attributes st in
    skip_space st;
    (match peek st with
     | Some '/' ->
       advance st;
       expect st '>';
       st.seen_root <- true;
       emit st (Start_element (name, atts));
       emit st (End_element name)
     | Some '>' ->
       advance st;
       st.seen_root <- true;
       st.stack <- name :: st.stack;
       emit st (Start_element (name, atts))
     | Some c -> fail st.pos "expected '>' or '/>', found %C" c
     | None -> fail st.pos "unterminated start tag <%s" name)
  | Some c -> fail st.pos "unexpected character %C after '<'" c
  | None -> fail st.pos "dangling '<' at end of input"

and flush_text_always st =
  if Buffer.length st.buf > 0 then begin
    let s = Buffer.contents st.buf in
    Buffer.clear st.buf;
    emit st (Text s)
  end

let fold ?obs ?(limits = default_limits) input ~init ~f =
  if String.length input > limits.max_input_bytes then
    fail_limit 0 "input is %d bytes, limit is %d" (String.length input)
      limits.max_input_bytes;
  let st =
    { input; len = String.length input; limits; pos = 0; stack = []; acc = init;
      seen_root = false; f; buf = Buffer.create 256; n_events = 0;
      n_elements = 0; n_text = 0; depth = 0; max_depth = 0 }
  in
  let rec loop () =
    match peek st with
    | None ->
      flush_text st;
      if st.stack <> [] then
        fail st.pos "end of input with unclosed element <%s>" (List.hd st.stack);
      if not st.seen_root then fail st.pos "no root element"
    | Some '<' ->
      flush_text st;
      parse_markup st;
      loop ()
    | Some '&' when st.stack <> [] ->
      advance st; read_entity st; loop ()
    | Some c ->
      if st.stack = [] then begin
        if not (is_space c) then fail st.pos "text outside the root element";
        advance st
      end else begin
        if Buffer.length st.buf >= st.limits.max_text_length then
          fail_limit st.pos "text node longer than %d bytes"
            st.limits.max_text_length;
        Buffer.add_char st.buf c;
        advance st
      end;
      loop ()
  in
  loop ();
  Obs.add_to ?obs "sax.events" st.n_events;
  Obs.add_to ?obs "sax.elements" st.n_elements;
  Obs.add_to ?obs "sax.text_nodes" st.n_text;
  Obs.max_to ?obs "sax.max_depth" st.max_depth;
  st.acc

type error = { position : int; message : string; kind : [ `Malformed | `Limit ] }

let fold_result ?obs ?limits input ~init ~f =
  match fold ?obs ?limits input ~init ~f with
  | acc -> Ok acc
  | exception Malformed { position; message } ->
    Error { position; message; kind = `Malformed }
  | exception Limit { position; message } ->
    Error { position; message; kind = `Limit }

let iter ?obs ?limits input ~f = fold ?obs ?limits input ~init:() ~f:(fun () e -> f e)

let into ?obs input (sink : _ Event.sink) =
  iter ?obs input ~f:sink.push;
  sink.finish ()

let events input = List.rev (fold input ~init:[] ~f:(fun acc e -> e :: acc))
