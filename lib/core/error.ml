type kind =
  | Malformed_xml
  | Malformed_query
  | Corrupt_synopsis
  | Limit_exceeded
  | Missing_file
  | Io_error
  | Internal
  | Timeout
  | Overloaded

type t = {
  kind : kind;
  position : int option;
  section : string option;
  message : string;
}

exception Xseed of t

let make ?position ?section kind message = { kind; position; section; message }

let raisef ?position ?section kind fmt =
  Format.kasprintf
    (fun message -> raise (Xseed (make ?position ?section kind message)))
    fmt

let kind_name = function
  | Malformed_xml -> "malformed-xml"
  | Malformed_query -> "malformed-query"
  | Corrupt_synopsis -> "corrupt-synopsis"
  | Limit_exceeded -> "limit-exceeded"
  | Missing_file -> "missing-file"
  | Io_error -> "io-error"
  | Internal -> "internal"
  | Timeout -> "timeout"
  | Overloaded -> "overloaded"

(* sysexits.h: EX_DATAERR 65, EX_NOINPUT 66, EX_SOFTWARE 70, EX_IOERR 74,
   EX_TEMPFAIL 75 (the two transient serving failures: a request deadline
   expired, or admission control shed the request under load). EX_USAGE 64
   is assigned by the CLI driver for command-line errors. *)
let exit_code t =
  match t.kind with
  | Malformed_xml | Malformed_query | Corrupt_synopsis | Limit_exceeded -> 65
  | Missing_file -> 66
  | Io_error -> 74
  | Internal -> 70
  | Timeout | Overloaded -> 75

let kind t = t.kind
let position t = t.position
let section t = t.section
let message t = t.message

let pp ppf t =
  let describe = function
    | Malformed_xml -> "malformed XML"
    | Malformed_query -> "malformed query"
    | Corrupt_synopsis -> "corrupt synopsis"
    | Limit_exceeded -> "resource limit exceeded"
    | Missing_file -> "missing file"
    | Io_error -> "I/O error"
    | Internal -> "internal error"
    | Timeout -> "deadline exceeded"
    | Overloaded -> "overloaded"
  in
  Format.fprintf ppf "%s" (describe t.kind);
  (match (t.section, t.position) with
   | Some s, Some p -> Format.fprintf ppf " (%s section, line %d)" s p
   | Some s, None -> Format.fprintf ppf " (%s section)" s
   | None, Some p -> Format.fprintf ppf " (at byte %d)" p
   | None, None -> ());
  Format.fprintf ppf ": %s" t.message

let to_string t = Format.asprintf "%a" pp t

let to_json t =
  let open Obs.Json in
  Obj
    [ ("kind", String (kind_name t.kind));
      ("position", match t.position with None -> Null | Some p -> Int p);
      ("section", match t.section with None -> Null | Some s -> String s);
      ("message", String t.message) ]

let of_exn = function
  | Xseed t -> Some t
  | Xml.Sax.Malformed { position; message } ->
    Some (make ~position Malformed_xml message)
  | Xml.Sax.Limit { position; message } ->
    Some (make ~position Limit_exceeded message)
  | Xpath.Parser.Error { position; message } ->
    Some (make ~position Malformed_query message)
  | Sys_error message -> Some (make Io_error message)
  | End_of_file -> Some (make Io_error "unexpected end of file")
  | Invalid_argument message | Failure message -> Some (make Internal message)
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> (match of_exn e with Some t -> Error t | None -> raise e)

let read_file path =
  if not (Sys.file_exists path) then
    Error (make Missing_file ("no such file: " ^ path))
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | contents -> Ok contents
    | exception Sys_error msg -> Error (make Io_error msg)
    | exception End_of_file -> Error (make Io_error (path ^ ": file shrank"))
