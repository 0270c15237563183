(* Append-only CRC-framed write-ahead log for feedback observations. The
   format is deliberately dumb — one {!Core.Frame} (length + CRC + text
   payload, the TCP wire codec) per entry — because the recovery rule has
   to be decidable on arbitrary bytes: stop at the first frame that is
   torn (runs past EOF) or corrupt (present but CRC/parse-invalid), and
   truncate there. *)

type entry = { query : string; actual : int }

type tail = Clean | Torn of int | Corrupt of int

type scan = {
  entries : entry list;
  frames : int;
  valid_bytes : int;
  tail : tail;
}

let magic = "XSEEDJ1\n"

(* ------------------------------------------------------------------ *)
(* Encoding: one {!Core.Frame} per entry *)

let payload_of_entry e = Printf.sprintf "F %d %s" e.actual e.query

let entry_of_payload p =
  let n = String.length p in
  if n < 4 || p.[0] <> 'F' || p.[1] <> ' ' then None
  else
    match String.index_from_opt p 2 ' ' with
    | None -> None
    | Some i ->
      (match int_of_string_opt (String.sub p 2 (i - 2)) with
       | Some actual when actual >= 0 ->
         Some { query = String.sub p (i + 1) (n - i - 1); actual }
       | _ -> None)

let frame e = Core.Frame.encode_string (payload_of_entry e)

let to_string entries =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  List.iter (fun e -> Core.Frame.encode b (payload_of_entry e)) entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Scanning *)

let not_a_journal path_hint =
  Core.Error.make Core.Error.Corrupt_synopsis
    (Printf.sprintf "%snot an XSEED journal (bad magic; expected %S)"
       (match path_hint with None -> "" | Some p -> p ^ ": ")
       (String.trim magic))

let scan_string s =
  let total = String.length s in
  let mlen = String.length magic in
  if total = 0 then
    Ok { entries = []; frames = 0; valid_bytes = 0; tail = Clean }
  else if total < mlen || String.sub s 0 mlen <> magic then
    Error (not_a_journal None)
  else begin
    let b = Bytes.unsafe_of_string s in
    let rec go entries off =
      let stop tail =
        { entries = List.rev entries; frames = List.length entries;
          valid_bytes = off; tail }
      in
      if off = total then stop Clean
      else
        (* A journal is local and trusted for size: no payload cap. *)
        match
          Core.Frame.decode ~max_payload:max_int b ~off ~len:(total - off)
        with
        | Core.Frame.Need_more ->
          (* The frame runs past EOF: the crash-mid-append residue the
             format is designed to shrug off. *)
          stop (Torn off)
        | Core.Frame.Too_large _ | Core.Frame.Crc_mismatch ->
          stop (Corrupt off)
        | Core.Frame.Frame { payload; consumed } ->
          (match entry_of_payload payload with
           | Some e -> go (e :: entries) (off + consumed)
           | None -> stop (Corrupt off))
    in
    Ok (go [] mlen)
  end

let scan_file path =
  match Core.Error.read_file path with
  | Error _ as e -> e
  | Ok s ->
    (match scan_string s with
     | Error _ -> Error (not_a_journal (Some path))
     | Ok _ as ok -> ok)

let recover path =
  if not (Sys.file_exists path) then
    Ok { entries = []; frames = 0; valid_bytes = 0; tail = Clean }
  else
    match scan_file path with
    | Error _ as e -> e
    | Ok scan ->
      (match scan.tail with
       | Clean -> Ok scan
       | Torn _ | Corrupt _ ->
         (match Unix.truncate path scan.valid_bytes with
          | () -> Ok scan
          | exception Unix.Unix_error (err, _, _) ->
            Error
              (Core.Error.make Core.Error.Io_error
                 (Printf.sprintf "%s: truncating dirty tail: %s" path
                    (Unix.error_message err)))))

(* ------------------------------------------------------------------ *)
(* Writing *)

type fsync = [ `Always | `Every of int | `Never ]

type writer = {
  oc : out_channel;
  fsync : fsync;
  mutable appended : int;
  mutable closed : bool;
}

let io_error fmt = Printf.ksprintf (Core.Error.make Core.Error.Io_error) fmt

let open_append ?(fsync = `Always) path =
  (match fsync with
   | `Every n when n < 1 ->
     invalid_arg "Journal.open_append: `Every n requires n >= 1"
   | _ -> ());
  (* Only the magic decides: an empty (or absent) file gets one written,
     a non-empty one must start with it. *)
  let head =
    match open_in_bin path with
    | exception Sys_error _ -> ""
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          really_input_string ic
            (min (String.length magic) (in_channel_length ic)))
  in
  if head <> "" && head <> magic then Error (not_a_journal (Some path))
  else
    match open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path with
    | oc ->
      if head = "" then begin
        output_string oc magic;
        flush oc
      end;
      Ok { oc; fsync; appended = 0; closed = false }
    | exception Sys_error m -> Error (io_error "%s" m)

let appended w = w.appended

let do_fsync w =
  flush w.oc;
  try Unix.fsync (Unix.descr_of_out_channel w.oc)
  with Unix.Unix_error _ | Sys_error _ -> ()

let append w e =
  if w.closed then Error (io_error "journal writer is closed")
  else
    match
      output_string w.oc (frame e);
      w.appended <- w.appended + 1;
      (match w.fsync with
       | `Always -> do_fsync w
       | `Every n -> if w.appended mod n = 0 then do_fsync w else flush w.oc
       | `Never -> flush w.oc)
    with
    | () -> Ok ()
    | exception Sys_error m -> Error (io_error "journal append: %s" m)

let close w =
  if not w.closed then begin
    (try do_fsync w with _ -> ());
    (try close_out_noerr w.oc with _ -> ());
    w.closed <- true
  end

(* ------------------------------------------------------------------ *)
(* Serving *)

let resume ?fsync path (server : Serve.server) =
  match recover path with
  | Error e -> Error e
  | Ok scan ->
    let failed =
      List.fold_left
        (fun n e ->
          match server.Serve.feedback e.query ~actual:e.actual with
          | Ok _ -> n
          | Error _ -> n + 1)
        0 scan.entries
    in
    Result.map (fun w -> (scan, failed, w)) (open_append ?fsync path)

let wrap_server w (s : Serve.server) =
  { s with
    Serve.feedback =
      (fun query ~actual ->
        match s.Serve.feedback query ~actual with
        | Error _ as e -> e
        | Ok fb ->
          (match append w { query; actual } with
           | Ok () -> Ok fb
           | Error e -> Error e)) }
