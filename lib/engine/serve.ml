(* The serve line protocol. A server is just a record of closures (a pool,
   a registry session, a journal wrapper), and the protocol layer owns
   parsing, error rendering, and the BATCH framing (which needs to pull
   extra request lines, hence [read_line]). *)

type estimate_reply = { value : float; status : Core.Explain.cache_status }

type stage_percentiles = { p50 : float; p90 : float; p99 : float }

type profile_reply = {
  profiled : int;
  queue_wait_us : stage_percentiles;
  execute_us : stage_percentiles;
  reassemble_us : stage_percentiles;
  timed_out : int;
  shed : int;
  tenant : string option;
}

(* One source of truth for what VERSION reports; the CLI reuses [version]
   for its own --version string so the two cannot drift. *)
let version = "1.0.0"
let protocol_version = 1

type server = {
  estimate : string -> (estimate_reply, Core.Error.t) result;
  estimate_batch : string list -> (estimate_reply, Core.Error.t) result list;
  feedback :
    string -> actual:int -> (Feedback.outcome, Core.Error.t) result;
  explain : string -> (Core.Explain.report, Core.Error.t) result;
  stats_json : unit -> Obs.Json.t;
  metrics_text : unit -> string;
  recent : int option -> (Flight_recorder.record list, Core.Error.t) result;
  drift_json : unit -> (Obs.Json.t, Core.Error.t) result;
  profile : string list -> (profile_reply, Core.Error.t) result;
  audit : unit -> (Obs.Json.t, Core.Error.t) result;
}

(* Nearest-rank selection over a sorted copy of raw samples (PROFILE runs
   are bounded by [max_batch], so sorting a copy is fine); zero for an
   empty run — the protocol never emits a non-finite number. *)
let nearest_rank samples =
  let s = Array.copy samples in
  Array.sort Float.compare s;
  let n = Array.length s in
  fun p ->
    if n = 0 then 0.0
    else
      let i = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      s.(max 0 (min (n - 1) i))

let percentiles samples =
  let at = nearest_rank samples in
  { p50 = at 0.5; p90 = at 0.9; p99 = at 0.99 }

(* A BATCH larger than the configured cap is rejected before reading any
   payload lines: the reply buffers one line per query, so the count bounds
   memory. 10k is the default; [xseed serve --max-batch] overrides it, and
   the ERR diagnostic always names the live limit so clients can adapt. *)
let max_batch = 10_000

let sanitize s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let err e =
  let position =
    match Core.Error.position e with
    | Some p -> Printf.sprintf " (at %d)" p
    | None -> ""
  in
  Printf.sprintf "ERR %s %s%s"
    (Core.Error.kind_name (Core.Error.kind e))
    (sanitize (Core.Error.message e))
    position

let malformed fmt =
  Format.kasprintf
    (fun m -> err (Core.Error.make Core.Error.Malformed_query m))
    fmt

let split_verb line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
    ( String.sub line 0 i,
      String.trim (String.sub line i (String.length line - i)) )

let chop_trailing_newline s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\n' then String.sub s 0 (n - 1) else s

(* Printf's [%.2f] is this primitive; calling it directly skips the
   format interpreter and prints the same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

let estimate_line = function
  | Ok { value; status } ->
    String.concat " "
      [ "OK"; format_float "%.2f" value; Core.Explain.cache_status_name status ]
  | Error e -> err e

(* A BATCH payload line is an ESTIMATE request; the verb itself is optional
   so both "ESTIMATE //a" and a bare "//a" work. *)
let batch_query line =
  let line = String.trim line in
  let verb = "ESTIMATE " in
  let vl = String.length verb in
  if String.length line >= vl && String.sub line 0 vl = verb then
    String.trim (String.sub line vl (String.length line - vl))
  else line

let handle_batch server ~max_batch ~read_line rest =
  match int_of_string_opt rest with
  | None -> malformed "BATCH expects a non-negative integer count"
  | Some n when n < 0 -> malformed "BATCH expects a non-negative integer count"
  | Some n when n > max_batch ->
    malformed "BATCH count %d exceeds limit=%d (server --max-batch)" n
      max_batch
  | Some n ->
    (* Frame first: read exactly [n] payload lines (EOF inside the frame
       becomes a per-slot error), then answer them in submission order. *)
    let slots =
      List.init n (fun _ ->
          match read_line () with
          | Some l -> Ok (batch_query l)
          | None ->
            Result.Error
              (Core.Error.make Core.Error.Io_error
                 "unexpected end of input inside BATCH"))
    in
    let queries = List.filter_map Result.to_option slots in
    let results = ref (server.estimate_batch queries) in
    let lines =
      List.map
        (fun slot ->
          match slot with
          | Result.Error e -> err e
          | Ok _ ->
            (match !results with
             | r :: rest ->
               results := rest;
               estimate_line r
             | [] ->
               err
                 (Core.Error.make Core.Error.Internal
                    "batch reply shorter than batch")))
        slots
    in
    String.concat "\n" (Printf.sprintf "OK %d" n :: lines)

let stage_fields { p50; p90; p99 } =
  Printf.sprintf "p50=%.1f p90=%.1f p99=%.1f" p50 p90 p99

let profile_line = function
  | Error e -> err e
  | Ok p ->
    Printf.sprintf
      "OK %d queue_wait_us %s execute_us %s reassemble_us %s timeout=%d \
       shed=%d%s"
      p.profiled
      (stage_fields p.queue_wait_us)
      (stage_fields p.execute_us)
      (stage_fields p.reassemble_us)
      p.timed_out p.shed
      (match p.tenant with
       | None -> ""
       | Some t -> Printf.sprintf " tenant=%s" t)

(* PROFILE frames like BATCH — [n] further payload lines — but answers with
   a single breakdown line, so a truncated frame is one ERR, not n. *)
let handle_profile server ~max_batch ~read_line rest =
  match int_of_string_opt rest with
  | None -> malformed "PROFILE expects a non-negative integer count"
  | Some n when n < 0 -> malformed "PROFILE expects a non-negative integer count"
  | Some n when n > max_batch ->
    malformed "PROFILE count %d exceeds limit=%d (server --max-batch)" n
      max_batch
  | Some n ->
    let truncated = ref false in
    let queries =
      List.filter_map
        (fun _ ->
          match read_line () with
          | Some l -> Some (batch_query l)
          | None ->
            truncated := true;
            None)
        (List.init n Fun.id)
    in
    if !truncated then
      err
        (Core.Error.make Core.Error.Io_error
           "unexpected end of input inside PROFILE")
    else profile_line (server.profile queries)

let handle_request ?(max_batch = max_batch) ?extra server ~read_line raw =
  let line = String.trim raw in
  if line = "" then None
  else
    Some
      (try
         let verb, rest = split_verb line in
         (* [extra] gets first refusal so a registry session can add verbs
            (USE/LOAD/TENANTS) without the protocol layer knowing them;
            [None] falls through to the core verb table. *)
         match
           match extra with None -> None | Some f -> f verb rest
         with
         | Some response -> response
         | None ->
         match verb with
         | "ESTIMATE" -> estimate_line (server.estimate rest)
         | "BATCH" -> handle_batch server ~max_batch ~read_line rest
         | "PROFILE" -> handle_profile server ~max_batch ~read_line rest
         | "FEEDBACK" ->
           (match String.rindex_opt rest ' ' with
            | None -> malformed "FEEDBACK expects '<xpath> <actual-count>'"
            | Some i ->
              let query = String.trim (String.sub rest 0 i) in
              let count =
                String.sub rest (i + 1) (String.length rest - i - 1)
              in
              (match int_of_string_opt count with
               | Some actual when actual >= 0 && query <> "" ->
                 (match server.feedback query ~actual with
                  | Ok fb ->
                    Printf.sprintf "OK %.3f %s" fb.Feedback.q_error
                      (if fb.Feedback.refined then "refined" else "kept")
                  | Error e -> err e)
               | _ ->
                 malformed
                   "FEEDBACK expects '<xpath> <actual-count>' with a \
                    non-negative integer count"))
         | "EXPLAIN" ->
           (match server.explain rest with
            | Ok r -> "OK " ^ Obs.Json.to_string (Core.Explain.to_json r)
            | Error e -> err e)
         | "STATS" ->
           if rest = "" then "OK " ^ Obs.Json.to_string (server.stats_json ())
           else malformed "STATS takes no argument"
         | "METRICS" ->
           (* The one multi-line response without a header: the payload IS
              the Prometheus exposition, ready to proxy to a scraper. *)
           if rest = "" then chop_trailing_newline (server.metrics_text ())
           else malformed "METRICS takes no argument"
         | "RECENT" ->
           let n =
             if rest = "" then Ok None
             else
               match int_of_string_opt rest with
               | Some n when n >= 0 -> Ok (Some n)
               | _ -> Result.Error ()
           in
           (match n with
            | Result.Error () ->
              malformed "RECENT takes an optional non-negative integer count"
            | Ok n ->
              (match server.recent n with
               | Error e -> err e
               | Ok records ->
                 String.concat "\n"
                   (Printf.sprintf "OK %d" (List.length records)
                   :: List.map
                        (fun fr ->
                          Obs.Json.to_string (Flight_recorder.to_json fr))
                        records)))
         | "DRIFT" ->
           if rest <> "" then malformed "DRIFT takes no argument"
           else
             (match server.drift_json () with
              | Ok j -> "OK " ^ Obs.Json.to_string j
              | Error e -> err e)
         | "AUDIT" ->
           if rest <> "" then malformed "AUDIT takes no argument"
           else
             (match server.audit () with
              | Ok j -> "OK " ^ Obs.Json.to_string j
              | Error e -> err e)
         (* Health-check verbs: both answer without touching a synopsis, so
            load balancers can probe a server whose tenants are all paged
            out (and a registry session with no tenant selected). *)
         | "PING" ->
           if rest = "" then "OK pong" else malformed "PING takes no argument"
         | "VERSION" ->
           if rest = "" then
             Printf.sprintf "OK xseed %s protocol %d" version protocol_version
           else malformed "VERSION takes no argument"
         | _ ->
           malformed
             "unknown command %S (expected ESTIMATE, BATCH, PROFILE, \
              FEEDBACK, EXPLAIN, STATS, METRICS, RECENT, DRIFT, AUDIT, PING \
              or VERSION)"
             verb
       with exn ->
         err
           (match Core.Error.of_exn exn with
            | Some e -> e
            | None -> Core.Error.make Core.Error.Internal (Printexc.to_string exn)))

let run ?on_request ?max_batch ?extra server ic oc =
  let read_line () = try Some (input_line ic) with End_of_file -> None in
  let rec loop () =
    match read_line () with
    | None -> ()
    | Some raw ->
      (match handle_request ?max_batch ?extra server ~read_line raw with
       | Some response ->
         output_string oc response;
         output_char oc '\n';
         flush oc;
         (match on_request with None -> () | Some f -> f ())
       | None -> ());
      loop ()
  in
  loop ()
