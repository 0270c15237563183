(** The serve line protocol, generic over what answers it.

    A {!server} is a record of closures — the protocol layer neither knows
    nor cares what sits behind it: a {!Pool.t} (with one worker or many),
    a {!Registry} session, or a {!Journal}-wrapped vtable. One request per
    line:

    {v
    ESTIMATE <xpath>            ->  OK <estimate> <hit|miss>
    BATCH <n>                   ->  OK <n>, then n per-query OK/ERR lines
                                    answering the n following request
                                    lines in submission order
    FEEDBACK <xpath> <actual>   ->  OK <q_error> <refined|kept>
    EXPLAIN <xpath>             ->  OK <explain report as one-line JSON>
    STATS                       ->  OK <stats as one-line JSON>
    METRICS                     ->  Prometheus text exposition (multi-line)
    RECENT [n]                  ->  OK <k> then k flight-record JSON lines,
                                    newest first
    DRIFT                       ->  OK <drift summary as one-line JSON>
    AUDIT                       ->  OK <shadow-audit summary as one-line
                                    JSON: sampled/completed/shed counts,
                                    backlog, true q-error window
                                    (count/p50/p90/max) and top-k worst
                                    steps by attribution>
    PING                        ->  OK pong
    VERSION                     ->  OK xseed <version> protocol <n>
    v}

    [PING] and [VERSION] never touch a synopsis — they are the health-check
    surface load balancers probe, identical over the stdin and TCP
    transports, and they answer even on a registry session with no tenant
    selected.

    [BATCH n] consumes exactly [n] further input lines, each an ESTIMATE
    request (the [ESTIMATE ] verb prefix is optional on payload lines), and
    answers them in submission order behind an [OK n] header — under a pool
    the batch fans out across worker domains but the reply order is still
    the submission order. A malformed count (missing, negative, non-numeric
    or above the per-batch limit of 10,000) fails with a single [ERR] line
    before any payload line is consumed; hitting end of input inside a
    batch yields [ERR io-error] lines for the missing slots.

    Any failure — unknown verb, bad query, missing count, pipeline limit —
    is a one-line [ERR <kind> <message>] where [kind] is
    {!Core.Error.kind_name}; the handler never raises and never emits a
    non-finite number. [METRICS], [RECENT] and [BATCH] are the only
    multi-line responses, and only on success — their malformed spellings
    still fail with a single [ERR] line. Blank lines are ignored. *)

type estimate_reply = { value : float; status : Core.Explain.cache_status }

val version : string
(** The server version [VERSION] reports (also the CLI's [--version]). *)

val protocol_version : int
(** The serve-protocol revision [VERSION] reports and the TCP HELLO
    handshake negotiates. *)

type server = {
  estimate_batch : string list -> (estimate_reply, Core.Error.t) result list;
      (** One result per query, in submission order; one bad query does not
          fail the batch. [ESTIMATE] is a batch of one. *)
  feedback : string -> actual:int -> (Feedback.outcome, Core.Error.t) result;
  explain : string -> (Core.Explain.report, Core.Error.t) result;
  stats_json : unit -> Obs.Json.t;
  metrics_text : unit -> string;
  recent : int option -> (Flight_recorder.record list, Core.Error.t) result;
      (** Newest first; [Error] when telemetry is disabled. *)
  drift_json : unit -> (Obs.Json.t, Core.Error.t) result;
  audit : unit -> (Obs.Json.t, Core.Error.t) result;
      (** Shadow-audit status: settle in-flight audits (bounded wait),
          drain results, and report the true q-error window and worst-step
          attribution as one JSON object; [Error] when auditing is
          disabled (no [--audit-rate] or no source document). *)
}

val max_batch : int
(** Default upper bound on a single BATCH count (10,000);
    [?max_batch] on {!handle_request}/{!run} overrides it per server and
    the rejection message always names the live limit. *)

val err : Core.Error.t -> string
(** The one [ERR] line: [ERR <kind> <message>], newlines in the message
    turned to spaces, plus [" (at N)"] when the error carries a
    position. Every verb, the registry's USE/LOAD/TENANTS and the TCP
    server render errors with it. *)

val malformed : ('a, Format.formatter, unit, string) format4 -> 'a
(** {!err} of a [Malformed_query] error with a formatted message. *)

val estimate_line : (estimate_reply, Core.Error.t) result -> string
(** One [ESTIMATE] reply (or [BATCH] slot): [OK <value> <hit|miss>], the
    value printed as [Printf]'s [%.2f] prints it, or {!err}. *)

val handle_request :
  ?max_batch:int ->
  ?extra:(string -> string -> string option) ->
  server ->
  read_line:(unit -> string option) ->
  string ->
  string option
(** Answer one request line: [None] for a blank line, otherwise the
    complete response (no trailing newline; multi-line for successful
    [METRICS]/[RECENT]/[BATCH]). [read_line] supplies the extra payload
    lines a [BATCH] needs ([None] = end of input); it is only called for a
    well-formed BATCH count. [max_batch] (default {!max_batch}) bounds the
    BATCH count. [extra verb rest] is consulted before the core verb
    table — a registry session adds USE/LOAD/TENANTS there; returning
    [None] falls through (and an unknown verb still answers one [ERR]). *)

val run :
  ?on_request:(unit -> unit) ->
  ?max_batch:int ->
  ?extra:(string -> string -> string option) ->
  server ->
  in_channel ->
  out_channel ->
  unit
(** Serve until EOF, flushing after every response. [on_request] runs
    after each non-blank request has been answered and flushed — the
    CLI's [--snapshot-every] hook. [max_batch]/[extra] as in
    {!handle_request}. *)
