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
    PROFILE <n>                 ->  one-line per-stage latency breakdown of
                                    the n following request lines:
                                    OK <n> queue_wait_us p50=.. p90=.. p99=..
                                    execute_us ... reassemble_us ...
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

    [PROFILE n] frames exactly like [BATCH n] (the n following lines are
    ESTIMATE requests, verb prefix optional) but runs them as one traced
    batch and answers with a single line giving exact p50/p90/p99 of the
    three serving stages in microseconds: queue-wait (submit to execution
    start, which for a slot deep in a chunk includes its predecessors'
    execute time), execute (start to result), reassemble (result to batch
    completion). The stages mean the same with one worker, where the
    submitter serves each chunk itself, as with many. Hitting end of input
    inside the frame is one [ERR io-error] line.

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

type stage_percentiles = { p50 : float; p90 : float; p99 : float }
(** Exact rank percentiles over one stage's samples, microseconds. *)

type profile_reply = {
  profiled : int;  (** queries measured *)
  queue_wait_us : stage_percentiles;
  execute_us : stage_percentiles;
  reassemble_us : stage_percentiles;
  timed_out : int;  (** queries refused with [ERR timeout] during the run *)
  shed : int;  (** queries refused with [ERR overloaded] during the run *)
  tenant : string option;
      (** the tenant that served the run, rendered as a trailing
          [tenant=<name>] field; [None] outside a registry session *)
}

val version : string
(** The server version [VERSION] reports (also the CLI's [--version]). *)

val protocol_version : int
(** The serve-protocol revision [VERSION] reports and the TCP HELLO
    handshake negotiates. *)

type server = {
  estimate : string -> (estimate_reply, Core.Error.t) result;
  estimate_batch : string list -> (estimate_reply, Core.Error.t) result list;
      (** One result per query, in submission order; one bad query does not
          fail the batch. *)
  feedback : string -> actual:int -> (Feedback.outcome, Core.Error.t) result;
  explain : string -> (Core.Explain.report, Core.Error.t) result;
  stats_json : unit -> Obs.Json.t;
  metrics_text : unit -> string;
  recent : int option -> (Flight_recorder.record list, Core.Error.t) result;
      (** Newest first; [Error] when telemetry is disabled. *)
  drift_json : unit -> (Obs.Json.t, Core.Error.t) result;
  profile : string list -> (profile_reply, Core.Error.t) result;
      (** Run the queries as one measured batch and report the per-stage
          breakdown. Per-query errors do not fail the run — the reply is a
          timing summary. *)
  audit : unit -> (Obs.Json.t, Core.Error.t) result;
      (** Shadow-audit status: settle in-flight audits (bounded wait),
          drain results, and report the true q-error window and worst-step
          attribution as one JSON object; [Error] when auditing is
          disabled (no [--audit-rate] or no source document). *)
}

val max_batch : int
(** Default upper bound on a single BATCH (and PROFILE) count (10,000);
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

val nearest_rank : float array -> float -> float
(** [nearest_rank samples p] is the sample of rank [round (p * (n-1))]
    in a sorted copy of [samples] (sorted once per [nearest_rank
    samples]); [0.0] when empty. PROFILE's stages and the AUDIT window
    both read it. *)

val percentiles : float array -> stage_percentiles
(** p50/p90/p99 by {!nearest_rank} (all zeros when empty). Exposed for
    {!Pool.profile} and the bench. *)

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
    BATCH/PROFILE count. [extra verb rest] is consulted before the core
    verb table — a registry session adds USE/LOAD/TENANTS there; returning
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
