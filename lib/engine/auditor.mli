(** Shadow accuracy auditor: sampled ground-truth q-error without client
    feedback, with per-step error attribution.

    The serving engine's accuracy observability ({!Drift}, the q-error
    metrics, replay's [--assert-improving]) only sees truth when a client
    volunteers [FEEDBACK <actual>]. The auditor closes the paper's Figure 1
    loop with zero client cooperation: a deterministic hash-based sampler
    taps served estimates from the hot path into a bounded {!Work_queue},
    and a dedicated low-priority audit domain replays each sampled query
    against a resident {!Nok.Storage} of the source document (the paper's
    Section 6.4 exact evaluator), computing the {e true} q-error.

    Design constraints, in priority order:

    - {e Audited queries never delay or fail a client response.} The tap is
      a pure hash test plus a bounded try-push; a full queue sheds the
      sample (counted, never surfaced as an ERR) and the client answer is
      already on the wire either way.
    - {e Zero shared mutable state with the serving estimator.} The audit
      domain owns a private estimator (loaded from the synopsis file, or
      handed over at create) and its own memoized EPT, so HET refinement on
      the serving side never races a shadow evaluation.
    - {e Deterministic sampling.} Whether a query is in-sample depends only
      on [(seed, rate, canonical hash)] — the same query is always in or
      out, independent of arrival order or interleaving ({!in_sample} is
      exposed pure for the property tests).

    Each audited query also gets {e error attribution}: the query's step
    prefixes are re-estimated against the private estimator and evaluated
    exactly, so the step whose q-error multiplier is largest — the place
    accuracy is lost — is identified per query and aggregated per
    label/axis/clamp bucket.

    Completed audits accumulate inside the auditor (an exact q-error ring
    feeding the [AUDIT] verb's window percentiles) and are handed back to
    the serving layer via {!drain}, which runs on the serving thread where
    {!Drift.observe} and the q-error-gated HET refinement are safe. *)

type source =
  | Paths of { synopsis : string; doc : string }
      (** Load lazily on the audit domain: the synopsis file (a private
          estimator) and the source document (a value-collecting
          {!Nok.Storage}). A load failure disables auditing (visible in
          {!status_json} and the [engine.audit.errors] counter) — it never
          affects serving. *)
  | Loaded of { estimator : Core.Estimator.t; storage : Nok.Storage.t }
      (** Hand over already-built resources. The estimator becomes the
          audit domain's private property — callers must not keep using
          it. *)

type step_report = {
  index : int;  (** 1-based step position in the canonical query *)
  step : string;  (** the step's own concrete syntax, e.g. ["//item[bidder]"] *)
  label : string;  (** name test, or ["*"] *)
  axis : string;  (** ["child"] or ["descendant"] *)
  clamped : bool;  (** the prefix estimate was degenerate-clamped *)
  estimate : float;  (** private-estimator estimate of the prefix *)
  actual : int;  (** exact NoK cardinality of the prefix *)
  qerror : float;  (** smoothed q-error of the prefix *)
  contribution : float;
      (** this step's q-error multiplier: prefix q-error over the previous
          prefix's q-error — the attribution signal. *)
}

type audited = {
  query : string;  (** canonical text *)
  hash : int;  (** canonical hash *)
  ast : Xpath.Ast.t;  (** canonical AST, for the refinement path *)
  estimate : float;  (** the estimate the client was served *)
  actual : int;  (** exact cardinality from the NoK evaluator *)
  qerror : float;  (** smoothed q-error of [estimate] vs [actual] *)
  steps : step_report list;  (** one per step prefix, in query order *)
  worst : step_report option;  (** the largest [contribution]; [None] only
                                   when attribution itself failed *)
}

val in_sample : seed:int -> rate:float -> int -> bool
(** [in_sample ~seed ~rate hash] — the pure sampling rule: mix [seed] into
    [hash] (splitmix64 finalizer), scale to \[0, 1) and compare against
    [rate]. Rate 0.0 selects nothing and 1.0 selects everything, exactly;
    intermediate rates select a fixed pseudo-random subset of hash space,
    so the same query is always in or out of sample regardless of arrival
    order. *)

val window_json : float array -> Obs.Json.t
(** [{"count", "p50", "p90", "max"}] over raw q-errors, each the sample
    of nearest rank [round (p * (n-1))] (the max is rank [p = 1]; all
    zeros when empty) — rendered identically by the [AUDIT] verb and
    [xseed audit]'s summary line, so the two agree to float equality. *)

val audit_one :
  estimator:Core.Estimator.t ->
  ept:Core.Matcher.ept Lazy.t ->
  storage:Nok.Storage.t ->
  estimate:float ->
  Xpath.Ast.t ->
  (audited, string) result
(** The shadow evaluation itself, exposed for the offline [xseed audit]
    subcommand: exact cardinality plus per-prefix attribution of a
    canonical AST. [estimate] is the served (or offline-estimated) value
    the headline q-error judges. Errors (query too large for the NoK
    bitmask, value predicates without collected values, ...) come back as
    a message, never an exception. *)

val audited_json : audited -> Obs.Json.t
(** One attribution record: query, estimate, actual, q-error, worst step
    and the per-step breakdown — a line of the JSON-lines attribution
    report and the ["audit"] payload of a flight record. *)

type t

val create :
  ?seed:int ->
  ?feedback:bool ->
  ?queue_capacity:int ->
  ?trace:Obs.Trace.t ->
  rate:float ->
  source ->
  t
(** Spawn the audit domain. [rate] must be within \[0, 1\] (at 0.0 the tap
    never fires but the AUDIT surface still answers). [seed] (default
    [0x5eed]) keys the sampler. [feedback] (default false) marks drained
    audits for the q-error-gated HET refinement path ([--audit-feedback]).
    [queue_capacity] (default 256) bounds the tap's {!Work_queue} — a
    sample it refuses as full is shed.
    The exact q-error window keeps the last 4096 completed audits.
    [trace] adds an [audit] track recording one slice per shadow
    evaluation.
    @raise Invalid_argument on a rate outside \[0, 1\]. *)

val feedback_enabled : t -> bool

val sample :
  t -> query:string -> hash:int -> ast:Xpath.Ast.t -> estimate:float -> unit
(** The hot-path tap. Applies {!in_sample}; offers the sample with one
    {!Work_queue.try_push}. Never blocks, never raises, never touches the
    reply — a full queue increments the shed counter and drops the
    sample; after {!shutdown} nothing is counted. Safe from any
    domain. *)

val drain : t -> (audited -> unit) -> unit
(** Hand every completed audit to [f], oldest first, on the caller's
    thread. The caller must be the serving side's single writer (the pool
    drained under its submit lock) so [f] may safely run
    {!Drift.observe} and HET refinement. *)

val note_refined : t -> unit
(** Count one audit-driven HET refinement (the drain callback reports
    back; the auditor itself never touches the serving estimator). *)

val settle : ?timeout_s:float -> t -> bool
(** Block until every accepted sample has been audited — [sampled]
    equals [completed + errors + shed], so the backlog is 0 — or the
    auditor is shut down, or [timeout_s] (default 5.0) elapses; [true]
    unless it timed out. The [AUDIT] verb settles first so its report
    covers everything already sampled. *)

val status_json : t -> Obs.Json.t
(** The [AUDIT] reply: rate, sampled/completed/shed/error counts, backlog,
    refinement count, the exact q-error window ({!window_json}) and the
    top worst-step buckets. *)

val publish : t -> Obs.t -> unit
(** Republish the audit state into a scrape registry, idempotently:
    [engine.audit.*] counters/gauges plus the per-bucket
    [engine.audit.worst_step{label,axis,clamp}] series. Call it from the
    scrape path — values only move when audits complete, so quiet
    re-scrapes stay byte-identical. *)

val shutdown : t -> unit
(** Close the tap queue and join the audit domain, which skips the
    samples still queued (the backlog stays as counted). Idempotent. *)
