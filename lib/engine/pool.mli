(** The serving core: one shared synopsis, N shards.

    The pool owns one immutable synopsis (kernel + HET + value synopsis)
    and one materialized EPT, shared read-only by [workers] shards. Each
    shard is private — its own {!Lru_cache}, {!Flight_recorder} ring,
    {!Obs} registry and {!Drift} volume shard — so the estimate hot path
    takes no lock beyond the {!Work_queue}'s own mutex.

    {b The submitter is worker 0.} [create ~workers:n] counts serving
    threads: the submitting thread, which owns shard 0 (only code holding
    the submission lock touches it), plus [n - 1] worker domains owning
    shards 1..n-1. The coordinator's writes also happen under that lock,
    so shard 0 holds them: the [engine.pool.batch_chunk] histogram, and
    the FEEDBACK, EXPLAIN, shed and audit flight records; there is no
    separate coordinator registry or ring. A request that fits in one
    chunk — every ESTIMATE, any BATCH of up to 8 — and any request to a
    one-worker pool is served whole on the submitter, under the
    submission lock, with no queue, latch or wake-up. This is the single-threaded engine of
    [xseed serve --workers 1], [xseed replay] and every {!Registry}
    tenant; it is domain-safe (concurrent callers take turns on the
    submission lock). The worker domains start with the first batch that
    queues a chunk and run until {!shutdown}, so a pool that only ever
    serves one-chunk requests runs no domain at all.

    {b Chunk dispatch} (DESIGN.md §16). A batch of [n] queries is cut by
    {!plan_chunks} into contiguous slices, one queue operation per chunk
    rather than per query. With two or more workers a batch of several
    chunks queues every chunk but its first in one shared FIFO; the
    submitter serves the first chunk, takes back queued chunks
    ({!Work_queue.try_pop}) until none is left, and waits for the ones the
    domains popped, so a straggler holds up only its own chunk. Every
    thread runs the same chunk body, deadline checks, flight records and
    crash cleanup. Shards write replies lock-free into the batch's
    preallocated submission-order result array. One pool-wide completion
    monitor (a mutex, a condition and the in-flight chunk count) retires
    each queued chunk once, publishes its replies, and wakes both the
    batch's submitter and a drain with one broadcast when a batch's last
    chunk retires; a batch served whole on the submitter never touches
    the monitor.

    {b Single-writer feedback.} [feedback] (and [explain]) take the
    submission lock, wait for in-flight chunks to drain, and only then
    touch the shared HET/EPT. A refining feedback bumps the pool {!epoch};
    shards compare it when they next take a chunk and drop their
    now-stale caches. No estimate ever observes a half-applied refinement.

    {b Determinism.} Over the same synopsis, estimates are bit-identical
    whatever the worker count and whichever shard serves a chunk: the
    matcher keeps all per-query scratch off the shared EPT, and every
    shard estimator is built from the same kernel/HET/values. Merged
    metrics ({!metrics_text}) are rendered from a per-scrape registry with
    series sorted by key, so the exposition does not depend on
    scheduling. *)

type t

val create :
  ?workers:int ->
  ?qerror_threshold:float ->
  ?cache_capacity:int ->
  ?telemetry:bool ->
  ?drift_p90_threshold:float ->
  ?queue_capacity:int ->
  ?trace:Obs.Trace.t ->
  ?deadline_s:float ->
  ?shed_policy:[ `Block | `Shed_newest ] ->
  ?chaos:(string -> bool) ->
  ?auditor:Auditor.t ->
  Core.Estimator.t ->
  t
(** [workers] (default 2) counts serving threads: the submitter plus
    [workers - 1] worker domains, which the first batch that queues a chunk
    spawns; [create] itself spawns none. Call {!shutdown} when done.
    [qerror_threshold] (default 2.0) is the minimum q-error at which
    feedback refines the HET. [cache_capacity] (default 1024) is {e per
    shard}, as is each shard's 256-record flight ring; [queue_capacity]
    (default 256) is the chunk slots of the one shared queue. The EPT
    is materialized eagerly, here and on every refinement, so no served
    query pays for it (a failure surfaces as [Limit_exceeded] on the
    first estimate). [telemetry] (default [true]) enables the flight
    recorders and the {!Drift} monitor (6 x 64 feedback observations,
    alerting at window-p90 q-error [drift_p90_threshold], default 8.0);
    [~telemetry:false] turns them off
    for baseline benchmarking. Pipeline metrics of cache misses land in
    per-shard registries; FEEDBACK and EXPLAIN run on [estimator] itself,
    so its own registry (if any) sees theirs, plus the drift monitor's
    [drift_alert] events.

    {b Failure model} (DESIGN.md §13). [deadline_s] gives every request a
    wall-clock budget, measured from its batch's admission on the
    monotonic clock ({!Obs.now_mono}) and checked per slot: before the
    slot executes (so a deadline can expire mid-chunk — earlier slots
    answered, later ones refused [ERR timeout]) and again between
    canonicalize and the pipeline on a cache miss. Cache hits always
    answer. [shed_policy] (default [`Block]) governs a full queue:
    [`Block] applies backpressure (the submitter waits), [`Shed_newest]
    refuses the chunk being submitted — every slot it carries — with
    [ERR overloaded] without blocking. Only queued chunks can be shed: a
    one-chunk request, a batch's first chunk and anything sent to a
    one-worker pool are served on the submitter and never queue. Serving
    threads are supervised: an exception escaping a chunk body answers the
    chunk's unserved slots with [ERR internal] and bumps
    {!worker_restarts}; a worker domain then restarts its loop in place,
    the submitter simply carries on — a batch never hangs on a dead
    worker. A query whose execution has killed workers twice is
    quarantined (refused [ERR internal] before executing). [chaos] is a
    test-only fault hook called on the serving thread right before each
    query executes; returning [true] kills the chunk body there,
    exercising the supervisor.

    [trace] attaches the pool to an {!Obs.Trace} session: the coordinator
    registers tid 0 and each shard tid [id+1] (shard 0, tid 1, is the
    submitter's). Per chunk the trace carries
    a [chunk_dispatch] instant at submit, a [queue_wait] async span (begun
    at submit on the coordinator, ended at dequeue on the serving shard),
    an [execute] slice with per-query [canonicalize] / [pipeline]
    sub-slices on the shard track, and a [query] flow arrow linking
    submit -> execute -> gather; [batch_submit] / [batch_gather] slices
    frame the coordinator's work ([feedback] / [explain] slices
    frame the drained verbs). Shard buffers are written only by the
    thread serving the shard (its domain, or for shard 0 the submitter
    holding the submission lock); the coordinator buffer is guarded by an
    internal innermost lock. Without [trace] the hot path never touches a
    ring.

    [auditor] attaches a shadow auditor: every estimate a shard serves is
    offered to {!Auditor.sample} (thread-safe, lock-then-drop — never
    blocks the reply), and completed audits are folded back into the
    drift window and shard 0's flight ring only under the drained
    single-writer state (on the feedback path, the [AUDIT] verb and
    {!drain_audits}), so audit feedback follows the same epoch protocol as
    client feedback.
    The pool does not own the auditor's lifecycle: the caller shuts it
    down after {!shutdown}.
    @raise Invalid_argument when [workers] < 1 or the threshold is
    invalid. *)

val shutdown : t -> unit
(** Close the queue, let queued chunks drain, and join the worker domains
    started so far (none if no batch ever queued a chunk, so it returns at
    once). Idempotent; subsequent requests answer with an [internal]
    error. *)

val drain_audits : t -> unit
(** Fold completed shadow audits into the telemetry now, under the
    drained single-writer state — the drain epilogue's flush. A no-op
    without an auditor or after {!shutdown}. *)

val workers : t -> int
(** Serving threads: the submitter plus the worker domains, as created. *)

val domains : t -> int
(** Worker domains started so far: 0 until the first batch that queues a
    chunk, then [workers - 1] until {!shutdown}. *)

val plan_chunks : n:int -> workers:int -> (int * int) array
(** The pure chunk plan: [n] slots cut into [min n (max workers (ceil
    n/8))] contiguous [(lo, hi)] slices — [lo] inclusive, [hi] exclusive.
    Laws (QCheck-pinned): the slices partition [0, n) exactly (cover every
    index once, in order); sizes differ by at most one with longer chunks
    first; [n = 0] plans no chunks. *)

val epoch : t -> int
(** Cache-invalidation epoch: starts at 0, incremented by every refining
    feedback and by {!invalidate}. Monotone non-decreasing. *)

val qerror_threshold : t -> float
val feedback_seen : t -> int
val feedback_rounds : t -> int
val drift : t -> Drift.t option

val shed_total : t -> int
(** Query slots refused [ERR overloaded] by the [`Shed_newest] policy. *)

val timeout_total : t -> int
(** Query slots refused [ERR timeout] at either deadline checkpoint. *)

val worker_restarts : t -> int
(** Times the supervisor restarted a worker loop after an escaping
    exception. 0 in a healthy pool. *)

val quarantined_count : t -> int
(** Distinct queries currently quarantined (two worker kills each). *)

val set_on_record : t -> (Flight_recorder.record -> unit) -> unit
(** Sink invoked for every flight record, from whichever domain produced
    it (serialized by an internal lock — the sink itself need not be
    domain-safe). *)

val set_tenant : t -> string -> unit
(** Stamp every flight record written from now on, on every ring, with
    this tenant name ({!Flight_recorder.set_tenant}). *)

val estimate :
  ?affinity:int -> t -> string -> (Serve.estimate_reply, Core.Error.t) result
(** Submit one query and wait for its reply. Domain-safe. [affinity] is
    ignored: it remains only so that existing callers still compile, and
    goes away once they stop passing it. *)

val estimate_batch :
  ?affinity:int ->
  t ->
  string list ->
  (Serve.estimate_reply, Core.Error.t) result list
(** Submit a batch as chunks; replies return in submission order
    regardless of which shard served each slot. While the queue is full,
    [`Block] pools wait (backpressure) and [`Shed_newest] pools answer the
    overflowing chunk's slots [ERR overloaded] immediately. [affinity] is
    ignored, as on {!estimate}. *)

val feedback : t -> string -> actual:int -> (Feedback.outcome, Core.Error.t) result
(** Drain the pool, fold in finished audits, take the query's estimate,
    judge it against [actual], and refine the HET when the q-error
    reaches the threshold. Refinements rebuild the shared EPT and bump
    {!epoch} before submissions resume. The estimate is one the current
    epoch already computed — feedback's own memo, or an entry of a shard
    cache that has caught up with the epoch, read without counting or
    touching recency — or else a fresh one from the base estimator, then
    memoized; all are the same float. The flight record says [bypass]
    and the cache counters do not see it. Replaying a journal of repeated
    feedback thus runs the matcher once per query and refinement, not
    once per entry. *)

val explain : t -> string -> (Core.Explain.report, Core.Error.t) result
(** Full-pipeline explain, run drained on the base estimator. The cache
    status reports whether {e any} shard holds the query. *)

val profile : t -> string list -> (Serve.profile_reply, Core.Error.t) result
(** The [PROFILE] verb: run the queries as one batch and report exact
    per-stage percentiles from per-slot monotonic stamps. The stages
    partition each query's life: queue-wait (submit to execution start —
    for a slot deep in a chunk that includes its predecessors' execute
    time, inline as well as on a domain), execute (start to result),
    reassemble (result to batch completion). Refused slots (shed, pool
    shut down mid-submit) are excluded from [profiled]. *)

val invalidate : t -> unit
(** Bump {!epoch} without touching the synopsis, dropping every shard's
    cache at its next dequeue — cold-cache benchmark passes. *)

val stats_json : t -> Obs.Json.t
(** Cache counters and occupancy summed across shards, feedback totals,
    HET active/total/bytes and lookup counters (or [null] without a HET),
    the synopsis footprint, plus a
    ["pool"] object ([workers], [epoch], [queue_depth], the work queue's
    contention counters [queue_pushes] / [queue_pops] /
    [queue_push_waits] / [queue_pop_waits] / [queue_push_wait_s] /
    [queue_pop_wait_s] / [queue_max_occupancy], and the failure counters
    [shed_total] / [timeout_total] / [worker_restarts] / [quarantined]). *)

val publish_telemetry : t -> Obs.t -> unit
(** Mirror {!merged_metrics} into a registry with {!Obs.mirror} — the
    CLI's [--snapshot-every] and shutdown hook, so a [--metrics-out]
    snapshot carries exactly the series METRICS exports. Counters only
    rise, so publishing again and again is idempotent. The target must not
    be the base estimator's own registry, which {!merged_metrics} already
    reads. *)

val metrics_text : t -> string
(** Prometheus exposition of {!merged_metrics}. *)

val merged_metrics : t -> Obs.t
(** A fresh registry per call, merged via {!Obs.merged} (series sorted by
    key; repeated calls without traffic are identical) from: the
    pool-level totals {!stats_json} reports (read once per call, so the
    two cannot disagree) under their [engine.cache.*],
    [engine.feedback.*], [engine.het.*], [het.*], [engine.flight.records]
    and [engine.pool.*] names, plus the drift, audit and scrape-meter
    series; every shard's pipeline registry; and the base estimator's
    registry, if it was given one (the pipeline counters of [feedback] and
    [explain]). Includes, when telemetry is on: the pool-wide
    [engine.pool.queue_wait_us] histogram (per-chunk dequeue waits; shard
    observations merge by key), [engine.pool.batch_chunk],
    [engine.pool.queue.*] contention counters from {!Work_queue.stats},
    per-shard [engine.gc.*] counters (labelled [shard="N"]) and
    [engine.pool.busy_fraction] gauges (serving time over the shard's
    create-to-last-served window, so quiet re-scrapes stay byte-identical;
    best-effort reads of per-domain accumulators). *)

val recent : ?n:int -> t -> Flight_recorder.record list
(** Flight records merged across all shard rings (shard 0's also holds
    the FEEDBACK, EXPLAIN, shed and audit records), newest submission
    first ([seq] descending). *)

val cache_counters : t -> Lru_cache.counters
(** Per-shard counters summed. *)

val shard_cache_counters : t -> Lru_cache.counters array
(** One entry per shard, in shard order (test hook for the sum law). *)

val server : ?affinity:int -> t -> Serve.server
(** The serve-protocol vtable ([xseed serve]). One vtable serves every
    session. [affinity] is ignored, as on {!estimate}. *)
