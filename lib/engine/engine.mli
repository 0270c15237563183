(** The serving layer: one loaded synopsis answering a stream of estimate
    requests, learning from execution feedback as it goes.

    {!Pool} is the serving core. It owns a {!Core.Estimator.t} and wraps it
    with what a host optimizer needs that the per-query API does not give:

    - {b amortized EPT}: the traveler's estimation path tree is materialized
      once and shared across queries instead of rebuilt per call;
    - {b an estimate cache}: queries are canonicalized ({!Canonical}) and
      served from size-bounded LRUs ({!Lru_cache}), so equivalent spellings
      cost one pipeline run;
    - {b a feedback loop} ({!Feedback}): observed true cardinalities whose
      q-error crosses a threshold refresh the HET under its memory budget,
      after which every cached estimate is invalidated and the shared EPT
      rebuilt — the next requests re-derive from the refined synopsis.

    On top of these it carries serving telemetry: every answered query
    appends a {!Flight_recorder} record (stage wall times, cache outcome,
    per-query matcher stats), feedback observations stream into a {!Drift}
    monitor (sliding-window q-error with edge-triggered alerts), and the
    METRICS scrape renders engine totals, drift gauges and pipeline
    counters as Prometheus text.

    [Pool.create ~workers:1] serves every request on the caller's thread;
    with more workers the shards run on their own domains behind a
    {!Work_queue}, with single-writer feedback and epoch-based cache
    invalidation. {!Serve} is the line protocol in front of it, {!Journal}
    makes feedback crash-safe, {!Registry} hosts many synopses (one
    one-worker pool per resident tenant) and {!Auditor} measures true
    q-error in the background.

    Surfaced on the command line as [xseed serve] (line protocol, with
    [--workers N]) and [xseed replay] (workload-driven feedback rounds). *)

module Canonical = Canonical
module Lru_cache = Lru_cache
module Feedback = Feedback
module Flight_recorder = Flight_recorder
module Drift = Drift
module Work_queue = Work_queue
module Serve = Serve
module Pool = Pool
module Journal = Journal
module Registry = Registry
module Auditor = Auditor
module Scrape_meter = Scrape_meter
