(** Lightweight, zero-dependency observability layer for the XSEED pipeline.

    The layer has two halves with different cost profiles:

    - {e metrics} — named monotonic counters, point-in-time gauges and
      log-bucketed histograms held in a registry, optionally carrying a
      label set ({!counter_with} and friends) so one metric family can be
      split per dimension (dataset, cache outcome, …). Handles are resolved
      once ({!counter}, {!gauge}, {!histogram}); bumping a handle is a plain
      mutable-field update, cheap enough for hot loops. Pipeline stages
      publish their totals with the [?obs]-optional helpers ({!add_to},
      {!max_to}, {!set_to}, {!observe}), which are no-ops when no context is
      supplied — the compiled-in-but-off default.
    - {e events and spans} — emitted to a pluggable {!type-sink}: [Noop]
      (default; nothing happens, no clock is read), a stderr pretty-printer
      (the CLI's [--trace]), or a JSON-lines channel (the CLI's
      [--metrics-out]). Spans nest and time their body with the wall clock;
      use them at stage granularity, not per node.

    Registered metrics can be rendered two ways: {!snapshot} (JSON, one
    object) and {!prometheus} (Prometheus text exposition format 0.0.4,
    for a scrape endpoint such as [xseed serve]'s [METRICS] command).

    {!module-Window} is a sliding-window histogram — a ring of
    sub-histograms its owner rotates, merged on read —
    for "over the last N observations" percentiles (the serving engine's
    accuracy-drift monitor). Windows live outside the registry.

    {!module-Json} is a minimal self-contained JSON tree used for the
    JSON-lines sink, snapshots, bench output and the explain report. *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact one-line rendering. Floats are emitted so they survive a
      round-trip. JSON has no spelling for [nan] or the infinities, so
      non-finite floats are emitted as [null] — the layer's wire convention
      for "no meaningful number" (e.g. the mean of an empty histogram).
      {!of_string} therefore accepts [null] wherever a number is expected
      (it parses to [Null] like any other [null]), and {!equal} treats a
      non-finite [Float] and [Null] as equal, so
      [of_string (to_string v) = v] holds for every value this module can
      emit, non-finite floats included. *)

  val to_buffer : Buffer.t -> t -> unit

  val of_string : string -> t
  (** Parse a JSON document (used by tests to round-trip sink output).
      @raise Invalid_argument on malformed input. *)

  val equal : t -> t -> bool
  (** Structural equality; object fields compare order-insensitively. A
      non-finite [Float] (nan, ±infinity) equals [Null], matching the
      null-for-non-finite emission convention of {!to_string}. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on other constructors. *)
end

type sink =
  | Noop  (** discard everything; no clock reads, no formatting *)
  | Stderr  (** human-readable lines on stderr, indented by span depth *)
  | Jsonl of out_channel  (** one JSON object per line *)

type t
(** An observability context: a sink plus a metric registry. Contexts are
    independent; a fresh context gives per-run (e.g. per-query) metrics.

    Domain-safety: registry {e shape} (registering new series, iterating
    for {!snapshot}/{!prometheus}/{!reset}/{!merged}) is serialized by an
    internal mutex, so one domain may render a scrape while another is
    still creating series. Bumping an already-resolved handle remains a
    plain mutable-field update — memory-safe but lossy under concurrent
    writers — so writers should not share one context across domains; give
    each domain its own registry and combine them with {!merged}. *)

val create : ?sink:sink -> unit -> t
(** Default sink is [Noop]. *)

val sink : t -> sink

val jsonl_file : string -> sink
(** Open [path] for writing and return a JSON-lines sink on it. The channel
    is owned by the context: {!close} closes it. *)

val close : t -> unit
(** Flush the sink; close its channel if it was opened by {!jsonl_file} or
    supplied as [Jsonl]. The sink becomes [Noop]. *)

(** {1 Labels}

    Every metric optionally carries a label set: [(key, value)] pairs that
    split one family into per-dimension series (Prometheus-style). Two
    handles with the same name and the same labels (order-insensitive) are
    the same metric; different label sets under one name are separate
    series of one family, rendered together by {!prometheus}. *)

type labels = (string * string) list

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** The counter registered under [name] (no labels), created at zero on
    first use. *)

val counter_with : t -> string -> labels -> counter
(** The series of family [name] carrying exactly [labels]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set_max : counter -> int -> unit
(** Raise the counter to [v] if [v] is larger. Used for high-water-mark
    gauges (max depth, frontier peaks) and for republishing monotone
    totals idempotently (a serving layer pushing lifetime totals before
    every scrape). A counter fed this way merges by max ({!merged}). *)

val value : counter -> int

(** {1 Gauges}

    A gauge is a point-in-time value that can go up or down — cache
    occupancy, window percentiles, hit rates. *)

type gauge

val gauge : t -> string -> gauge
val gauge_with : t -> string -> labels -> gauge
val gset : gauge -> float -> unit
val gvalue : gauge -> float
(** Fresh gauges read [0.0]. *)

(** {1 Histograms} *)

type histogram

val histogram : t -> string -> histogram
(** The histogram registered under [name]. Buckets are base-2 logarithmic
    over non-negative samples, so percentiles are approximate (exact rank
    selection within a factor-of-two bucket, interpolated geometrically). *)

val histogram_with : t -> string -> labels -> histogram

val hobserve : histogram -> float -> unit
val hcount : histogram -> int
val hsum : histogram -> float
val hmean : histogram -> float
val hmax : histogram -> float

val hpercentile : histogram -> float -> float
(** [hpercentile h 0.9] is the approximate 90th percentile; [nan] when the
    histogram is empty. [p] is clamped to [0, 1]. *)

(** {1 Sliding windows}

    A {!Window.t} is a ring of [slots] sub-histograms. Observations land in
    the current slot; when the window's owner calls {!Window.rotate} the
    ring advances and the oldest slot is cleared, so reads always cover the
    last [slots] rotation periods — a sliding window with slot-granular
    expiry, rotated when its owner says so (the drift monitor rotates per
    feedback count). Reads merge the live slots, so percentiles are
    computed over the whole window at the same factor-of-two accuracy as
    plain histograms. Windows are not
    registered in a context; callers own them (the drift monitor publishes
    derived gauges instead). *)

module Window : sig
  type t

  val create : ?slots:int -> unit -> t
  (** [slots] (default 6) sub-histograms.
      @raise Invalid_argument when [slots] < 1. *)

  val observe : t -> float -> unit
  val rotate : t -> unit
  (** Force the ring forward one slot (clearing the slot it lands on). *)

  val count : t -> int
  (** Observations currently inside the window. *)

  val max : t -> float
  val percentile : t -> float -> float
  (** Both are merged-window statistics; [nan] when the window is empty. *)
end

(** {1 Optional-context publishing}

    All of these are no-ops when [?obs] is absent, so instrumented code can
    publish unconditionally. *)

val add_to : ?obs:t -> string -> int -> unit
val max_to : ?obs:t -> string -> int -> unit
val set_to : ?obs:t -> string -> float -> unit
(** Gauge set. *)

val observe : ?obs:t -> string -> float -> unit

(** {1 Events and spans} *)

val now : unit -> float
(** Wall-clock seconds — for {e timestamps} (sink event lines, trace file
    headers), never for durations: the wall clock jumps under NTP skew. *)

val now_mono : unit -> float
(** Monotonic seconds ([CLOCK_MONOTONIC]) — the clock for every duration
    this layer measures (span timing, window rotation, trace events) and
    for stage timing throughout the pipeline. The origin is arbitrary;
    only differences are meaningful. Reading it does not allocate. *)

val minor_collections : unit -> int
(** Process-wide minor collections so far — [Gc.quick_stat]'s
    [minor_collections], read in one load instead of a summation over
    every domain's statistics, so a serving loop can bracket each request
    with it. Does not allocate. *)

val major_collections : unit -> int
(** Process-wide completed major cycles — [Gc.quick_stat]'s
    [major_collections], as cheaply as {!minor_collections}. *)

val major_words : unit -> float
(** The calling domain's words allocated in or promoted to the major heap
    so far — [Gc.counters]' promoted plus major words, read without
    allocating. *)

val event : ?obs:t -> ?fields:(string * Json.t) list -> string -> unit
(** Emit one event to the sink (nothing on [Noop]). *)

val span : ?obs:t -> string -> (unit -> 'a) -> 'a
(** [span ?obs name f] runs [f]. With a non-[Noop] sink it also emits a
    begin event, times [f] with the monotonic clock, and emits an end event
    carrying [dur_ms]; nested spans indent the stderr pretty-printer
    (the nesting depth is atomic, so pool workers sharing one context
    cannot corrupt it).
    The duration is also recorded in histogram [name ^ ".ms"] so snapshots
    include stage timings. With [Noop] (or no [obs]) the only cost is the
    closure call. Exceptions propagate; the end event is still emitted. *)

(** {1 Snapshots} *)

val snapshot : t -> Json.t
(** All registered metrics, in registration order: counters as integers,
    gauges as floats, histograms as
    [{count, sum, mean, max, p50, p90, p99}] objects. Labeled series
    appear under ["name{k=\"v\",…}"] keys. The object always re-parses
    with {!Json.of_string} (non-finite floats emit as [null], per the
    convention documented on {!Json.to_string}). *)

val emit_snapshot : t -> unit
(** Emit {!snapshot} as a ["snapshot"] event to the sink. *)

val prometheus : ?prefix:string -> t -> string
(** Render every registered metric in the Prometheus text exposition
    format, version 0.0.4 (content type
    [text/plain; version=0.0.4; charset=utf-8]). [prefix] (default empty;
    XSEED's exporters pass ["xseed_"]) is prepended to every metric name
    before sanitization; dots and other characters outside
    [[a-zA-Z0-9_:]] become underscores, so ["engine.cache.hits"] exports
    as [xseed_engine_cache_hits]. Each family gets one [# HELP] line
    (carrying the original dotted name) and one [# TYPE] line
    ([counter] / [gauge] / [histogram]), then one sample per label set.
    Histograms render cumulative [_bucket{le="…"}] samples on the base-2
    bucket bounds plus [_sum] and [_count]. Non-finite gauge values use
    the format's [NaN] / [+Inf] / [-Inf] spellings. *)

val reset : t -> unit
(** Zero every registered metric (the registry keeps its names). *)

val merged : t list -> t
(** A fresh context holding the union of the inputs' series, combined
    per series key: counters sum — except a series some input fed by
    {!set_max} (a high-water mark such as [matcher.frontier_peak], or a
    republished total), which takes the largest input and stays a
    high-water mark in the result — gauges sum (publish non-additive gauges
    into the merged result afterwards), histograms merge bucket-wise (sums
    add, maxima max, [count] recomputed from the merged buckets so the
    cumulative rendering stays self-consistent). The result's series are
    ordered by series key, so {!snapshot} and {!prometheus} over a merge
    are deterministic regardless of each input's registration order — the
    serving pool's per-shard registries render identically however work
    was scheduled. The inputs are read under their locks and copied; the
    result aliases nothing and has a [Noop] sink.
    @raise Invalid_argument when one series key has different metric kinds
    across inputs. *)

val merged_labeled : (labels * t) list -> t
(** {!merged}, additionally appending each input's extra labels to every
    series copied from it — the multi-tenant registry merges per-tenant
    engine registries under [[("tenant", name)]] so one scrape exposes
    every tenant's series side by side. Identical label sets after widening
    combine exactly as in {!merged}. *)

val mirror : into:t -> t -> unit
(** Copy every series of the source into [into]: counters are raised to
    the source's value and keep its merge kind, gauges and histograms take the
    source's state. Mirroring a registry whose counters only grow is
    idempotent, so a serving layer can mirror its merged view into a
    sink-bearing registry before every snapshot. Series of [into] the
    source lacks are left alone.
    @raise Invalid_argument when a series key has different metric kinds
    in the two registries. *)

(** {1 Causal tracing}

    Low-overhead event tracing for the parallel serving path, exported as
    Chrome trace-event / Perfetto JSON ([chrome://tracing],
    {{:https://ui.perfetto.dev}ui.perfetto.dev}).

    A {!Trace.t} owns a string-intern table and a set of per-thread ring
    {!Trace.buf}s. Each buffer belongs to exactly one writer at a time (a
    worker domain, or whichever thread holds the lock that owns the
    buffer), so the record path takes no lock and touches only
    preallocated arrays — safe inside the estimate hot loop. Event names are interned once at setup
    ({!Trace.intern}); recording passes integer ids and monotonic
    timestamps relative to the trace origin ({!Trace.rel}). When a ring
    wraps, the oldest events are overwritten — a trace keeps the newest
    [capacity] events per thread.

    Five event kinds are recorded: complete slices ([X]), flow arrows
    ([s]/[f]) and async spans ([b]/[e]). {!Trace.to_json} merges all
    buffers into one [traceEvents] array:
    [pid] is the process, [tid] the registered thread id, timestamps are
    microseconds since the trace origin (the wall clock at the origin is
    carried in [otherData.wall_origin_s]), and each thread's events are
    sorted by timestamp, which Perfetto requires per track. {!Trace.lint}
    validates that contract and is what [xseed trace-lint] runs; it also
    checks phases this module does not record ([B]/[E], [t], [i], [C]),
    because it reads trace files from elsewhere too. *)

module Trace : sig
  type t
  (** A trace session: intern table, origin clocks, registered buffers. *)

  type buf
  (** One thread's ring buffer; written by exactly one domain. *)

  val create : ?capacity:int -> unit -> t
  (** A fresh trace anchored at the current instant. [capacity] (default
      65536) is the per-buffer ring size used when {!register} does not
      override it.
      @raise Invalid_argument when [capacity] < 1. *)

  val intern : t -> string -> int
  (** The id of [name], interning it on first use. Do this at setup; the
      record path wants integers. Domain-safe. *)

  val register : ?capacity:int -> t -> tid:int -> name:string -> buf
  (** A new ring buffer exported under thread id [tid], labelled [name] in
      the Perfetto track list. Domain-safe; the returned buffer must only
      ever be written by one domain at a time. *)

  val rel : t -> float -> float
  (** Convert an absolute {!now_mono} reading to trace-relative seconds —
      the [ts] every record operation expects. *)

  val total : buf -> int
  (** Lifetime events recorded into [buf] (not capped by the ring size —
      the tracing-disabled guard test asserts this stays zero). *)

  val trace : buf -> t

  (** {2 Recording}

      All operations write one ring slot; [ts] is trace-relative seconds
      ({!rel}). None of them lock or allocate beyond the boxing of
      their float arguments. *)

  val complete : buf -> name:int -> ts:float -> dur:float -> unit
  (** A Chrome [X] (complete) slice starting at [ts], [dur] seconds long.
      Record it when the slice {e ends} — the exporter re-sorts. *)

  val complete_seq : buf -> name:int -> ts:float -> dur:float -> seq:int -> unit
  (** {!complete} carrying the query's submission sequence number as a
      slice argument, so a Perfetto slice links back to flight records. *)

  val flow_start : buf -> name:int -> ts:float -> id:int -> unit
  val flow_end : buf -> name:int -> ts:float -> id:int -> unit
  (** A flow arrow ([s] to [f]) under one [id], possibly across buffers —
      the pool links a queued chunk's admission to the [execute] slice
      that serves it. Flow events should sit inside slices so Perfetto can
      anchor them. *)

  val async_begin : buf -> name:int -> ts:float -> id:int -> unit
  val async_end : buf -> name:int -> ts:float -> id:int -> unit
  (** Async ([b]/[e]) spans under one [id]: they may overlap freely and may
      end on a different buffer than they began — the pool's queue-wait
      spans (begun at admission on the submitter's shard, ended at dequeue
      on the serving shard). *)

  (** {2 Export} *)

  val to_json : t -> Json.t
  (** The merged trace:
      [{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": ...}],
      with per-thread [thread_name] metadata and every thread's events in
      timestamp order. A flow or async half whose partner is in no ring
      (overwritten by a wrap, or not recorded yet) is left out, so a
      wrapped trace still lints. Safe to call while writers are still
      recording (slots are copied as-is; a torn in-progress slot can at
      worst misplace one event, never corrupt the structure). *)

  val write : t -> string -> unit
  (** {!to_json} serialized to [path], newline-terminated. *)

  val lint : Json.t -> string list
  (** Structural violations in a parsed trace file; [[]] iff well-formed.
      Checks: [traceEvents] is an array of objects carrying
      [ph]/[name]/[pid]/[tid]/[ts]; per-track timestamps never decrease;
      [X] slices carry a non-negative [dur]; [B]/[E] match and nest;
      every flow id that is stepped or ended was started, and every
      started flow id ends; async begin/end counts balance per id. *)
end
