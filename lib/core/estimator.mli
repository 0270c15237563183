(** Public cardinality-estimation API: kernel + optional HET + tuning knobs.

    [estimate] runs the paper's full pipeline — traveler over the kernel
    (EST, with HET simple-path overrides), matcher over the EPT (with HET
    correlated-bsel overrides) — and returns the estimated number of nodes
    the query selects. *)

type t

val create :
  ?card_threshold:float ->
  ?max_ept_nodes:int ->
  ?recursion_aware:bool ->
  ?het:Het.t ->
  ?values:Value_synopsis.t ->
  ?obs:Obs.t ->
  Kernel.t ->
  t
(** [card_threshold] defaults to 0.5 (expand everything estimated at one
    node or more); raise it to ~20 for highly recursive data, as the paper
    does for Treebank. [max_ept_nodes] defaults to 2_000_000.
    [recursion_aware:false] is the ablation switch of
    {!Traveler.create}: pair it with {!Kernel.collapse_levels} to measure
    what the paper's recursion-level vectors buy. [values] enables
    value-predicate selectivity estimation (ignored factor-1 otherwise).
    [obs] is threaded into every traveler and matcher run this estimator
    performs, accumulating [traveler.*] and [matcher.*] metrics. *)

val kernel : t -> Kernel.t
val het : t -> Het.t option
val values : t -> Value_synopsis.t option
val card_threshold : t -> float
val max_ept_nodes : t -> int
val recursion_aware : t -> bool

val obs : t -> Obs.t option
(** The registry given to {!create}, if any. *)

val with_obs : t -> Obs.t -> t
(** The same estimator (kernel, HET, values, knobs) counting into [obs]. *)

val estimate : t -> Xpath.Ast.t -> float
(** Estimated cardinality |p|. The EPT is regenerated per call, matching the
    paper's per-query estimation cost; use {!ept}+{!estimate_on} to amortize
    it across a workload. The result is always finite and non-negative:
    degenerate values (NaN, infinity, negatives — possible only with
    inconsistent synopsis statistics) are clamped and counted on the
    [estimator.degenerate_clamps] Obs counter. *)

val estimate_string : t -> string -> float
(** Parse then estimate. @raise Xpath.Parser.Error on a bad query. *)

type outcome = {
  value : float;  (** the (clamped) estimate *)
  clamped : int;  (** 1 if the raw estimate was degenerate, else 0 *)
  unknown_labels : string list;
      (** name tests absent from the synopsis's label table, in query
          order. Unknown names are never interned into the table; they
          simply match nothing. *)
}

val estimate_result : t -> Xpath.Ast.t -> (outcome, Error.t) result
(** Total-function estimation: an empty query or one whose query tree
    exceeds the matcher's 62-node bitset limit is [Malformed_query]; an EPT
    blow-up past [max_ept_nodes] is [Limit_exceeded]. Never raises on any
    parseable query, and [outcome.value] is never NaN. *)

val estimate_string_result : t -> string -> (outcome, Error.t) result
(** {!estimate_result} after parsing; a syntax error is [Malformed_query]
    with the byte position. *)

val estimate_result_on : t -> Matcher.ept Lazy.t -> Xpath.Ast.t -> (outcome, Error.t) result
(** {!estimate_result} against a caller-held EPT, for serving layers that
    amortize materialization across queries. The EPT is forced inside the
    error guard, so a deferred blow-up still comes back as
    [Limit_exceeded]. *)

val estimate_result_stats_on :
  t ->
  Matcher.ept Lazy.t ->
  Xpath.Ast.t ->
  (outcome * Matcher.match_stats, Error.t) result
(** {!estimate_result_on} that also returns the per-query
    {!Matcher.match_stats} (frontier peak, EPT nodes visited, HET
    overrides, …) so a serving layer can attribute them to the query —
    the flight recorder's data source. Stats are still published to the
    estimator's [obs] context exactly as {!estimate_result_on} does. *)

val guarded :
  Xpath.Ast.t -> (Xpath.Query_tree.t -> 'a) -> ('a, Error.t) result
(** The checks every checked entry point above shares, around [f] applied
    to the query's tree: an empty query, or one whose tree exceeds the
    matcher's 62-node limit, is [Malformed_query] and [f] does not run; an
    EPT blow-up inside [f] is [Limit_exceeded]; any other {!Error.Xseed}
    [f] raises comes back as its error. *)

val clamp_estimate : ?obs:Obs.t -> float -> float * int
(** [(clamped value, 1 if clamping fired else 0)]; bumps
    [estimator.degenerate_clamps] when it fires. Exposed for callers that
    run {!Matcher.estimate} directly. *)

val unknown_labels : t -> Xpath.Ast.t -> string list
(** The [outcome.unknown_labels] computation alone (including name tests
    inside predicates). *)

val ept : t -> Matcher.ept
(** Materialize the EPT once. *)

val estimate_on : t -> Matcher.ept -> Xpath.Ast.t -> float

val record_feedback : ?ept:Matcher.ept -> t -> Xpath.Ast.t -> actual:int -> bool
(** Feed the actual cardinality of an executed query back into the HET
    (paper Figure 1). Simple paths insert an exact-cardinality entry keyed by
    their path hash; queries whose last spine step carries single-label
    predicates insert a correlated-bsel entry. Returns whether an entry was
    inserted or refreshed: [false] when the estimator has no HET or the
    query shape fits neither pattern. [ept] reuses a caller-held EPT for
    the error computation instead of re-materializing one per call. *)

val size_in_bytes : t -> int
(** Kernel plus active HET plus value-synopsis footprint (STATS'
    [synopsis_bytes]). {!Synopsis.size_in_bytes}, which the registry's
    memory budget and [xseed build] report, leaves the value synopsis
    out. *)
