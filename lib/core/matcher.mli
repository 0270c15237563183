(** The synopsis matcher (paper Algorithm 3).

    Materializes the traveler's EPT event stream and matches the query tree
    against it. Where the paper's pseudo-code buffers candidate events per
    query-tree node and flushes [card × aggregated-bsel] on total matches,
    this implementation computes the same quantities compositionally:

    - bottom-up, for every EPT node and query-tree node [q], the probability
      that the pattern below [q] is embedded at/below the EPT node — each
      step weighted by the event's backward selectivity exactly as
      AGGREGATED-BSEL multiplies predicate-event bsels;
    - top-down, the probability that an EPT node is a valid image of each
      result-path node given its ancestors;
    - the estimate is the sum of [card × P(valid image of the result node)].

    For linear paths with predicates this reduces to the paper's
    [|q| × absel] formula. Where several EPT branches can satisfy the same
    predicate the paper's plain product over matched events would shrink
    with extra evidence; we combine alternatives with noisy-or instead
    (documented deviation, see DESIGN.md).

    When a {!Het} is available, correlated backward selectivities override
    the independence approximation for [p\[q1\]..\[qk\]/r] patterns, as in
    Section 5's modified matcher. *)

exception Ept_too_large of int

type ept
(** A flat preorder layout (struct of arrays), immutable once built.
    Per-estimate accumulators live in a domain-local scratch that is only
    ever extended, not in the EPT, so one EPT may be shared across domains
    and serve concurrent estimates without synchronization (the serving
    pool relies on this), and a warmed estimate allocates for the query
    alone, whatever the EPT's size. *)

val materialize : ?max_nodes:int -> ?obs:Obs.t -> Traveler.t -> ept
(** Drain a fresh traveler into an EPT. [max_nodes] (default 2_000_000)
    guards against runaway expansion of highly recursive kernels when the
    card threshold is set too low. When [obs] is given, adds the node count
    to [matcher.ept_nodes]. @raise Ept_too_large when exceeded. *)

val node_count : ept -> int

type synthetic
(** A hand-built EPT node, for estimators that expand a different synopsis
    (e.g. the TreeSketch baseline) but reuse this matcher; {!of_synthetic}
    flattens a tree of them. *)

val synthetic_node :
  label:Xml.Label.t -> card:float -> bsel:float -> children:synthetic list -> synthetic

val of_synthetic : synthetic -> ept

type match_stats = {
  mutable ept_nodes : int;  (** EPT nodes visited by the bottom-up pass *)
  mutable frontier : int;  (** live candidate vectors (internal) *)
  mutable frontier_peak : int;
      (** peak number of candidate match vectors held at once — the
          analogue of Algorithm 3's buffered candidate-event sets. It and
          [frontier_sum] depend on the EPT's shape alone and are taken
          when the EPT is built. *)
  mutable frontier_sum : int;
      (** sum of the running frontier sampled at every EPT node, so
          [frontier_sum / ept_nodes] is the mean live-frontier size over
          the traversal (the distribution the peak alone cannot show) *)
  mutable match_steps : int;
      (** (EPT node, query-tree node) combinations of both passes,
          2 × EPT nodes × query-tree nodes: the work bound (combinations
          whose values no estimate reads are skipped, not subtracted) *)
  mutable het_joint_overrides : int;
      (** predicate groups whose correlated bsel came from a joint HET
          pattern, replacing the sibling-independence product *)
  mutable het_single_overrides : int;
      (** single predicates answered by a HET branching entry *)
  mutable independence_preds : int;
      (** predicate factors computed under the independence assumption
          (noisy-or over EPT alternatives) *)
}

val estimate :
  ?het:Het.t ->
  ?values:Value_synopsis.t ->
  ?obs:Obs.t ->
  table:Xml.Label.table ->
  ept ->
  Xpath.Query_tree.t ->
  float
(** Estimated cardinality of the query against the EPT. When [values] is
    given, value-predicate selectivities multiply into the match
    probabilities; without it value predicates are ignored (factor 1).
    When [obs] is given, publishes the [matcher.*] counters of
    {!match_stats}. @raise Invalid_argument if the query has more than 62
    steps. *)

val estimate_with_stats :
  ?het:Het.t ->
  ?values:Value_synopsis.t ->
  table:Xml.Label.table ->
  ept ->
  Xpath.Query_tree.t ->
  float * match_stats
(** {!estimate} returning the per-query match statistics (used by
    {!Explain}). *)

val publish_stats : ?obs:Obs.t -> match_stats -> unit
(** Add the statistics to an Obs context's [matcher.*] metrics (what
    {!estimate} does internally). *)
