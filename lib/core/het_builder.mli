(** HET pre-computation (paper Section 5).

    Walks the path tree comparing kernel estimates with actual cardinalities
    to produce simple-path entries (ranked by absolute error), then — for
    path-tree nodes whose backward selectivity is below [bsel_threshold] —
    enumerates leaf-level branching patterns [p\[q1\]..\[qk\]/r] with up to
    [mbp] predicates, measures their actual correlated backward
    selectivities, and ranks them by the error of the kernel-only estimate.

    The paper measures each pattern with its own NoK evaluation. Here one
    pre-order pass over the storage groups every candidate parent's nodes by
    their set of child labels, and each pattern's counts ([|//p/r|] and
    [|//p\[q1\]..\[qk\]/r|], or [|//p|] and [|//p\[q1\]..\[qk\]|]) are sums
    over those groups: the counts NoK returns, with names resolved in the
    storage's own label table as NoK resolves them.

    The returned table contains {e all} entries (the paper's on-disk list);
    apply {!Het.set_budget} to choose the in-memory top-k. *)

type stats = {
  simple_entries : int;
  zero_entries : int;  (** EPT paths that do not exist in the document *)
  branching_entries : int;
  branching_candidates : int;  (** label patterns enumerated *)
  nok_evaluations : int;
      (** pattern counts taken: one denominator per candidate, plus one
          joint when the denominator is non-zero — the NoK runs a
          per-pattern evaluation would make *)
}

val build :
  ?mbp:int ->
  ?bsel_threshold:float ->
  ?card_threshold:float ->
  ?max_branching_candidates:int ->
  ?zero_entries:bool ->
  kernel:Kernel.t ->
  path_tree:Pathtree.Path_tree.t ->
  ?storage:Nok.Storage.t ->
  unit ->
  Het.t * stats
(** Defaults: [mbp = 1] (the paper's sweet spot, Figure 6),
    [bsel_threshold = 0.1] (0.001 for Treebank in the paper),
    [card_threshold] as {!Estimator.create}. Branching entries require
    [storage]; without it only simple-path entries are built ([mbp] is
    ignored). [max_branching_candidates] (default 50_000) caps enumeration
    on pathological schemas; hitting it is reported in [stats]. *)

val pp_stats : Format.formatter -> stats -> unit
