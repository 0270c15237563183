(** The synopsis traveler (paper Algorithm 2).

    Walks the kernel depth-first, maintaining the rooted synopsis path, its
    recursion level (via {!Counter_stacks}) and its {!Path_hash}, and emits
    the expanded path tree (EPT) as a stream of open/close events annotated
    with the estimated cardinality, forward selectivity and backward
    selectivity of each path — the quantities of Definition 5.

    Cycles in the kernel terminate because an edge only has counts for the
    recursion levels that exist in the data (Observation 1); additionally a
    vertex whose estimated cardinality is at most [card_threshold] is not
    opened, the paper's heuristic for keeping the EPT small on highly
    recursive data (Section 6.4 uses 20 for Treebank). *)

type open_info = {
  label : Xml.Label.t;
  dewey : Xml.Dewey.t;
  card : float;
  fsel : float;
  bsel : float;
}

type event =
  | Open of open_info
  | Close of { label : Xml.Label.t; dewey : Xml.Dewey.t }
  | Eos

type t

type stats = {
  events : int;  (** open + close events emitted so far *)
  opened : int;  (** EPT nodes opened (the EPT's size) *)
  pruned : int;  (** branches cut by the cardinality threshold / max depth *)
  max_recursion_level : int;  (** highest recursion level entered *)
  max_depth_seen : int;  (** deepest rooted path opened *)
}

val create :
  ?card_threshold:float ->
  ?recursion_aware:bool ->
  ?max_depth:int ->
  ?het:Het.t ->
  ?obs:Obs.t ->
  Kernel.t ->
  t
(** [card_threshold] defaults to 0.5: estimated-cardinality-zero branches
    are never expanded but everything estimated at one node or more is.
    When [het] is given, simple-path entries override the estimated
    cardinality and backward selectivity (Section 5's modified EST).

    When [obs] is given, the traveler publishes [traveler.events],
    [traveler.opened], [traveler.pruned], [traveler.max_recursion_level]
    and [traveler.max_depth] once the walk finishes; {!stats} exposes the
    same quantities per instance at any point.

    [recursion_aware] (default true) is the ablation switch: when false the
    traveler always reads edge statistics at level 0 (a collapsed kernel's
    totals), losing Observation 1's termination bound — [max_depth]
    (default 60) and the cardinality threshold then bound the walk. *)

val next : t -> event
(** Returns [Eos] forever once the traversal is finished. *)

val iter : t -> f:(event -> unit) -> unit
(** Drain the remaining events (excluding the final [Eos]). *)

val stats : t -> stats
(** Counters so far (complete once {!next} has returned [Eos]). *)

val ept_to_xml : ?card_threshold:float -> ?het:Het.t -> Kernel.t -> string
(** Render the EPT as the XML document shown in the paper's Section 4. *)
