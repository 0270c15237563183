(** Kernel construction (paper Algorithm 1) and incremental maintenance.

    Construction consumes one SAX event stream: the path stack carries, per open
    element, the set of (edge, recursion level) pairs contributed by its
    children so parent counts are bumped once per parent on the closing tag;
    the {!Counter_stacks} give the recursion level of each rooted path in
    expected O(1).

    Incremental maintenance replays only the added or deleted subtree,
    primed with its insertion path, and merges (or subtracts) the resulting
    deltas — the graph merge/subtract the paper defers to its tech report. *)

val sink : ?obs:Obs.t -> ?table:Xml.Label.table -> unit -> Kernel.t Xml.Event.sink
(** Push-style construction, the one path every constructor below takes:
    interns each element name into [table] (a fresh one by default) as its
    start tag arrives. When [obs] is given, finishing publishes
    [builder.vertices], [builder.edges] and [builder.max_recursion_level].
    {!Synopsis.build} feeds this sink from the same parse as the path tree
    and the NoK storage. *)

val of_string : ?obs:Obs.t -> ?table:Xml.Label.table -> string -> Kernel.t
(** {!sink} over one parse. When [obs] is given, runs under a
    [builder.of_string] span and publishes the builder's counters plus the
    SAX parser's. *)

val of_events : ?obs:Obs.t -> ?table:Xml.Label.table -> Xml.Event.t list -> Kernel.t

val add_subtree :
  ?parent_gains_label:bool -> Kernel.t -> at:Xml.Label.t list -> Xml.Event.t list -> unit
(** [add_subtree k ~at events] updates [k] as if the subtree given by
    [events] had been inserted under the rooted label path [at] (root label
    first, excluding the new subtree's root). The edge connecting the path's
    last label to the subtree root is updated too; its parent count moves
    only when [parent_gains_label] (default true) — pass false when the
    insertion parent already has a child with the subtree root's label.
    @raise Invalid_argument if [at] is empty (documents have one root) or
    the events are not a single balanced element. *)

val remove_subtree :
  ?parent_loses_label:bool -> Kernel.t -> at:Xml.Label.t list -> Xml.Event.t list -> unit
(** Inverse of {!add_subtree}: subtract the subtree's contribution. Pass
    [parent_loses_label:false] when the parent keeps other children with the
    subtree root's label. Counts are clamped at zero; emptied edges and
    vertices are pruned. *)
