(** The path tree of Aboulnaga et al. (VLDB 2001), as used by the paper
    (Figure 1): one node per distinct rooted label path, annotated with the
    exact cardinality of that path and the backward selectivity of its last
    step. The XSEED HET construction walks it to find the simple paths whose
    kernel estimate errs most, and the workload generator enumerates it to
    produce all SP queries. *)

type node = private {
  label : Xml.Label.t;
  cardinality : int;
      (** number of document nodes whose rooted label path is this node's *)
  parents_with_child : int;
      (** number of document nodes on the parent path having at least one
          child with this label — the numerator of backward selectivity *)
  children : node list;  (** ordered by label id *)
}

type t = { root : node; table : Xml.Label.table; size : int }

val sink : ?table:Xml.Label.table -> unit -> t Xml.Event.sink
(** Push-style construction, the one path every constructor below takes:
    element names are interned into [table] (a fresh one by default) as
    their start tags arrive, and each path node remembers the pre-order id
    of the last document node counted in its [parents_with_child], so no
    per-element set of seen child labels is kept. *)

val of_events : ?table:Xml.Label.table -> Xml.Event.t list -> t
val of_string : ?table:Xml.Label.table -> string -> t

val bsel : t -> parent:node option -> node -> float
(** Backward selectivity of [node] under its [parent] path: the fraction of
    parent-path document nodes that have at least one child labeled like
    [node]. The root's bsel is 1. *)

val find_path : t -> Xml.Label.t list -> node option
(** Look up a rooted label path (root label first). *)

val cardinality_of_labels : t -> Xml.Label.t list -> int
(** Exact cardinality of the rooted simple path, 0 when absent. *)

val simple_path_cardinality : t -> Xpath.Ast.t -> int option
(** Exact |p| for a simple path query (child axes, name tests, no
    predicates); [None] if the query is not simple. *)

val iter_paths : t -> f:(Xml.Label.t list -> parent:node option -> node -> unit) -> unit
(** Pre-order walk; the label list is the rooted path, root first. *)

val all_simple_paths : t -> (Xml.Label.t list * int) list
(** Every rooted label path with its cardinality, pre-order. The SP workload
    of Section 6.1 is exactly this list rendered as queries. *)

val size : t -> int
(** Number of path-tree nodes (distinct rooted paths). *)

val depth : t -> int
