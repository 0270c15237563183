(** The XSEED kernel (paper Definition 4): an edge-labeled label-split graph.

    Vertices are interned element labels; each directed edge [(u, v)] carries
    a vector of [(parent_count, child_count)] pairs indexed by the recursion
    level of the rooted paths that cross the edge. The pair at level [i]
    records that [parent_count i] document nodes mapped to [u] have, in
    total, [child_count i] children mapped to [v] on paths of recursion
    level [i]. *)

type edge = private {
  src : Xml.Label.t;
  dst : Xml.Label.t;
  mutable p_cnt : int array;
  mutable c_cnt : int array;
  mutable levels : int;  (** pairs in use; arrays may be longer *)
}

type t

val create : ?table:Xml.Label.table -> unit -> t
val table : t -> Xml.Label.table

val root : t -> Xml.Label.t
(** @raise Invalid_argument on an empty kernel. *)

val set_root : t -> Xml.Label.t -> unit

val get_vertex : t -> Xml.Label.t -> unit
(** Ensure the vertex exists (paper's GET-VERTEX). *)

val get_edge : t -> Xml.Label.t -> Xml.Label.t -> edge
(** The edge from [src] to [dst], created zeroed if absent (GET-EDGE). *)

val find_edge : t -> Xml.Label.t -> Xml.Label.t -> edge option

val add_at_level : edge -> int -> parents:int -> children:int -> unit
(** Accumulate counts into the pair at a recursion level (may be negative
    when subtracting a deleted subtree; counts never go below zero). *)

val edge_counts : edge -> int -> int * int
(** [(parent_count, child_count)] at a level; [(0, 0)] beyond the vector. *)

val vertex_count : t -> int
val edge_count : t -> int

val out_edges : t -> Xml.Label.t -> edge list
(** Ordered by destination label id (deterministic traversal order). *)

val in_edges : t -> Xml.Label.t -> edge list

val total_children : t -> Xml.Label.t -> level:int -> int
(** The paper's S_v at a recursion level: the sum of child counts at that
    level over all in-edges of [v] — plus one for the kernel root at level 0,
    which has no in-edge but one document instance. *)

val size_in_bytes : t -> int
(** Memory a compact C layout would need: 8 bytes per vertex plus, per edge,
    8 bytes of header and 8 bytes per recursion-level pair. This is the
    number compared against the paper's 25KB / 50KB budgets. *)

val prune_empty : t -> unit
(** Drop edges whose every pair is zero and unreachable zero-degree vertices
    (used after subtracting subtree statistics). *)

val copy : t -> t

val collapse_levels : t -> t
(** Ablation: a copy whose every edge has its per-recursion-level pairs
    summed into level 0 — i.e. XSEED with the paper's key novelty removed.
    A recursion-blind kernel loses Observation 1's termination bound, so
    traversing it relies entirely on the cardinality threshold, and
    recursive queries collapse (the `ablation` bench section quantifies
    this). *)

val to_string : t -> string
(** Stable textual serialization (label names, not ids). *)

val of_string : ?table:Xml.Label.table -> string -> t
(** @raise Invalid_argument on a malformed dump. *)

val of_string_result : ?table:Xml.Label.table -> string -> (t, Error.t) result
(** Like {!of_string}; a malformed dump is a [Corrupt_synopsis] error whose
    [position] is the 1-based line number. *)

val equal : t -> t -> bool
(** Same vertices, edges and counts (by label name). *)

val pp : Format.formatter -> t -> unit
