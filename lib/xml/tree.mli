(** In-memory structural XML tree.

    Cardinality estimation in the paper is purely structural, so the tree
    keeps element labels and parent-child edges only; attributes and text are
    consumed by the SAX layer and dropped here. Labels are interned in the
    document's {!Label.table}. *)

type node = { label : Label.t; children : node array }

type t = {
  root : node;
  table : Label.table;
  size : int;  (** total number of element nodes *)
}

val of_events : ?table:Label.table -> Event.t list -> t
(** Build a tree from a SAX event list. A fresh label table is created unless
    [table] is given (sharing a table across documents keeps ids aligned).
    @raise Invalid_argument if the events are not balanced. *)

val of_string : ?table:Label.table -> string -> t
(** Parse and build. @raise Sax.Malformed on bad input. *)

val node_count : t -> int

val depth : t -> int
(** Length in nodes of the longest root-to-leaf path. *)

val label_counts : t -> (Label.t * int) list
(** Occurrences of each label, sorted by id. *)

val recursion_levels : t -> float * int
(** Average (over all nodes) and maximum node recursion level, as defined in
    the paper (Definition 1): the max count of any repeated label on the
    node's rooted path, minus 1. Matches Table 2's "avg/max rec. level". *)

val to_events : t -> Event.t list
(** Structure-only event stream (no attributes or text). *)

val equal_structure : t -> t -> bool
(** True when both trees have the same shape and the same label {e names}
    (ids may differ when tables differ). *)

val distinct_rooted_paths : t -> int
(** Number of distinct rooted label paths, i.e. the node count of the
    document's path tree. *)
