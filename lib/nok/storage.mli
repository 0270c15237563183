(** Succinct physical storage in the spirit of the paper's NoK scheme
    (Zhang, Kacholia, Özsu, ICDE 2004): the document is a pre-order array of
    interned labels plus, per node, the index of its last descendant — an
    interval encoding from which parent/child/descendant relations are
    recovered without pointers. Built from one SAX event stream, which
    {!Core.Synopsis.build} shares with the kernel and the path tree.

    With [~with_values:true] the storage also retains each node's direct
    text content and attributes, enabling evaluation of value predicates
    (the paper's future-work extension). *)

type t = private {
  labels : Xml.Label.t array;  (** node labels in pre-order *)
  last : int array;  (** [last.(i)] is the index of node [i]'s last descendant
                         (or [i] itself for a leaf) *)
  depth : int array;  (** root has depth 0 *)
  table : Xml.Label.table;
  text : string array;  (** per-node direct text; [\[||\]] unless collected *)
  attributes : (string * string) list array;  (** [\[||\]] unless collected *)
}

val sink : ?table:Xml.Label.table -> ?with_values:bool -> unit -> t Xml.Event.sink
(** Push-style construction, the one path every constructor below takes:
    element names are interned into [table] (a fresh one by default) as
    their start tags arrive. *)

val of_events : ?table:Xml.Label.table -> ?with_values:bool -> Xml.Event.t list -> t
val of_string : ?table:Xml.Label.table -> ?with_values:bool -> string -> t

val of_tree : Xml.Tree.t -> t
(** The tree's structure-only events pushed into {!sink} over the tree's
    own table, so the result never carries values. *)

val node_count : t -> int

val has_values : t -> bool
(** Whether text and attributes were collected. *)

val node_text : t -> int -> string
(** Direct text of node [i] (concatenated, entity-decoded); [""] when values
    were not collected. *)

val node_attribute : t -> int -> string -> string option

val children : t -> int -> int list
(** Pre-order indices of the children of node [i], in document order. *)

val parent : t -> int -> int option

val size_in_bytes : t -> int
(** Structural footprint a C implementation would use (3 machine words per
    node, excluding any collected values). *)
