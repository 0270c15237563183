(** Incremental path hashing (the paper's [incHash]).

    HET keys are single integers: extending a rooted path by one label, or
    rendering a branching pattern like [p\[q\]/r], never re-hashes the whole
    path. Hashes are folded to 32 bits to mirror the paper's design (and its
    collision trade-off, which the test suite measures). *)

val empty : int
(** Hash of the empty path. *)

val extend : int -> Xml.Label.t -> int
(** [extend h label] is the hash of the path [h] followed by [label]. *)

val of_labels : Xml.Label.t list -> int
(** Fold {!extend} over a rooted label path. *)

val branching : parent:int -> predicates:Xml.Label.t list -> next:Xml.Label.t -> int
(** Key for the correlated-bsel pattern [p\[q1\]..\[qk\]/r]. [predicates] are
    sorted internally so [p\[q1\]\[q2\]/r] and [p\[q2\]\[q1\]/r] coincide. *)

val branching_of_sorted :
  parent:int -> predicates:Xml.Label.t array -> next:Xml.Label.t -> int
(** {!branching} over predicate labels already sorted ascending; allocates
    nothing. *)

(** {1 Canonical keys}

    Space-free textual spellings of what a hash covers. Stored alongside
    HET entries so a 32-bit collision is detected instead of silently
    merging two paths' statistics. *)

val key_of_labels : Xml.Label.t list -> string
(** ["l1/l2/.../lk"] over label ids. *)

val branching_key : parent:Xml.Label.t -> predicates:Xml.Label.t list -> next:Xml.Label.t -> string
(** ["p\[q1,..,qk\]/r"] over label ids, predicates sorted as {!branching}
    sorts them ([next = -1] spells a pattern with no next step). *)

val branching_key_of_sorted :
  parent:Xml.Label.t -> predicates:Xml.Label.t array -> next:Xml.Label.t -> string
(** {!branching_key} over predicate labels already sorted ascending. *)
