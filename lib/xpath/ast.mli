(** Abstract syntax of the XPath fragment the paper estimates: rooted paths
    of child ([/]) and descendant ([//]) steps over name or wildcard tests,
    with nested branching predicates — plus value-based predicates (the
    paper's Section 1 defers them to future work; this library implements
    them as the extension layer the paper anticipates). *)

type axis = Child | Descendant

type test = Name of string | Wildcard

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type literal =
  | Number of float  (** [\[year > 1995\]] *)
  | Text of string  (** [\[payment = 'Creditcard'\]] — [Eq]/[Ne] only *)

type value_target =
  | Child_text of string  (** compare a child element's text content *)
  | Attribute of string  (** compare one of the node's attributes *)

type value_predicate = { target : value_target; cmp : cmp; literal : literal }
(** A value-based constraint (the paper's future-work extension, built here
    on the histogram approach it cites): the node qualifies when some child
    with that name — or its attribute — satisfies the comparison. *)

type step = {
  axis : axis;
  test : test;
  predicates : t list;
  value_predicates : value_predicate list;
}

and t = step list
(** A path is a non-empty step list. A top-level path is rooted (its first
    step applies to the virtual document node); predicate paths are relative
    to the node they qualify. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** XPath concrete syntax, e.g. [//regions/australia/item[shipping]/location]:
    name and wildcard tests, structural predicates before value predicates,
    an integral literal below 1e15 as an integer and any other number as
    [%g]. Printed into a [Buffer], without [Format]; it is the serving
    engine's cache-key text. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}'s text. *)

val steps : t -> int
(** Number of location steps, including steps inside predicates. *)

val predicate_count : t -> int
(** Total number of predicates, nested included. *)

val max_predicates_per_step : t -> int
(** The paper's MBP measure of a workload query (structural predicates). *)

val value_predicate_count : t -> int
(** Total number of value predicates, nested included. *)

val has_value_predicates : t -> bool

val strip_value_predicates : t -> t
(** The structural skeleton: every value predicate dropped. *)

val has_descendant : t -> bool
val has_wildcard : t -> bool
