(** Size-bounded LRU cache for served estimates.

    String-keyed (canonical query text), polymorphic in the value. A
    [find] refreshes recency; a [put] past capacity evicts the least
    recently used entry. Counters account for every operation —
    [hits + misses = lookups] always; the pool publishes their per-shard
    sums as [engine.cache.*]. *)

type 'v t

val create : capacity:int -> 'v t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : 'v t -> int
val length : 'v t -> int

val find : 'v t -> string -> 'v option
(** Counted: a hit refreshes the entry's recency. *)

val mem : 'v t -> string -> bool
(** Uncounted, recency-neutral membership test. *)

val peek : 'v t -> string -> 'v option
(** Uncounted, recency-neutral lookup. *)

val put : 'v t -> string -> 'v -> unit
(** Insert (counted, possibly evicting the LRU entry) or refresh the value
    and recency of an existing key (counted as an insertion, never as an
    eviction). *)

val remove : 'v t -> string -> unit
(** Drop one key if present; counted as an invalidation. *)

val clear : 'v t -> unit
(** Drop everything; each dropped entry counts as an invalidation. *)

type counters = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;  (** capacity-forced removals only *)
  invalidations : int;  (** [remove]/[clear] removals *)
}

val counters : 'v t -> counters
