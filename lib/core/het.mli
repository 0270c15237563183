(** The hyper-edge table (paper Section 5): exact statistics for the places
    the kernel's independence assumptions hurt most.

    Two kinds of entries, both keyed by a {!Path_hash}:
    - {b simple}: the actual cardinality of a rooted simple path, plus the
      actual backward selectivity of its last step — consulted by the
      traveler's EST function;
    - {b branching}: the correlated backward selectivity of a pattern
      [p\[q1\]..\[qk\]/r] — consulted by the matcher in place of the
      independence approximation.

    Hashes are 32-bit, so distinct paths can collide. Every entry therefore
    also stores the canonical spelling of its path ({!Path_hash.key_of_labels}
    / {!Path_hash.branching_key}); colliding entries coexist in a per-hash
    bucket, insertion is order-insensitive (same-path inserts replace, as
    before), and a lookup that supplies its path never reads another path's
    statistics. Legacy entries loaded from v1 dumps carry no path and keep
    the old hash-only matching.

    Mirroring the paper's management scheme, the full table (ordered by
    estimation error, the "secondary storage" copy) is always retained;
    {!set_budget} chooses the top-k entries that fit the in-memory budget
    and only those answer lookups. *)

type t

val create : unit -> t

val add_simple :
  ?path:string -> t -> hash:int -> card:int -> bsel:float option -> error:float -> unit
(** Record a simple-path entry. A later call with the same hash {e and the
    same path} replaces the earlier one; a colliding insert (same hash,
    different path) keeps both. [error] ranks the entry for budget
    selection. *)

val add_branching : ?path:string -> t -> hash:int -> bsel:float -> error:float -> unit

val set_budget : t -> bytes:int -> unit
(** Keep the largest-error entries whose in-memory footprint fits [bytes];
    the rest stay on the "secondary" list and stop answering lookups. *)

val unlimited_budget : t -> unit
(** Activate every entry. This is the state after construction. *)

val lookup_simple : t -> ?path:string -> int -> (int * float option) option
(** [(actual cardinality, actual bsel)] for an active simple entry. With
    [path], only the entry recorded under that canonical path (or a legacy
    path-less entry) answers; a hash collision is counted and misses. *)

val lookup_branching : t -> ?path:string -> int -> float option

val lookup_branching_pattern :
  t -> parent:Xml.Label.t -> predicates:Xml.Label.t array -> next:Xml.Label.t ->
  float option
(** {!lookup_branching} of the pattern [parent\[predicates\]/next], whose
    predicate labels are sorted ascending: hashed with
    {!Path_hash.branching_of_sorted}, and its canonical path is spelled only
    when an active entry holds that hash. Counters move exactly as for
    {!lookup_branching} with the pattern's path. *)

val record_feedback :
  t -> hash:int -> ?path:string -> card:int -> ?bsel:float -> error:float -> unit -> unit
(** Query-feedback insertion (paper Figure 1): same as {!add_simple} but the
    entry is activated immediately, evicting the currently least useful
    active entry if a budget is set and full. *)

val record_branching_feedback :
  ?path:string -> t -> hash:int -> bsel:float -> error:float -> unit
(** {!add_branching} counted as optimizer feedback rather than
    precomputation. *)

(** {1 Usage counters}

    Monotonic over the table's lifetime; misses are lookups minus hits. *)

type counters = {
  simple_lookups : int;
  simple_hits : int;
  branching_lookups : int;
  branching_hits : int;
  feedback_inserts : int;
  collisions : int;
      (** lookups that touched a bucket holding more than one path, or
          whose supplied path matched no binding under its hash *)
}

val counters : t -> counters

val diff_counters : before:counters -> after:counters -> counters
(** Per-query usage: snapshot before and after, diff. *)

val publish_counters : ?obs:Obs.t -> t -> unit
(** Add the current totals to [het.*] counters of an Obs context. *)

val active_count : t -> int
val total_count : t -> int

val size_in_bytes : t -> int
(** Footprint of the {e active} entries: 16 bytes per simple entry (4 key +
    8 cardinality + 4 bsel) and 8 per branching entry (4 key + 4 bsel).
    Canonical paths live with the "secondary storage" copy and are not
    charged against the in-memory budget. *)

val simple_entry_bytes : int
val branching_entry_bytes : int

val to_string : t -> string
(** Stable textual dump of all entries (persistence), format ["xseed-het
    v2"]: each entry line ends with its canonical path ([-] when absent). *)

val of_string : string -> t
(** @raise Invalid_argument on a malformed dump. *)

val of_string_result : string -> (t, Error.t) result
(** Like {!of_string}; reads both v1 (path-less) and v2 dumps. A malformed
    dump is a [Corrupt_synopsis] error whose [position] is the 1-based line
    number. Non-finite statistics are rejected and selectivities are
    clamped into [0, 1], so a loaded table can never inject a NaN into an
    estimate. *)

val pp : Format.formatter -> t -> unit
