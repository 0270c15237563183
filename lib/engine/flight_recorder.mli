(** Per-query flight records in a fixed-size ring buffer.

    Every [estimate]/[explain] the serving engine answers appends one
    {!record}: the canonical query and its hash, the cache outcome, the
    per-stage wall times, the estimate, and the per-query matcher stats
    (EPT nodes, frontier peak, clamps, HET hits). The ring overwrites
    oldest-first, so memory is bounded by [capacity] regardless of uptime;
    {!recent} reads newest-first for the serve protocol's [RECENT] command
    and {!to_json} renders one record as a JSON object (one line of the
    [--telemetry-out] JSON-lines sink). *)

type cache_status = Hit | Miss | Bypass | Timed_out | Audited
(** [Timed_out] marks a request its deadline refused: the record carries
    the raw query, a zero estimate and zero stage times — the point is
    that the refusal is visible in RECENT and [--telemetry-out] streams,
    not that it was served. [Audited] marks a shadow-audit attribution
    record appended when the background auditor completes a sampled
    query — not a served request at all. *)

val cache_status_name : cache_status -> string
(** ["hit"] / ["miss"] / ["bypass"] / ["timeout"] / ["audit"]. *)

type audit = {
  audit_actual : int;  (** exact cardinality from the NoK evaluator *)
  audit_qerror : float;  (** true q-error of the served estimate *)
  audit_worst_step : string;  (** step text with the largest q-error growth *)
  audit_worst_axis : string;  (** its axis, ["child"]/["descendant"] *)
  audit_contribution : float;  (** its q-error multiplier *)
}
(** The shadow auditor's per-query attribution payload, rendered by
    {!to_json} as an ["audit"] sub-object. *)

type record = {
  seq : int;  (** monotone sequence number, 0-based, never reused *)
  query : string;  (** canonical query text *)
  hash : int;  (** canonical query hash (cache key) *)
  cache : cache_status;
  estimate : float;
  canonicalize_s : float;  (** parse + canonicalize wall seconds *)
  ept_s : float;  (** EPT materialization seconds; ~0 when reused *)
  match_s : float;  (** matcher two-pass seconds *)
  total_s : float;  (** sum of the stages *)
  ept_nodes : int;  (** EPT nodes visited by the matcher; 0 on cache hit *)
  frontier_peak : int;
  degenerate_clamps : int;
  het_hits : int;  (** HET lookups answered for this query (simple + branching) *)
  feedback_round : int;  (** engine feedback round at answer time *)
  tenant : string option;
      (** owning tenant when the ring belongs to a registry-managed engine
          ({!set_tenant}); [None] on single-tenant engines *)
  audit : audit option;
      (** shadow-audit attribution, on [Audited] records only *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring of [capacity] (default 256) records.
    @raise Invalid_argument when [capacity] < 1. *)

val set_tenant : t -> string -> unit
(** Stamp every record written from now on with this tenant name (rendered
    as a ["tenant"] field by {!to_json}). The registry calls it once per
    page-in; records already in the ring keep their stamp. *)

val total : t -> int
(** Records ever written, including overwritten ones. *)

val record :
  ?seq:int ->
  ?audit:audit ->
  t ->
  query:string ->
  hash:int ->
  cache:cache_status ->
  estimate:float ->
  canonicalize_s:float ->
  ept_s:float ->
  match_s:float ->
  ept_nodes:int ->
  frontier_peak:int ->
  degenerate_clamps:int ->
  het_hits:int ->
  feedback_round:int ->
  record
(** Append one record (assigning its [seq]) and return it. [?seq] replaces
    the ring's own numbering with an externally issued sequence number —
    the serving pool stamps records with its global submission counter so
    per-shard rings can be merged back into one submission-ordered stream
    ({!recent} order within a single ring is unaffected: it is newest
    write first regardless of the stored [seq]). *)

val recent : ?n:int -> t -> record list
(** The last [n] records (default: all live ones), newest first. *)

val to_json : record -> Obs.Json.t
(** One JSON object; wall times under ["wall_us"] in microseconds, hash as
    8 hex digits. *)
