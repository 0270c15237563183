(** Multi-tenant synopsis registry: many named synopses behind one serving
    process, paged in and out under a global memory budget.

    A {!t} maps tenant names to synopsis files. A tenant is {e resident}
    when its synopsis is loaded into a one-worker {!Pool.t} of its own
    (private estimate cache, flight rings, drift window, metric registries,
    and — with a journal directory — a crash-safe feedback journal); a
    one-worker pool serves on the calling thread and spawns no domain, so
    any number of tenants can be resident at once. Otherwise it is
    {e paged out} and costs nothing but its registry entry. [USE]-ing a
    paged-out tenant loads it on demand; when the global budget would
    overflow, least-recently-used residents are evicted first. Eviction
    flushes the tenant's journal, shuts its pool and auditor down, and
    releases the synopsis — the checksummed v2 file format makes the
    reload cheap and safe, and replaying the journal on page-in reproduces
    the learned HET/feedback state, so an evict/reload round trip is
    estimate-for-estimate identical to a tenant that was never evicted.

    {b Protocol surface.} A {!session} (one per client connection) carries
    the active tenant selected with [USE <tenant>]; {!extra} adds the
    registry verbs to the {!Serve} layer:

    {v
    USE <tenant>           ->  OK <tenant> <resident|loaded>
    LOAD <tenant> <path>   ->  OK <tenant> loaded <bytes>
    TENANTS                ->  OK <n> then one line per tenant:
                               <name> <resident <bytes>|paged-out>
    v}

    All other verbs route to the active tenant's engine; without one they
    answer [ERR malformed-query no tenant selected] (except [PING],
    [VERSION], [STATS] and [METRICS], which work tenant-less).

    {b Concurrency.} Every registry operation — including serving an
    estimate through a session — runs under one internal mutex, so a [USE]
    racing an eviction can never observe a half-released engine. The
    registry is the many-documents axis; a multi-worker {!Pool} is the
    many-cores axis for a single hot synopsis.

    {b Metrics.} {!metrics_text} merges every resident tenant's
    {!Pool.merged_metrics} — its tenant estimator's FEEDBACK/EXPLAIN
    pipeline counters included — with a [tenant="<name>"] label on each
    series ({!Obs.merged_labeled})
    plus registry-level [registry.*] series, rendered sorted so quiet
    scrapes are byte-identical across repeats. *)

type t

val create :
  ?memory_budget:int ->
  ?het_budget:int ->
  ?qerror_threshold:float ->
  ?cache_capacity:int ->
  ?drift_p90_threshold:float ->
  ?journal_dir:string ->
  ?journal_fsync:Journal.fsync ->
  ?audit_rate:float ->
  ?audit_seed:int ->
  ?audit_feedback:bool ->
  unit ->
  t
(** [memory_budget] bounds the sum of resident synopses'
    {!Core.Synopsis.size_in_bytes}; absent means unlimited (nothing is ever
    evicted). [het_budget] is applied per tenant at page-in
    ({!Core.Het.set_budget}), bounding what each tenant's feedback loop may
    learn. [journal_dir] gives every tenant a crash-safe feedback journal
    at [<dir>/<tenant>.wal] (recovered and replayed at page-in, appended to
    before each FEEDBACK ack, flushed at eviction) under [journal_fsync]
    (default [`Always]). [audit_rate] (default 0.0, within [0, 1]) arms a
    shadow {!Auditor} at page-in for every tenant whose manifest line
    declared a [doc=] source document (seeded by [audit_seed]; with
    [audit_feedback] the audited ground truth also drives the tenant's
    q-error-gated HET refinement); tenants without a document are never
    audited, and eviction shuts the tenant's auditor down. The remaining
    knobs are per-tenant {!Pool.create} parameters.
    @raise Invalid_argument when [memory_budget]/[het_budget] < 1 or
    [audit_rate] is outside [0, 1]. *)

val register :
  ?doc:string -> t -> name:string -> path:string -> (unit, Core.Error.t) result
(** Add a tenant without loading it. Names are limited to
    [A-Za-z0-9_.-] (they travel in protocol lines and journal file names);
    re-registering an existing name is an error. [doc] is the tenant's
    source XML document — required for shadow auditing to arm at
    page-in. *)

val load_manifest : t -> string -> (int, Core.Error.t) result
(** Register every tenant in a manifest file — one [<name> <path>] pair
    per line, with an optional trailing [doc=<path>] field naming the
    tenant's source document (arming shadow auditing when the registry has
    an [audit_rate]); [#] comments and blank lines ignored, relative paths
    (synopsis and document alike) resolved against the manifest's
    directory. Returns the number of tenants registered. Nothing is
    loaded; tenants page in on first [USE]. *)

val use : t -> string -> ([ `Resident | `Loaded ], Core.Error.t) result
(** Make the tenant resident (paging it in if needed, evicting LRU
    residents if the budget requires) and mark it most recently used.
    [`Resident] means it already was; [`Loaded] means this call paged it
    in. *)

val evict : t -> string -> bool
(** Page the tenant out now (flush + close its journal, shut its engine
    down, release the synopsis). [false] when it was not resident.
    Mostly a test hook — serving evicts through the budget. *)

val tenants : t -> (string * int option) list
(** Every registered tenant, sorted by name, with its resident synopsis
    size ([None] = paged out). *)

val registered_count : t -> int
val resident_count : t -> int

val resident_bytes : t -> int
(** Sum of resident synopses' sizes — the quantity the budget bounds. *)

val evictions : t -> int
val page_ins : t -> int

val journal_replayed : t -> int
(** Journal entries replayed through feedback across all page-ins. *)

val metrics_text : t -> string
(** Prometheus exposition of every resident tenant's registry (each series
    labeled [tenant="<name>"]) merged with the registry-level series:
    [registry.tenants.registered]/[.resident] and [registry.bytes.resident]/
    [.budget] gauges ([budget] reads 0 when unlimited), and the
    [registry.evictions]/[registry.page_ins]/[registry.journal.replayed]
    counters. Deterministic: series sorted by key, idempotent publishes. *)

val close : t -> unit
(** Evict every resident tenant (flushing all journals). Idempotent. *)

(** {1 Sessions} *)

type session
(** One client's view of the registry: the active tenant plus the serve
    vtable that routes to it. Sessions are cheap; the TCP server creates
    one per connection. *)

val session : t -> session

val active : session -> string option

val server : session -> Serve.server
(** Routes estimate/batch/feedback/explain/recent/drift/profile to the
    active tenant (paging it back in if it was evicted since the [USE]),
    answering [ERR malformed-query] without one. [stats_json] reports the
    active tenant's stats nested with the registry's (the gauge/counter
    values above plus a ["tenants"] object mapping each name to its
    resident size or [null]); [metrics_text] is
    always the registry-wide tenant-labeled scrape. [profile] stamps the
    reply's [tenant=] field; flight records carry the tenant name. *)

val extra : session -> string -> string -> string option
(** The [USE]/[LOAD]/[TENANTS] verb handler to pass as [?extra] to
    {!Serve.handle_request}/{!Serve.run}. *)
