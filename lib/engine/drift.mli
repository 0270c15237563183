(** Sliding-window accuracy-drift monitor for the serving engine.

    Each feedback observation contributes its smoothed q-error
    [max((est+1)/(act+1), (act+1)/(est+1))] to a sliding window
    ({!Obs.Window}: [slots] sub-histograms of [per_slot] observations,
    oldest expiring slot-at-a-time). Estimate traffic and cache hits are
    counted per {!shard} in per-slot rings rotated in lockstep, so the
    window's q-error percentiles, estimate volume and hit rate all cover
    the same span.

    When the window's p90 q-error reaches [p90_threshold] the monitor
    bumps the [engine.drift.alerts] counter and emits one
    ["drift_alert"] event; the alert is edge-triggered and re-arms only
    after p90 falls back below the threshold, so a persistently bad
    window counts once, not once per observation. *)

type t

val create : ?slots:int -> ?per_slot:int -> ?p90_threshold:float -> unit -> t
(** Defaults: 6 slots of 64 feedback observations, threshold 8.0 (a p90
    q-error of 8 means a tenth of recent feedback was off by ~an order of
    magnitude).
    @raise Invalid_argument when [slots] or [per_slot] < 1, or the
    threshold is below 1 (q-error is always >= 1). *)

val observe : ?obs:Obs.t -> t -> estimate:float -> actual:int -> float
(** Record one feedback observation; returns its q-error
    ({!Feedback.q_error}, the feedback gate's). Rotates the
    window when the current slot is full, then evaluates the alert
    condition (counting the alert and emitting a [drift_alert] event on
    [obs] when it newly fires; {!publish} exports the count as
    [engine.drift.alerts]). *)

(** {1 Volume shards}

    Estimate traffic is counted only in shards. Under the serving pool it
    is spread across serving threads while feedback stays single-writer.
    A {!shard} gives each serving thread its own pair of volume rings
    sharing the owner's slot index: the thread bumps only its shard (no
    synchronization on the estimate hot path) and {!observe}'s rotation
    clears every shard's landing slot in lockstep, so {!window_estimates},
    {!window_hits} and {!hit_rate} always sum all shards over the same
    span. The caller must ensure rotation (i.e. {!observe}) never runs
    concurrently with {!note_shard} — the pool drains in-flight work
    before applying feedback, and notes FEEDBACK's own estimate on the
    submitter's shard. *)

type shard

val register_shard : t -> shard
(** A fresh all-zero shard whose rings rotate with the owner's window.
    Not itself domain-safe: register all shards before handing them to
    their workers. *)

val note_shard : shard -> cache_hit:bool -> unit
(** Count one served estimate against the shard's current slot. Safe to
    call from the shard's owning worker while other workers note their own
    shards; never concurrently with {!observe}. *)

val shard_estimates : shard -> int
(** Window estimate volume contributed by this shard (all live slots). *)

(** {1 Window reads} — [nan] where the window is empty. *)

val window_count : t -> int
(** Feedback observations currently in the window. *)

val window_estimates : t -> int
(** Every registered shard's contribution. *)

val window_hits : t -> int
val hit_rate : t -> float
val median : t -> float
val p90 : t -> float
val max_qerror : t -> float

val alerts : t -> int
(** Alert edges fired over the monitor's lifetime. *)

val alerting : t -> bool
(** Currently above threshold (the alert has fired and not yet re-armed). *)

val publish : t -> Obs.t -> unit
(** Republish the window into a metrics registry —
    [engine.drift.qerror_{p50,p90,max}], [engine.drift.window_*] gauges
    and the [engine.drift.alerts] counter (idempotently, via max). Called
    by the engine before each scrape/snapshot. *)

val to_json : t -> Obs.Json.t
(** One-object summary (the serve protocol's [DRIFT] payload). *)
