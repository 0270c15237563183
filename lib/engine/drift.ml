(* Accuracy-drift monitor for the serving engine.

   Feedback observations (estimate, actual) enter a sliding q-error window;
   alongside it, each shard's estimate-volume and cache-hit counts ride in
   int rings rotated in lockstep with the q-error window, so DRIFT
   summaries and the published gauges all describe the same "last slots x
   per_slot feedback observations" span. Rotation is managed here (the
   Obs.Window rotates only when told to) so the rings can never drift
   apart.

   Alerts are edge-triggered on the window's p90 q-error: crossing the
   threshold bumps [engine.drift.alerts] once and emits one Obs event; the
   alert re-arms only after p90 falls back below the threshold. *)

type t = {
  window : Obs.Window.t;  (* q-error over feedback observations *)
  slots : int;
  per_slot : int;
  p90_threshold : float;
  mutable idx : int;
  mutable in_slot : int;  (* feedback observations in the current slot *)
  mutable alerting : bool;
  mutable alerts : int;
  mutable shards : shard list;  (* volume rings, same slotting *)
}

(* A shard is a per-serving-thread pair of volume rings riding the owner's
   slot index. Each thread writes only its own shard (no synchronization on
   the estimate path); [rotate] — reached only from [observe], the
   single-writer feedback path — clears every shard's landing slot with the
   window's, so all volume rings expire in lockstep. The pool guarantees
   rotation never runs concurrently with shard notes by draining in-flight
   work before feedback. *)
and shard = { owner : t; s_estimates : int array; s_hits : int array }

let create ?(slots = 6) ?(per_slot = 64) ?(p90_threshold = 8.0) () =
  if slots < 1 then
    invalid_arg (Printf.sprintf "Drift.create: slots %d < 1" slots);
  if per_slot < 1 then
    invalid_arg (Printf.sprintf "Drift.create: per_slot %d < 1" per_slot);
  if not (p90_threshold >= 1.0) then
    invalid_arg "Drift.create: p90_threshold must be >= 1.0";
  { window = Obs.Window.create ~slots ();
    slots;
    per_slot;
    p90_threshold;
    idx = 0;
    in_slot = 0;
    alerting = false;
    alerts = 0;
    shards = [] }

let register_shard t =
  let s =
    { owner = t;
      s_estimates = Array.make t.slots 0;
      s_hits = Array.make t.slots 0 }
  in
  t.shards <- s :: t.shards;
  s

let rotate t =
  Obs.Window.rotate t.window;
  t.idx <- (t.idx + 1) mod t.slots;
  List.iter
    (fun s ->
      s.s_estimates.(t.idx) <- 0;
      s.s_hits.(t.idx) <- 0)
    t.shards;
  t.in_slot <- 0

(* Counted against the slot that is current when they happen; expired with
   it when the feedback stream rotates the ring. *)
let note_shard s ~cache_hit =
  let idx = s.owner.idx in
  s.s_estimates.(idx) <- s.s_estimates.(idx) + 1;
  if cache_hit then s.s_hits.(idx) <- s.s_hits.(idx) + 1

let sum = Array.fold_left ( + ) 0
let shard_estimates s = sum s.s_estimates
let window_count t = Obs.Window.count t.window

let window_estimates t =
  List.fold_left (fun acc s -> acc + shard_estimates s) 0 t.shards

let window_hits t = List.fold_left (fun acc s -> acc + sum s.s_hits) 0 t.shards

let hit_rate t =
  let e = window_estimates t in
  if e = 0 then Float.nan else float_of_int (window_hits t) /. float_of_int e

let median t = Obs.Window.percentile t.window 0.5
let p90 t = Obs.Window.percentile t.window 0.9
let max_qerror t = Obs.Window.max t.window
let alerts t = t.alerts
let alerting t = t.alerting

let observe ?obs t ~estimate ~actual =
  if t.in_slot >= t.per_slot then rotate t;
  let q = Feedback.q_error ~estimate ~actual in
  Obs.Window.observe t.window q;
  t.in_slot <- t.in_slot + 1;
  let p90 = p90 t in
  if t.alerting then begin
    if not (p90 >= t.p90_threshold) then t.alerting <- false
  end
  else if p90 >= t.p90_threshold then begin
    t.alerting <- true;
    t.alerts <- t.alerts + 1;
    Obs.event ?obs "drift_alert"
      ~fields:
        [ ("p90_qerror", Obs.Json.Float p90);
          ("threshold", Obs.Json.Float t.p90_threshold);
          ("window_count", Obs.Json.Int (window_count t)) ]
  end;
  q

(* Republish the window as gauges (and the alert total as a monotone
   counter) into a metrics registry; idempotent, called before a scrape. *)
let publish t obs =
  Obs.set_to ~obs "engine.drift.qerror_p50" (median t);
  Obs.set_to ~obs "engine.drift.qerror_p90" (p90 t);
  Obs.set_to ~obs "engine.drift.qerror_max" (max_qerror t);
  Obs.set_to ~obs "engine.drift.window_observations"
    (float_of_int (window_count t));
  Obs.set_to ~obs "engine.drift.window_estimates"
    (float_of_int (window_estimates t));
  Obs.set_to ~obs "engine.drift.window_hit_rate" (hit_rate t);
  Obs.max_to ~obs "engine.drift.alerts" t.alerts

let to_json t =
  let open Obs.Json in
  Obj
    [ ("window_observations", Int (window_count t));
      ("window_estimates", Int (window_estimates t));
      ("window_hit_rate", Float (hit_rate t));
      ("qerror_p50", Float (median t));
      ("qerror_p90", Float (p90 t));
      ("qerror_max", Float (max_qerror t));
      ("p90_threshold", Float t.p90_threshold);
      ("alerting", Bool t.alerting);
      ("alerts", Int t.alerts) ]
