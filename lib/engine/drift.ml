(* Accuracy-drift monitor for the serving engine.

   Feedback observations (estimate, actual) enter a sliding q-error window;
   alongside it, per-window estimate-volume and cache-hit counts ride in
   parallel int rings rotated in lockstep with the q-error window, so
   DRIFT summaries and the published gauges all describe the same "last
   slots x per_slot feedback observations" span. Rotation is managed here
   (the Obs.Window is created with an effectively-infinite per_slot and
   rotated explicitly) so the three rings can never drift apart.

   Alerts are edge-triggered on the window's p90 q-error: crossing the
   threshold bumps [engine.drift.alerts] once and emits one Obs event; the
   alert re-arms only after p90 falls back below the threshold. *)

type t = {
  window : Obs.Window.t;  (* q-error over feedback observations *)
  slots : int;
  per_slot : int;
  p90_threshold : float;
  (* Parallel per-slot rings, rotated with [window]. *)
  estimates : int array;  (* ESTIMATE traffic per slot *)
  hits : int array;  (* cache hits within that traffic *)
  mutable idx : int;
  mutable in_slot : int;  (* feedback observations in the current slot *)
  mutable alerting : bool;
  mutable alerts : int;
  mutable shards : shard list;  (* per-worker volume rings, same slotting *)
}

(* A shard is a per-worker pair of volume rings riding the owner's slot
   index. Each worker writes only its own shard (no synchronization on the
   estimate path); [rotate] — reached only from [observe], the single-writer
   feedback path — clears every shard's landing slot together with its own,
   so all volume rings expire in lockstep. The pool guarantees rotation
   never runs concurrently with shard notes by draining in-flight work
   before feedback. *)
and shard = { owner : t; s_estimates : int array; s_hits : int array }

let qerror ~estimate ~actual =
  let e = estimate +. 1.0 and a = float_of_int actual +. 1.0 in
  Float.max (e /. a) (a /. e)

let create ?(slots = 6) ?(per_slot = 64) ?(p90_threshold = 8.0) () =
  if slots < 1 then
    invalid_arg (Printf.sprintf "Drift.create: slots %d < 1" slots);
  if per_slot < 1 then
    invalid_arg (Printf.sprintf "Drift.create: per_slot %d < 1" per_slot);
  if not (p90_threshold >= 1.0) then
    invalid_arg "Drift.create: p90_threshold must be >= 1.0";
  { window = Obs.Window.create ~slots ~per_slot:max_int ();
    slots;
    per_slot;
    p90_threshold;
    estimates = Array.make slots 0;
    hits = Array.make slots 0;
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
  t.estimates.(t.idx) <- 0;
  t.hits.(t.idx) <- 0;
  List.iter
    (fun s ->
      s.s_estimates.(t.idx) <- 0;
      s.s_hits.(t.idx) <- 0)
    t.shards;
  t.in_slot <- 0

(* Counted against the slot that is current when they happen; expired with
   it when the feedback stream rotates the ring. *)
let note_estimate t ~cache_hit =
  t.estimates.(t.idx) <- t.estimates.(t.idx) + 1;
  if cache_hit then t.hits.(t.idx) <- t.hits.(t.idx) + 1

let note_shard s ~cache_hit =
  let idx = s.owner.idx in
  s.s_estimates.(idx) <- s.s_estimates.(idx) + 1;
  if cache_hit then s.s_hits.(idx) <- s.s_hits.(idx) + 1

let shard_estimates s = Array.fold_left ( + ) 0 s.s_estimates
let shard_hits s = Array.fold_left ( + ) 0 s.s_hits
let window_count t = Obs.Window.count t.window

let window_estimates t =
  Array.fold_left ( + ) 0 t.estimates
  + List.fold_left (fun acc s -> acc + shard_estimates s) 0 t.shards

let window_hits t =
  Array.fold_left ( + ) 0 t.hits
  + List.fold_left (fun acc s -> acc + shard_hits s) 0 t.shards

let hit_rate t =
  let e = window_estimates t in
  if e = 0 then Float.nan else float_of_int (window_hits t) /. float_of_int e

let median t = Obs.Window.percentile t.window 0.5
let p90 t = Obs.Window.percentile t.window 0.9
let max_qerror t = Obs.Window.max t.window
let alerts t = t.alerts
let alerting t = t.alerting
let p90_threshold t = t.p90_threshold

let observe ?obs t ~estimate ~actual =
  if t.in_slot >= t.per_slot then rotate t;
  let q = qerror ~estimate ~actual in
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
