(* The serving core: one synopsis, N shards.

   One synopsis (kernel + HET + values) and one materialized EPT are shared
   read-only by every shard; everything written on the estimate hot path
   is per-shard (LRU cache, flight-recorder ring, Obs registry, drift
   volume ring), so answering an estimate takes no lock beyond the work
   queue's own mutex. Writes to the shared state — HET refinement and the
   EPT rebuild — happen only on the feedback path, which is single-writer:
   it takes the submission lock (stopping new chunks), waits for in-flight
   chunks to drain, mutates, bumps the epoch, and only then lets
   submissions resume. Shards notice the epoch change when they next take
   a chunk and drop their own stale cache; the queue mutex's
   acquire/release pairs give the happens-before edge that makes the new
   EPT pointer and HET contents visible to them.

   The unit of dispatch is a chunk: BATCH n is split into contiguous slices
   (DESIGN.md §16). Shard 0 belongs to the submitting thread: only code
   holding the submission lock touches it, so it also takes the
   coordinator's writes (batch sizes; FEEDBACK, EXPLAIN and audit flight
   records; trace events recorded outside a chunk). A request that
   fits in one chunk (every ESTIMATE, a BATCH of up to [chunk_target]) or
   any request to a one-worker pool is served whole there, with no queue,
   latch or wake-up. Shards 1..N-1 each run on a worker domain, started by
   the first batch that queues a chunk, and pop chunks from one shared
   FIFO. A multi-chunk batch queues every chunk but its first; the
   submitter serves the first, takes back queued chunks until none is
   left, and waits for the domains to finish the rest. So the queue is
   empty at every submission, and it holds the largest plan's queued
   chunks: it only hands chunks over, and admits or refuses nothing.
   Both ways run the same chunk body and crash cleanup. Replies are written
   lock-free into the batch's preallocated submission-order result array; a
   chunk of a queued batch retires once under the pool's completion
   monitor, which publishes those writes to the waiting submitter. *)

(* The trace session and its event names, interned once at create so the
   serving loops record integer ids only. Each shard has its own buffer,
   written only by the thread serving the shard, so tracing takes no
   lock. *)
type tracing = {
  tr : Obs.Trace.t;
  n_execute : int;
  n_canonicalize : int;
  n_pipeline : int;
  n_queue_wait : int;
  n_feedback : int;
  n_explain : int;
  n_query : int;  (* flow arrow: a queued chunk's admission -> its execute *)
}

type shard = {
  id : int;
  estimator : Core.Estimator.t;
      (* shares the base estimator's kernel/HET/values, owns its registry *)
  obs : Obs.t;
  cache : Core.Estimator.outcome Lru_cache.t;
  recorder : Flight_recorder.t option;
  drift_shard : Drift.shard option;
  tbuf : Obs.Trace.buf option;  (* written only by the thread serving it *)
  mutable epoch_seen : int;
  mutable busy_s : float;  (* dequeue-to-result time, accumulated *)
  mutable last_served_at : float;  (* monotonic finish instant; 0 = never *)
  mutable current : chunk option;
      (* the chunk being executed, set between taking it and completion so
         [recover_crash] can answer its unserved slots if the chunk body
         dies mid-chunk *)
  queue_wait_us : Obs.histogram;  (* in [obs]; merges pool-wide by key *)
  gc_minor_words : Obs.counter;
  gc_major_words : Obs.counter;
  gc_minor_collections : Obs.counter;
  gc_major_collections : Obs.counter;
}

(* A submitted batch: [remaining] counts unanswered slots; each chunk
   decrements it exactly once (by its slot count) when it completes. For a
   queued batch (one that put chunks in the queue) the pool's completion
   monitor guards [remaining], and the submitter waits on it until
   [remaining] reaches zero. A batch served whole on the submitter
   completes on its thread and never touches the monitor. Every slot's
   deadline runs from [admitted_at], also for a chunk that waits behind
   earlier ones — in the queue, or served on the submitter after them;
   so does a queued chunk's queue wait. *)
and batch = {
  mutable remaining : int;
  queued : bool;
  mutable admitted_at : float;  (* set once, under the submission lock *)
}

(* A contiguous slice [c_base, c_hi) of one batch, the unit of dispatch.
   All chunks of a batch share the query and result arrays; slot [i]
   carries global sequence number [c_seq_base + i]. Once popped, only the
   serving worker touches [c_cursor]. *)
and chunk = {
  c_queries : string array;
  c_results : (Serve.estimate_reply, Core.Error.t) result option array;
  c_seq_base : int;  (* global seq of batch slot 0 *)
  c_parent : batch;
  c_base : int;  (* first slot *)
  c_hi : int;  (* exclusive *)
  mutable c_cursor : int;  (* next slot to serve *)
  mutable c_done : bool;  (* idempotent latch; queued: under the monitor *)
}

type t = {
  base : Core.Estimator.t;
  threshold : float;
  shards : shard array;
  queue : chunk Work_queue.t;
  mutable domains : unit Domain.t array;
  epoch : int Atomic.t;
  monitor : Mutex.t;  (* chunk completion: [inflight], queued batches *)
  retired : Condition.t;  (* a queued batch's last chunk retired *)
  mutable inflight : int;  (* queued chunks not yet retired; under [monitor] *)
  deadline_s : float option;  (* per-request budget from admission, mono clock *)
  timeout_total : int Atomic.t;
  worker_restarts : int Atomic.t;
  chaos : (string -> bool) option;
      (* test-only fault hook, called on the serving thread right before a
         query executes; returning true kills the chunk body there *)
  quarantine_lock : Mutex.t;
  crash_counts : (string, int) Hashtbl.t;  (* under quarantine_lock *)
  quarantined_queries : (string, unit) Hashtbl.t;  (* under quarantine_lock *)
  quarantine_active : bool Atomic.t;
      (* fast-path flag so the serve hot loop skips the quarantine
         hashtable (and its lock) entirely until a first crash repeats *)
  submit_lock : Mutex.t;  (* serializes submissions against feedback *)
  mutable ept : (Core.Matcher.ept, Core.Error.t) result;
  feedback_memo : Core.Estimator.outcome Lru_cache.t;
      (* the estimates FEEDBACK judged, by canonical text; valid for
         [memo_epoch] only and touched only drained *)
  mutable memo_epoch : int;
  mutable next_seq : int;  (* under submit_lock *)
  drift : Drift.t option;  (* q-error window; volume rides the shards *)
  record_lock : Mutex.t;
  mutable on_record : (Flight_recorder.record -> unit) option;
  mutable feedback_seen : int;
  mutable feedback_rounds : int;
  mutable stopped : bool;
  telemetry : bool;
  created_at : float;  (* monotonic; busy fractions divide by uptime *)
  batch_chunk : Obs.histogram;  (* in shard 0's registry *)
  tracing : tracing option;
  auditor : Auditor.t option;
      (* shadow auditor; workers call its thread-safe [sample], results are
         folded back only under [submit_lock] with the workers drained *)
  scrape : Scrape_meter.t;
}

let materialize_ept estimator =
  Core.Error.guard (fun () ->
      try Core.Estimator.ept estimator
      with Core.Matcher.Ept_too_large n ->
        Core.Error.raisef Core.Error.Limit_exceeded
          "EPT exceeded max_ept_nodes while materializing (%d nodes)" n)

let parse query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Core.Error.make ~position Core.Error.Malformed_query message)
  | Ok path -> Ok path

(* Slots per chunk the plan aims for: enough that one queue operation
   amortizes over several estimates, few enough that a batch still spreads
   over the workers. *)
let chunk_target = 8

(* The most chunks a plan has: the submitter serves one and queues the
   rest, so the queue has [max_chunks - 1] slots. Plans of up to
   [max_chunks * chunk_target] slots never reach it. *)
let max_chunks = 256

(* The chunk plan, a pure function so the partition laws are directly
   QCheck-able (test_pool). [n] slots are cut into
   min n (min max_chunks (max workers (ceil n/chunk_target))) contiguous
   chunks — at least one per worker for parallelism, near [chunk_target]
   slots each so the dispatch cost amortizes, never more chunks than slots
   or than the queue holds beside the submitter's. Sizes differ by at most
   one (long chunks first). *)
let plan_chunks ~n ~workers =
  if n <= 0 then [||]
  else begin
    let count =
      min n
        (min max_chunks
           (max workers ((n + chunk_target - 1) / chunk_target)))
    in
    let base = n / count and rem = n mod count in
    Array.init count (fun i ->
        let lo = (i * base) + min i rem in
        (lo, lo + base + if i < rem then 1 else 0))
  end

(* Hand a fresh flight record to the [set_on_record] sink, serialized so
   the sink itself need not be domain-safe. *)
let deliver t r =
  match t.on_record with
  | None -> ()
  | Some f -> Mutex.protect t.record_lock (fun () -> f r)

let emit_record t shard ~seq ~(key : Canonical.key) ~status
    ~(outcome : Core.Estimator.outcome) ~canonicalize_s ~ept_s ~match_s
    ~ept_nodes ~frontier_peak ~het_hits =
  match shard.recorder with
  | None -> ()
  | Some rec_ ->
    let r =
      Flight_recorder.record ~seq rec_ ~query:key.Canonical.text
        ~hash:key.Canonical.hash ~cache:status
        ~estimate:outcome.Core.Estimator.value ~canonicalize_s ~ept_s ~match_s
        ~ept_nodes ~frontier_peak
        ~degenerate_clamps:outcome.Core.Estimator.clamped ~het_hits
        ~feedback_round:t.feedback_rounds
    in
    deliver t r

(* A deadline refusal: counted, and still a flight record — zero
   estimate, zero stage times — on the refusing shard's ring, so drops are
   visible in RECENT and the telemetry stream. *)
let time_out t shard ~seq ~query ~hash =
  Atomic.incr t.timeout_total;
  (match shard.recorder with
   | None -> ()
   | Some rec_ ->
     deliver t
       (Flight_recorder.record ~seq rec_ ~query ~hash
          ~cache:Flight_recorder.Timed_out ~estimate:0.0 ~canonicalize_s:0.0
          ~ept_s:0.0 ~match_s:0.0 ~ept_nodes:0 ~frontier_peak:0
          ~degenerate_clamps:0 ~het_hits:0 ~feedback_round:t.feedback_rounds));
  Error (Core.Error.make Core.Error.Timeout "request deadline exceeded")

let past_deadline t ~admitted_at ~now =
  match t.deadline_s with None -> false | Some d -> now -. admitted_at > d

(* Crash bookkeeping: a query whose execution has killed a worker twice is
   quarantined — subsequent submissions are answered [ERR internal] before
   executing, so one poisonous input cannot grind the pool through endless
   restarts. *)
let note_crash t query =
  Mutex.protect t.quarantine_lock (fun () ->
      let n =
        (match Hashtbl.find_opt t.crash_counts query with
         | Some n -> n
         | None -> 0)
        + 1
      in
      Hashtbl.replace t.crash_counts query n;
      if n >= 2 && not (Hashtbl.mem t.quarantined_queries query) then begin
        Hashtbl.replace t.quarantined_queries query ();
        Atomic.set t.quarantine_active true
      end)

let is_quarantined t query =
  Atomic.get t.quarantine_active
  && Mutex.protect t.quarantine_lock (fun () ->
         Hashtbl.mem t.quarantined_queries query)

let quarantined_count t =
  if not (Atomic.get t.quarantine_active) then 0
  else
    Mutex.protect t.quarantine_lock (fun () ->
        Hashtbl.length t.quarantined_queries)

let quarantined_error () =
  Core.Error.make Core.Error.Internal
    "query quarantined: its execution crashed a worker twice"

(* The EPT as the estimator's lazy argument. It is built at [create] and
   on refinement, so a served query only reads it. A failed build raises
   its error inside the estimator's guard, from a suspension of the
   caller's own, so no two domains ever force one suspension. *)
let ept_handle t =
  match t.ept with
  | Ok e -> Lazy.from_val e
  | Error err -> lazy (raise (Core.Error.Xseed err))

(* Stage sub-slices on the serving shard's track, inside the shard's
   [execute] slice. No-ops unless the pool is tracing. *)
let trace_stage t shard ~name ~t0 ~dur =
  match (t.tracing, shard.tbuf) with
  | Some tg, Some tb ->
    let name = if name = `Canonicalize then tg.n_canonicalize else tg.n_pipeline in
    Obs.Trace.complete tb ~name ~ts:(Obs.Trace.rel tg.tr t0) ~dur
  | _ -> ()

(* The one epilogue of a served estimate, hit or miss: drift note, flight
   record, audit sample, reply. *)
let reply t shard ~seq ~(key : Canonical.key) ~cast ~canonicalize_s status
    (outcome : Core.Estimator.outcome) ~match_s ~ept_nodes ~frontier_peak
    ~het_hits =
  let hit = status = Flight_recorder.Hit in
  (match shard.drift_shard with
   | Some s -> Drift.note_shard s ~cache_hit:hit
   | None -> ());
  emit_record t shard ~seq ~key ~status ~outcome ~canonicalize_s
    ~ept_s:0.0 ~match_s ~ept_nodes ~frontier_peak ~het_hits;
  (match t.auditor with
   | Some a ->
     Auditor.sample a ~query:key.Canonical.text ~hash:key.Canonical.hash
       ~ast:cast ~estimate:outcome.Core.Estimator.value
   | None -> ());
  Ok
    { Serve.value = outcome.Core.Estimator.value;
      status = (if hit then Core.Explain.Hit else Core.Explain.Miss) }

(* The estimate hot path, run against the serving shard: canonicalize,
   consult the shard cache, check the deadline, run the matcher on a miss.
   Every shard estimator is built from the same kernel/HET/values, so the
   estimate does not depend on which shard serves it. *)
let serve_query t shard ~seq ~admitted_at query =
  match parse query with
  | Error e -> Error e
  | Ok ast ->
    let t0 = Obs.now_mono () in
    let cast, key = Canonical.normal_form ast in
    let canonicalize_s = Obs.now_mono () -. t0 in
    trace_stage t shard ~name:`Canonicalize ~t0 ~dur:canonicalize_s;
    match Lru_cache.find shard.cache key.Canonical.text with
    | Some outcome ->
      reply t shard ~seq ~key ~cast ~canonicalize_s Flight_recorder.Hit
        outcome ~match_s:0.0 ~ept_nodes:0 ~frontier_peak:0 ~het_hits:0
    | None when past_deadline t ~admitted_at ~now:(Obs.now_mono ()) ->
      (* Second deadline checkpoint, between canonicalize (cheap, already
         spent) and the matcher (the expensive stage we refuse to start).
         A cache hit above always answers: serving it is cheaper than
         refusing. *)
      time_out t shard ~seq ~query:key.Canonical.text ~hash:key.Canonical.hash
    | None ->
      let t1 = Obs.now_mono () in
      (match
         Core.Estimator.estimate_result_stats_on shard.estimator (ept_handle t)
           cast
       with
       | Error e -> Error e
       | Ok (outcome, ms) ->
         let match_s = Obs.now_mono () -. t1 in
         trace_stage t shard ~name:`Pipeline ~t0:t1 ~dur:match_s;
         Lru_cache.put shard.cache key.Canonical.text outcome;
         reply t shard ~seq ~key ~cast ~canonicalize_s Flight_recorder.Miss
           outcome ~match_s
           ~ept_nodes:ms.Core.Matcher.ept_nodes
           ~frontier_peak:ms.Core.Matcher.frontier_peak
           ~het_hits:
             (ms.Core.Matcher.het_joint_overrides
             + ms.Core.Matcher.het_single_overrides))

(* Retire a chunk exactly once: decrement the parent batch by the chunk's
   slot count. Both the chunk body and [recover_crash] cleaning up after it
   call this; [c_done] makes the second call a no-op. A chunk of a queued
   batch retires under the completion monitor, which publishes the
   result-array writes and counts it out of [inflight]; the batch's last
   chunk wakes its submitter and any drain with one broadcast. *)
let complete_chunk t (c : chunk) =
  let b = c.c_parent in
  let retire () =
    if not c.c_done then begin
      c.c_done <- true;
      b.remaining <- b.remaining - (c.c_hi - c.c_base);
      if b.queued then begin
        t.inflight <- t.inflight - 1;
        if b.remaining = 0 then Condition.broadcast t.retired
      end
    end
  in
  if b.queued then Mutex.protect t.monitor retire else retire ()

(* Every chunk of a queued batch but the first went through the queue. *)
let went_through_queue (c : chunk) = c.c_parent.queued && c.c_base > 0

(* Taking a chunk: drop a cache made stale by a refining feedback, and
   observe how long a queued chunk spent in the queue — from its batch's
   admission, when it was pushed, to [t_deq], when it was taken. A chunk
   that never entered the queue observes nothing: its wait behind earlier
   chunks of its batch is their execute time, counted where they run. *)
let begin_chunk t shard (c : chunk) t_deq =
  let epoch = Atomic.get t.epoch in
  if epoch <> shard.epoch_seen then begin
    (* Feedback refined the synopsis since this shard last served: every
       cached outcome may be stale. *)
    Lru_cache.clear shard.cache;
    shard.epoch_seen <- epoch
  end;
  if t.telemetry && went_through_queue c then
    Obs.hobserve shard.queue_wait_us
      (1e6 *. (t_deq -. c.c_parent.admitted_at))

(* The chunk body: serve every remaining slot in order, then retire the
   chunk, returning the instant it finished. Slots run back to back, so a
   slot starts when its predecessor finished (the first at [t_deq]).
   Raises only if the body itself dies (chaos injection, or a bug outside
   the per-query guard) — [recover_crash] then answers the chunk's
   unserved slots. *)
let serve_chunk t shard (c : chunk) t_deq =
  shard.current <- Some c;
  (* The GC figures the chunk is bracketed with: the serving domain's own
     allocation (major words include promotions) and the process-wide
     collection counts — allocation-free reads cheap enough for every
     request, unlike [Gc.quick_stat], kept in unboxed locals. *)
  let gc_on = t.telemetry in
  let minor0 = if gc_on then Gc.minor_words () else 0.0 in
  let major0 = if gc_on then Obs.major_words () else 0.0 in
  let minor_c0 = if gc_on then Obs.minor_collections () else 0 in
  let major_c0 = if gc_on then Obs.major_collections () else 0 in
  let t_slot = ref t_deq in
  while c.c_cursor < c.c_hi do
    let slot = c.c_cursor in
    let seq = c.c_seq_base + slot in
    let query = c.c_queries.(slot) in
    let result =
      if is_quarantined t query then
        (* Refused before any execution: a query that has already
           crashed two workers never runs again. *)
        Error (quarantined_error ())
      else if past_deadline t ~admitted_at:c.c_parent.admitted_at ~now:!t_slot
      then
        (* First deadline checkpoint, per slot: the budget runs from the
           batch's admission, so a deadline can expire mid-chunk — earlier
           slots answered, later ones refused. *)
        time_out t shard ~seq ~query ~hash:0
      else begin
        (* The chaos hook sits outside the per-query guard below on
           purpose: returning true kills the chunk body the way a real
           bug outside the guard would, exercising the crash cleanup. *)
        (match t.chaos with
         | Some kill when kill query -> failwith "chaos: worker killed"
         | Some _ | None -> ());
        try serve_query t shard ~seq ~admitted_at:c.c_parent.admitted_at query
        with exn ->
          Error
            (match Core.Error.of_exn exn with
             | Some e -> e
             | None ->
               Core.Error.make Core.Error.Internal (Printexc.to_string exn))
      end
    in
    (* Lock-free reply write, straight into the submission-order slot;
       for a queued batch the monitor in [complete_chunk] publishes it. *)
    c.c_results.(slot) <- Some result;
    t_slot := Obs.now_mono ();
    c.c_cursor <- slot + 1
  done;
  let t_fin = !t_slot in
  shard.busy_s <- shard.busy_s +. (t_fin -. t_deq);
  shard.last_served_at <- t_fin;
  if gc_on then begin
    Obs.add shard.gc_minor_words
      (int_of_float (Gc.minor_words () -. minor0));
    Obs.add shard.gc_major_words
      (int_of_float (Obs.major_words () -. major0));
    Obs.add shard.gc_minor_collections
      (Obs.minor_collections () - minor_c0);
    Obs.add shard.gc_major_collections
      (Obs.major_collections () - major_c0)
  end;
  (match (t.tracing, shard.tbuf) with
   | Some tg, Some tb ->
     let ts = Obs.Trace.rel tg.tr t_deq in
     let dur = t_fin -. t_deq in
     let id = c.c_seq_base + c.c_base in
     Obs.Trace.complete_seq tb ~name:tg.n_execute ~ts ~dur ~seq:id;
     (* A queued chunk closes the queue-wait span the submitter opened at
        admission, and lands the flow arrow mid-slice so Perfetto binds it
        to this execute slice rather than its edge. *)
     if went_through_queue c then begin
       Obs.Trace.async_end tb ~name:tg.n_queue_wait ~ts ~id;
       Obs.Trace.flow_end tb ~name:tg.n_query ~ts:(ts +. (dur /. 2.0)) ~id
     end
   | _ -> ());
  complete_chunk t c;
  shard.current <- None;
  t_fin

let run_chunk t shard c ~t_deq =
  begin_chunk t shard c t_deq;
  serve_chunk t shard c t_deq

(* Crash cleanup: an exception escaped a chunk body. Answer the unserved
   slots of the chunk the shard was holding ([ERR internal], via the
   idempotent completion), note the crash against the slot that was
   executing, for quarantine, and count the restart — the shard itself
   (caches, rings, registries) carries on unchanged. *)
let recover_crash t shard exn =
  Atomic.incr t.worker_restarts;
  (match shard.current with
   | Some c ->
     if c.c_cursor < c.c_hi then note_crash t c.c_queries.(c.c_cursor);
     let err =
       Core.Error.make Core.Error.Internal
         (Printf.sprintf
            "worker %d died serving this query: %s (worker restarted)"
            shard.id (Printexc.to_string exn))
     in
     for slot = c.c_cursor to c.c_hi - 1 do
       if c.c_results.(slot) = None then c.c_results.(slot) <- Some (Error err)
     done;
     c.c_cursor <- c.c_hi;
     complete_chunk t c
   | None -> ());
  shard.current <- None

(* A worker domain: dequeue and serve whole chunks until the queue closes.
   Supervision restarts the loop in place — same domain, same shard — after
   [recover_crash]; what matters for liveness is that the loop re-enters
   [Work_queue.pop], not that a fresh domain spawns. *)
let rec supervise t shard =
  let rec loop () =
    match Work_queue.pop t.queue with
    | None -> ()
    | Some c ->
      ignore (run_chunk t shard c ~t_deq:(Obs.now_mono ()) : float);
      loop ()
  in
  match loop () with
  | () -> ()  (* queue closed: clean shutdown *)
  | exception exn ->
    recover_crash t shard exn;
    supervise t shard

(* Serve a chunk on the submitting thread, which holds the submission
   lock, on shard 0, through the same body and crash cleanup the domains
   run. The chunk starts at [t_deq], when the previous one finished (or the
   batch was admitted); returns the instant it finished. *)
let serve_inline t c ~t_deq =
  let shard = t.shards.(0) in
  try run_chunk t shard c ~t_deq
  with exn ->
    recover_crash t shard exn;
    Obs.now_mono ()

let create ?(workers = 2) ?(qerror_threshold = 2.0) ?(cache_capacity = 1024)
    ?(telemetry = true) ?(drift_p90_threshold = 8.0) ?trace ?deadline_s ?chaos
    ?auditor estimator =
  if workers < 1 then
    invalid_arg (Printf.sprintf "Pool.create: workers %d < 1" workers);
  if not (Float.is_finite qerror_threshold) || qerror_threshold < 1.0 then
    invalid_arg "Pool.create: qerror_threshold must be finite and >= 1";
  (match deadline_s with
   | Some d when Float.is_nan d ->
     invalid_arg "Pool.create: deadline_s must not be NaN"
   | _ -> ());
  let drift =
    if telemetry then Some (Drift.create ~p90_threshold:drift_p90_threshold ())
    else None
  in
  let tracing =
    Option.map
      (fun tr ->
        { tr;
          n_execute = Obs.Trace.intern tr "execute";
          n_canonicalize = Obs.Trace.intern tr "canonicalize";
          n_pipeline = Obs.Trace.intern tr "pipeline";
          n_queue_wait = Obs.Trace.intern tr "queue_wait";
          n_feedback = Obs.Trace.intern tr "feedback";
          n_explain = Obs.Trace.intern tr "explain";
          n_query = Obs.Trace.intern tr "query" })
      trace
  in
  let shards =
    Array.init workers (fun id ->
        let obs = Obs.create () in
        let shard_labels = [ ("shard", string_of_int id) ] in
        { id;
          estimator = Core.Estimator.with_obs estimator obs;
          obs;
          cache = Lru_cache.create ~capacity:cache_capacity;
          recorder =
            (if telemetry then Some (Flight_recorder.create ()) else None);
          drift_shard = Option.map Drift.register_shard drift;
          tbuf =
            Option.map
              (fun tr ->
                Obs.Trace.register tr ~tid:(id + 1)
                  ~name:(Printf.sprintf "shard-%d" id))
              trace;
          epoch_seen = 0;
          busy_s = 0.0;
          last_served_at = 0.0;
          current = None;
          queue_wait_us = Obs.histogram obs "engine.pool.queue_wait_us";
          gc_minor_words = Obs.counter_with obs "engine.gc.minor_words" shard_labels;
          gc_major_words = Obs.counter_with obs "engine.gc.major_words" shard_labels;
          gc_minor_collections =
            Obs.counter_with obs "engine.gc.minor_collections" shard_labels;
          gc_major_collections =
            Obs.counter_with obs "engine.gc.major_collections" shard_labels })
  in
  let t =
    { base = estimator;
      threshold = qerror_threshold;
      shards;
      queue = Work_queue.create ~capacity:(max_chunks - 1);
      domains = [||];
      epoch = Atomic.make 0;
      monitor = Mutex.create ();
      retired = Condition.create ();
      inflight = 0;
      deadline_s;
      timeout_total = Atomic.make 0;
      worker_restarts = Atomic.make 0;
      chaos;
      quarantine_lock = Mutex.create ();
      crash_counts = Hashtbl.create 16;
      quarantined_queries = Hashtbl.create 16;
      quarantine_active = Atomic.make false;
      submit_lock = Mutex.create ();
      ept = materialize_ept estimator;
      feedback_memo = Lru_cache.create ~capacity:cache_capacity;
      memo_epoch = 0;
      next_seq = 0;
      drift;
      record_lock = Mutex.create ();
      on_record = None;
      feedback_seen = 0;
      feedback_rounds = 0;
      stopped = false;
      telemetry;
      created_at = Obs.now_mono ();
      batch_chunk = Obs.histogram shards.(0).obs "engine.pool.batch_chunk";
      tracing;
      auditor;
      scrape = Scrape_meter.create () }
  in
  (* No domain yet: [start_domains] spawns them with the first batch that
     queues a chunk. *)
  t

let workers t = Array.length t.shards
let domains t = Array.length t.domains
let epoch t = Atomic.get t.epoch
let timeout_total t = Atomic.get t.timeout_total
let worker_restarts t = Atomic.get t.worker_restarts
let qerror_threshold t = t.threshold
let feedback_seen t = t.feedback_seen
let feedback_rounds t = t.feedback_rounds
let drift t = t.drift
let set_on_record t f = t.on_record <- Some f

let shard_cache_counters t =
  Array.map (fun (s : shard) -> Lru_cache.counters s.cache) t.shards

let closed_error () =
  Core.Error.make Core.Error.Internal "the pool has been shut down"

(* Worker domains start with the first batch that queues a chunk, one per
   shard 1..N-1, and run until [shutdown]. Until then a pool of any width
   runs no domain beside its callers: every OCaml 5 minor collection stops
   all domains, idle ones included (DESIGN.md §11). The spawn orders a
   domain's first reads of the EPT and shards; later EPT rebuilds are
   published by the queue mutex. Callers hold [submit_lock]. *)
let start_domains t =
  if Array.length t.domains = 0 then
    t.domains <-
      Array.init
        (Array.length t.shards - 1)
        (fun i -> Domain.spawn (fun () -> supervise t t.shards.(i + 1)))

(* A multi-chunk batch at N >= 2: queue every chunk but the first, serve the
   first on the submitter's shard, then take back queued chunks until the
   queue is empty; the domains serve what they popped. Every chunk of the
   batch counts as in flight until it completes, so a drain also waits for
   the domains' share. No push can fail: the queue is empty here and holds
   every chunk of a plan but one, and [shutdown] closes it only under
   [submit_lock], which callers hold and which [run_batch] checks
   [stopped] under. That lock also owns shard 0's trace buffer: a queued
   chunk's [query] flow and [queue_wait] span start there, at admission,
   and end in the [execute] slice that serves it. *)
let submit_queued t (chunks : chunk array) =
  start_domains t;
  Mutex.protect t.monitor (fun () ->
      t.inflight <- t.inflight + Array.length chunks);
  for i = 1 to Array.length chunks - 1 do
    let c = chunks.(i) in
    Work_queue.push t.queue c;
    match (t.tracing, t.shards.(0).tbuf) with
    | Some tg, Some tb ->
      let ts = Obs.Trace.rel tg.tr c.c_parent.admitted_at
      and id = c.c_seq_base + c.c_base in
      Obs.Trace.flow_start tb ~name:tg.n_query ~ts ~id;
      Obs.Trace.async_begin tb ~name:tg.n_queue_wait ~ts ~id
    | _ -> ()
  done;
  let rec take_back clock =
    match Work_queue.try_pop t.queue with
    | Some c -> take_back (serve_inline t c ~t_deq:clock)
    | None -> ()
  in
  take_back (serve_inline t chunks.(0) ~t_deq:(Obs.now_mono ()))

(* Submit a batch and wait for all of it; replies land in the preallocated
   submission-order result array regardless of which shard served which
   slot. *)
let run_batch t queries =
  let queries = Array.of_list queries in
  let n = Array.length queries in
  if n = 0 then [||]
  else begin
    (* Only a batch of several chunks on a pool of several workers queues
       anything; every other request is served whole on the submitter. *)
    let queued = workers t > 1 && n > chunk_target in
    let results = Array.make n None in
    let parent = { remaining = n; queued; admitted_at = 0.0 } in
    Mutex.protect t.submit_lock (fun () ->
        if t.telemetry then Obs.hobserve t.batch_chunk (float_of_int n);
        let seq_base = t.next_seq in
        t.next_seq <- seq_base + n;
        if t.stopped then begin
          for slot = 0 to n - 1 do
            results.(slot) <- Some (Error (closed_error ()))
          done;
          (* No shard has seen this batch. *)
          parent.remaining <- 0
        end
        else begin
          let c_enq = Obs.now_mono () in
          parent.admitted_at <- c_enq;
          let chunks =
            Array.map
              (fun (lo, hi) ->
                { c_queries = queries;
                  c_results = results;
                  c_seq_base = seq_base;
                  c_parent = parent;
                  c_base = lo;
                  c_hi = hi;
                  c_cursor = lo;
                  c_done = false })
              (plan_chunks ~n ~workers:(if queued then workers t else 1))
          in
          if queued then submit_queued t chunks
          else begin
            (* Back to back: each chunk starts when its predecessor
               finished. *)
            let clock = ref c_enq in
            for i = 0 to Array.length chunks - 1 do
              clock := serve_inline t chunks.(i) ~t_deq:!clock
            done
          end
        end);
    if queued then
      Mutex.protect t.monitor (fun () ->
          while parent.remaining > 0 do
            Condition.wait t.retired t.monitor
          done);
    Array.map
      (function
        | Some r -> r
        | None -> Error (closed_error ()))
      results
  end

(* [affinity] is accepted and ignored (see the interface). *)
let estimate_batch ?affinity:_ t queries = Array.to_list (run_batch t queries)

let estimate ?affinity:_ t query =
  match estimate_batch t [ query ] with
  | [ r ] -> r
  | _ -> Error (closed_error ())

(* Wait until no chunk is being served or queued. Callers hold
   [submit_lock], so no new submission can race the drain. *)
let wait_drained t =
  Mutex.protect t.monitor (fun () ->
      while t.inflight > 0 do
        Condition.wait t.retired t.monitor
      done)

let next_seq_locked t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let emit_audit_record t ~seq (r : Auditor.audited) =
  match t.shards.(0).recorder with
  | None -> ()
  | Some rec_ ->
    let worst_step, worst_axis, contribution =
      match r.Auditor.worst with
      | None -> ("", "", 1.0)
      | Some w -> (w.Auditor.step, w.Auditor.axis, w.Auditor.contribution)
    in
    let fr =
      Flight_recorder.record ~seq rec_
        ~audit:
          { Flight_recorder.audit_actual = r.Auditor.actual;
            audit_qerror = r.Auditor.qerror;
            audit_worst_step = worst_step;
            audit_worst_axis = worst_axis;
            audit_contribution = contribution }
        ~query:r.Auditor.query ~hash:r.Auditor.hash
        ~cache:Flight_recorder.Audited ~estimate:r.Auditor.estimate
        ~canonicalize_s:0.0 ~ept_s:0.0 ~match_s:0.0 ~ept_nodes:0
        ~frontier_peak:0 ~degenerate_clamps:0 ~het_hits:0
        ~feedback_round:t.feedback_rounds
    in
    deliver t fr

(* The one refine step of client and audit feedback: judge [estimate]
   against [actual] and, at the threshold, refine the HET, then rebuild
   the EPT while drained and bump the epoch; shards drop their caches when
   they observe it at their next chunk. *)
let refine t ast ~estimate ~actual =
  let fb =
    Feedback.apply
      ?ept:(Result.to_option t.ept)
      ~threshold:t.threshold t.base ast ~estimate ~actual
  in
  if fb.Feedback.refined then begin
    t.feedback_rounds <- t.feedback_rounds + 1;
    t.ept <- materialize_ept t.base;
    Atomic.incr t.epoch
  end;
  fb

(* Fold completed shadow audits into the drift window and shard 0's flight
   ring. Callers hold [submit_lock] with the shards drained — the
   single-writer state the feedback path already establishes — so
   [Drift.observe] cannot race a shard's [note_shard] and the
   audit-feedback EPT rebuild below follows the same epoch protocol as
   client feedback. *)
let drain_audits_locked t =
  match t.auditor with
  | None -> ()
  | Some a ->
    Auditor.drain a (fun r ->
        (match t.drift with
         | Some d ->
           ignore
             (Drift.observe ?obs:(Core.Estimator.obs t.base) d
                ~estimate:r.Auditor.estimate ~actual:r.Auditor.actual
               : float)
         | None -> ());
        emit_audit_record t ~seq:(next_seq_locked t) r;
        if
          Auditor.feedback_enabled a
          && (refine t r.Auditor.ast ~estimate:r.Auditor.estimate
                ~actual:r.Auditor.actual)
               .Feedback.refined
        then Auditor.note_refined a)

(* A drained verb's (feedback/explain) slice on shard 0's track, which the
   submission lock owns. *)
let trace_verb t which t0 =
  match (t.tracing, t.shards.(0).tbuf) with
  | Some tg, Some tb ->
    let name = if which = `Feedback then tg.n_feedback else tg.n_explain in
    Obs.Trace.complete tb ~name ~ts:(Obs.Trace.rel tg.tr t0)
      ~dur:(Obs.now_mono () -. t0)
  | _ -> ()

(* Run [f] in the single-writer state: submissions stopped by the
   submission lock, every in-flight chunk drained. [verb] names the trace
   slice covering the call. *)
let with_drained ?verb t f =
  Mutex.protect t.submit_lock (fun () ->
      if t.stopped then Error (closed_error ())
      else begin
        let t0 = Obs.now_mono () in
        Fun.protect
          ~finally:(fun () -> Option.iter (fun v -> trace_verb t v t0) verb)
        @@ fun () ->
        wait_drained t;
        f ()
      end)

(* The estimate FEEDBACK judges: one this epoch already computed — in the
   feedback memo, or in a shard cache that has caught up with the epoch —
   or else a fresh one from the base estimator, memoized. The HET and EPT
   only change together with an epoch bump, so every one of these is the
   float a recomputation would give. Journal replay at page-in feeds back
   the same queries over and over; the memo keeps it from re-running the
   matcher for each. Runs drained, so no shard is touching its cache.
   Returns the matcher stats when it ran the matcher. *)
let feedback_estimate t (key : Canonical.key) cast =
  let epoch = Atomic.get t.epoch in
  if epoch <> t.memo_epoch then begin
    Lru_cache.clear t.feedback_memo;
    t.memo_epoch <- epoch
  end;
  let text = key.Canonical.text in
  let known =
    Array.fold_left
      (fun acc (s : shard) ->
        match acc with
        | None when s.epoch_seen = epoch -> Lru_cache.peek s.cache text
        | acc -> acc)
      (Lru_cache.find t.feedback_memo text)
      t.shards
  in
  match known with
  | Some outcome -> Ok (outcome, None)
  | None ->
    (match
       Core.Estimator.estimate_result_stats_on t.base (ept_handle t) cast
     with
     | Ok (outcome, ms) ->
       Lru_cache.put t.feedback_memo text outcome;
       Ok (outcome, Some ms)
     | Error e -> Error e)

(* Single-writer feedback: only the drained state touches the shared
   HET/EPT. The estimate judged by the q-error comes from the base
   estimator (recorded as a cache Bypass on shard 0's ring — it
   deliberately skips the shard caches); every shard estimator computes
   the same float, so the q-error does not depend on who served the
   query. *)
let feedback t query ~actual =
  match parse query with
  | Error e -> Error e
  | Ok ast ->
    with_drained ~verb:`Feedback t @@ fun () ->
    drain_audits_locked t;
    let t0 = Obs.now_mono () in
    let cast, key = Canonical.normal_form ast in
    let canonicalize_s = Obs.now_mono () -. t0 in
    let t1 = Obs.now_mono () in
    match feedback_estimate t key cast with
    | Error e -> Error e
    | Ok (outcome, ms) ->
      let match_s = Obs.now_mono () -. t1 in
      t.feedback_seen <- t.feedback_seen + 1;
      (* Estimate volume lands on shard 0, which the submission lock held
         here already owns. *)
      Option.iter
        (fun s -> Drift.note_shard s ~cache_hit:false)
        t.shards.(0).drift_shard;
      (match t.drift with
       | Some d ->
         ignore
           (Drift.observe ?obs:(Core.Estimator.obs t.base) d
              ~estimate:outcome.Core.Estimator.value ~actual
             : float)
       | None -> ());
      let fb = refine t cast ~estimate:outcome.Core.Estimator.value ~actual in
      let ept_nodes, frontier_peak =
        match ms with
        | Some ms -> (ms.Core.Matcher.ept_nodes, ms.Core.Matcher.frontier_peak)
        | None -> (0, 0)
      in
      emit_record t t.shards.(0) ~seq:(next_seq_locked t) ~key
        ~status:Flight_recorder.Bypass ~outcome ~canonicalize_s ~ept_s:0.0
        ~match_s ~ept_nodes ~frontier_peak ~het_hits:0;
      Ok fb

(* EXPLAIN re-runs the whole pipeline (it reports per-stage numbers), so it
   runs drained on the base estimator like feedback does. *)
let explain t query =
  match parse query with
  | Error e -> Error e
  | Ok ast ->
    with_drained ~verb:`Explain t @@ fun () ->
    let cast, key = Canonical.normal_form ast in
    let cached =
      Array.exists
        (fun (s : shard) -> Lru_cache.mem s.cache key.Canonical.text)
        t.shards
    in
    match Core.Estimator.guarded cast (fun _ -> Core.Explain.run t.base cast) with
    | Error e -> Error e
    | Ok r ->
      let status = if cached then Core.Explain.Hit else Core.Explain.Miss in
      emit_record t t.shards.(0) ~seq:(next_seq_locked t) ~key
        ~status:(if cached then Flight_recorder.Hit else Flight_recorder.Miss)
        ~outcome:
          { Core.Estimator.value = r.Core.Explain.estimate;
            clamped = r.Core.Explain.degenerate_clamps;
            unknown_labels = r.Core.Explain.unknown_labels }
        ~canonicalize_s:0.0 ~ept_s:r.Core.Explain.ept_seconds
        ~match_s:r.Core.Explain.match_seconds
        ~ept_nodes:r.Core.Explain.ept_nodes
        ~frontier_peak:r.Core.Explain.matcher.Core.Matcher.frontier_peak
        ~het_hits:
          (match r.Core.Explain.het_usage with
           | Some u -> u.Core.Het.simple_hits + u.Core.Het.branching_hits
           | None -> 0);
      Ok
        { r with
          Core.Explain.cache = status;
          feedback_rounds = t.feedback_rounds }

let drain_audits t =
  ignore (with_drained t (fun () -> Ok (drain_audits_locked t)) : (unit, _) result)

(* The AUDIT verb settles outside the submission lock, so clients keep
   being served while the audit domain catches up, then folds the results
   in under the drained single-writer state. *)
let audit_reply t =
  match t.auditor with
  | None ->
    Error
      (Core.Error.make Core.Error.Internal
         "auditing is disabled (serve with --audit-rate and a source \
          document)")
  | Some a ->
    ignore (Auditor.settle ~timeout_s:5.0 a : bool);
    with_drained t (fun () ->
        drain_audits_locked t;
        Ok (Auditor.status_json a))

(* Aggregate cache counters: the per-shard sums. *)
let cache_counters t =
  Array.fold_left
    (fun (acc : Lru_cache.counters) (c : Lru_cache.counters) ->
      { Lru_cache.hits = acc.hits + c.hits;
        misses = acc.misses + c.misses;
        insertions = acc.insertions + c.insertions;
        evictions = acc.evictions + c.evictions;
        invalidations = acc.invalidations + c.invalidations })
    { Lru_cache.hits = 0; misses = 0; insertions = 0; evictions = 0;
      invalidations = 0 }
    (shard_cache_counters t)

type het_totals = {
  het_active : int;
  het_total : int;
  het_bytes : int;
  usage : Core.Het.counters;
}

(* Every serving total STATS and METRICS report, read once per call so the
   two renderings cannot disagree. *)
type totals = {
  cache : Lru_cache.counters;  (* summed across shards *)
  cache_size : int;
  cache_capacity : int;
  seen : int;
  rounds : int;
  het : het_totals option;
  synopsis_bytes : int;
  flight_records : int;
  pool_epoch : int;
  queue_depth : int;
  queue : Work_queue.stats;
  timeouts : int;
  restarts : int;
  quarantined : int;
}

let totals t =
  let sum f = Array.fold_left (fun acc (s : shard) -> acc + f s) 0 t.shards in
  let records = function None -> 0 | Some r -> Flight_recorder.total r in
  { cache = cache_counters t;
    cache_size = sum (fun s -> Lru_cache.length s.cache);
    cache_capacity = sum (fun s -> Lru_cache.capacity s.cache);
    seen = t.feedback_seen;
    rounds = t.feedback_rounds;
    het =
      Option.map
        (fun h ->
          { het_active = Core.Het.active_count h;
            het_total = Core.Het.total_count h;
            het_bytes = Core.Het.size_in_bytes h;
            usage = Core.Het.counters h })
        (Core.Estimator.het t.base);
    synopsis_bytes = Core.Estimator.size_in_bytes t.base;
    flight_records = sum (fun s -> records s.recorder);
    pool_epoch = epoch t;
    queue_depth = Work_queue.length t.queue;
    queue = Work_queue.stats t.queue;
    timeouts = timeout_total t;
    restarts = worker_restarts t;
    quarantined = quarantined_count t }

let stats_json t =
  let open Obs.Json in
  let s = totals t in
  let c = s.cache and q = s.queue in
  Obj
    [ ( "cache",
        Obj
          [ ("capacity", Int s.cache_capacity);
            ("size", Int s.cache_size);
            ("hits", Int c.Lru_cache.hits);
            ("misses", Int c.Lru_cache.misses);
            ("insertions", Int c.Lru_cache.insertions);
            ("evictions", Int c.Lru_cache.evictions);
            ("invalidations", Int c.Lru_cache.invalidations) ] );
      ( "feedback",
        Obj
          [ ("seen", Int s.seen);
            ("rounds", Int s.rounds);
            ("qerror_threshold", Float t.threshold) ] );
      ( "het",
        match s.het with
        | None -> Null
        | Some h ->
          let u = h.usage in
          Obj
            [ ("active", Int h.het_active);
              ("total", Int h.het_total);
              ("bytes", Int h.het_bytes);
              ("simple_lookups", Int u.Core.Het.simple_lookups);
              ("simple_hits", Int u.Core.Het.simple_hits);
              ("branching_lookups", Int u.Core.Het.branching_lookups);
              ("branching_hits", Int u.Core.Het.branching_hits);
              ("feedback_inserts", Int u.Core.Het.feedback_inserts);
              ("collisions", Int u.Core.Het.collisions) ] );
      ("synopsis_bytes", Int s.synopsis_bytes);
      ( "pool",
        Obj
          [ ("workers", Int (workers t));
            ("epoch", Int s.pool_epoch);
            ("queue_depth", Int s.queue_depth);
            ("queue_pushes", Int q.Work_queue.pushes);
            ("queue_pops", Int q.Work_queue.pops);
            ("queue_pop_waits", Int q.Work_queue.pop_waits);
            ("queue_pop_wait_s", Float q.Work_queue.pop_wait_s);
            ("queue_max_occupancy", Int q.Work_queue.max_occupancy);
            ("timeout_total", Int s.timeouts);
            ("worker_restarts", Int s.restarts);
            ("quarantined", Int s.quarantined) ] ) ]

(* The pool-level series, rendered from one [totals] read into a fresh
   registry per scrape. *)
let publish_totals t obs =
  let s = totals t in
  let c = s.cache and q = s.queue in
  let counter name v = Obs.max_to ~obs name v in
  let gauge name v = Obs.set_to ~obs name (float_of_int v) in
  counter "engine.cache.hits" c.Lru_cache.hits;
  counter "engine.cache.misses" c.Lru_cache.misses;
  counter "engine.cache.insertions" c.Lru_cache.insertions;
  counter "engine.cache.evictions" c.Lru_cache.evictions;
  counter "engine.cache.invalidations" c.Lru_cache.invalidations;
  gauge "engine.cache.size" s.cache_size;
  gauge "engine.cache.capacity" s.cache_capacity;
  counter "engine.feedback.seen" s.seen;
  counter "engine.feedback.rounds" s.rounds;
  gauge "engine.synopsis_bytes" s.synopsis_bytes;
  (match s.het with
   | None -> ()
   | Some h ->
     let u = h.usage in
     gauge "engine.het.active" h.het_active;
     gauge "engine.het.total" h.het_total;
     gauge "engine.het.bytes" h.het_bytes;
     counter "het.simple_lookups" u.Core.Het.simple_lookups;
     counter "het.simple_hits" u.Core.Het.simple_hits;
     counter "het.branching_lookups" u.Core.Het.branching_lookups;
     counter "het.branching_hits" u.Core.Het.branching_hits;
     counter "het.feedback_inserts" u.Core.Het.feedback_inserts;
     counter "het.collisions" u.Core.Het.collisions);
  counter "engine.flight.records" s.flight_records;
  (match t.auditor with None -> () | Some a -> Auditor.publish a obs);
  Scrape_meter.publish t.scrape ~obs
    ~served:(c.Lru_cache.hits + c.Lru_cache.misses + s.seen + s.timeouts);
  (match t.drift with None -> () | Some d -> Drift.publish d obs);
  gauge "engine.pool.workers" (workers t);
  gauge "engine.pool.epoch" s.pool_epoch;
  gauge "engine.pool.queue_depth" s.queue_depth;
  counter "engine.pool.queue.pushes" q.Work_queue.pushes;
  counter "engine.pool.queue.pops" q.Work_queue.pops;
  counter "engine.pool.queue.pop_waits" q.Work_queue.pop_waits;
  Obs.set_to ~obs "engine.pool.queue.pop_wait_s" q.Work_queue.pop_wait_s;
  counter "engine.pool.queue.max_occupancy" q.Work_queue.max_occupancy;
  counter "engine.pool.timeout_total" s.timeouts;
  counter "engine.pool.worker_restarts" s.restarts;
  gauge "engine.pool.quarantined" s.quarantined;
  (* Busy fraction per shard: serving time over the shard's active window
     (create to last completed chunk), so a quiet re-scrape stays
     byte-identical — a live-uptime denominator would tick on its own.
     [busy_s]/[last_served_at] are written by the serving shard without
     synchronization; a scrape may read a slightly stale pair, which is
     fine for a utilization gauge. *)
  Array.iter
    (fun (sh : shard) ->
      let fraction =
        if sh.last_served_at <= t.created_at then 0.0
        else
          Float.min 1.0 (sh.busy_s /. (sh.last_served_at -. t.created_at))
      in
      Obs.gset
        (Obs.gauge_with obs "engine.pool.busy_fraction"
           [ ("shard", string_of_int sh.id) ])
        fraction)
    t.shards

(* One scrape: pool-level totals published into a scratch registry, merged
   with every shard's registry (shard 0's also holds the batch sizes) and
   the base estimator's (FEEDBACK/EXPLAIN). The merge orders series by key, so
   the exposition is deterministic no matter how work was scheduled; it is
   rebuilt per scrape, so repeated scrapes without traffic are identical. *)
let merged_metrics t =
  let obs = Obs.create () in
  publish_totals t obs;
  Obs.merged
    (obs
    :: (Option.to_list (Core.Estimator.obs t.base)
       @ Array.to_list (Array.map (fun (s : shard) -> s.obs) t.shards)))

(* The METRICS view, mirrored into a caller's registry (a snapshot sink):
   counters only rise, so mirroring before every snapshot is idempotent. *)
let publish_telemetry t obs = Obs.mirror ~into:obs (merged_metrics t)

let metrics_text t =
  let t0 = Obs.now_mono () in
  let text = Obs.prometheus ~prefix:"xseed_" (merged_metrics t) in
  Scrape_meter.note t.scrape (Obs.now_mono () -. t0);
  text

(* Flight records from every shard ring, merged newest-submission-first
   on the global sequence number. *)
let recent ?n t =
  let all =
    Array.fold_left
      (fun acc (s : shard) ->
        match s.recorder with
        | None -> acc
        | Some r -> List.rev_append (Flight_recorder.recent r) acc)
      [] t.shards
  in
  let sorted =
    List.sort
      (fun (a : Flight_recorder.record) (b : Flight_recorder.record) ->
        compare b.Flight_recorder.seq a.Flight_recorder.seq)
      all
  in
  match n with
  | None -> sorted
  | Some n -> List.filteri (fun i _ -> i < n) sorted

let set_tenant t name =
  Array.iter
    (fun (s : shard) ->
      Option.iter (fun r -> Flight_recorder.set_tenant r name) s.recorder)
    t.shards

let telemetry_disabled () =
  Core.Error.make Core.Error.Internal "telemetry is disabled on this pool"

let server ?affinity:_ t =
  { Serve.estimate_batch = (fun qs -> estimate_batch t qs);
    feedback = (fun q ~actual -> feedback t q ~actual);
    explain = (fun q -> explain t q);
    stats_json = (fun () -> stats_json t);
    metrics_text = (fun () -> metrics_text t);
    recent =
      (fun n ->
        if t.telemetry then Ok (recent ?n t) else Error (telemetry_disabled ()));
    drift_json =
      (fun () ->
        match t.drift with
        | None -> Error (telemetry_disabled ())
        | Some d -> Ok (Drift.to_json d));
    audit = (fun () -> audit_reply t) }

(* Drop every shard cache by bumping the epoch (applied at each shard's
   next chunk), without touching the synopsis. Used by benchmarks to force
   cold-cache passes. *)
let invalidate t =
  Mutex.protect t.submit_lock (fun () ->
      wait_drained t;
      Atomic.incr t.epoch)

let shutdown t =
  let started =
    Mutex.protect t.submit_lock (fun () ->
        if t.stopped then [||]
        else begin
          t.stopped <- true;
          Work_queue.close t.queue;
          t.domains
        end)
  in
  Array.iter Domain.join started
