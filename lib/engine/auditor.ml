(* Shadow accuracy auditor. One dedicated audit domain pops a bounded
   {!Work_queue} of samples and replays each query against a private
   estimator plus the NoK exact evaluator; everything the serving side
   touches is either a pure function (the sampler), a bounded try-push
   (the tap), or runs on the serving thread itself (drain). *)

type source =
  | Paths of { synopsis : string; doc : string }
  | Loaded of { estimator : Core.Estimator.t; storage : Nok.Storage.t }

type step_report = {
  index : int;
  step : string;
  label : string;
  axis : string;
  clamped : bool;
  estimate : float;
  actual : int;
  qerror : float;
  contribution : float;
}

type audited = {
  query : string;
  hash : int;
  ast : Xpath.Ast.t;
  estimate : float;
  actual : int;
  qerror : float;
  steps : step_report list;
  worst : step_report option;
}

(* ------------------------------------------------------------------ *)
(* Deterministic sampling *)

(* Splitmix64 finalizer over the canonical hash xor a seed-derived stream
   constant: a fixed pseudo-random point in [0, 1) per (seed, hash), so
   sample membership is a pure function of the query — arrival order and
   interleaving cannot move a query in or out of sample. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let unit_point ~seed hash =
  let z =
    mix64
      (Int64.logxor (Int64.of_int hash)
         (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L))
  in
  (* Top 53 bits -> an exactly representable float in [0, 1). *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let in_sample ~seed ~rate hash =
  if rate <= 0.0 then false
  else if rate >= 1.0 then true
  else unit_point ~seed hash < rate

(* ------------------------------------------------------------------ *)
(* Shared arithmetic: the q-error window, shadow evaluation *)

let window_json samples =
  let open Obs.Json in
  let at = Serve.nearest_rank samples in
  Obj
    [ ("count", Int (Array.length samples));
      ("p50", Float (at 0.5));
      ("p90", Float (at 0.9));
      ("max", Float (at 1.0)) ]

let axis_name = function
  | Xpath.Ast.Child -> "child"
  | Xpath.Ast.Descendant -> "descendant"

let label_name (step : Xpath.Ast.step) =
  match step.Xpath.Ast.test with
  | Xpath.Ast.Name l -> l
  | Xpath.Ast.Wildcard -> "*"

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Per-prefix attribution: estimate and exactly evaluate every step prefix
   of the canonical query; a step's contribution is the factor by which it
   grows the running q-error, so the worst step is where accuracy is lost.
   The full query's exact cardinality falls out as the last prefix's. *)
let audit_one ~estimator ~ept ~storage ~estimate ast =
  match
    Core.Error.guard (fun () ->
        let prev_q = ref 1.0 in
        let steps =
          List.mapi
            (fun i (step : Xpath.Ast.step) ->
              let prefix = take (i + 1) ast in
              let outcome =
                match Core.Estimator.estimate_result_on estimator ept prefix with
                | Ok o -> o
                | Error e -> raise (Core.Error.Xseed e)
              in
              let actual =
                try Nok.Eval.cardinality storage prefix with
                | Nok.Eval.Query_too_large ->
                  Core.Error.raisef Core.Error.Malformed_query
                    "query exceeds the NoK evaluator's %d-step limit"
                    Nok.Eval.max_query_size
                | Nok.Eval.Values_not_collected ->
                  Core.Error.raisef Core.Error.Internal
                    "audit storage was built without values; value \
                     predicates cannot be evaluated"
              in
              let q =
                Feedback.q_error ~estimate:outcome.Core.Estimator.value ~actual
              in
              let contribution = q /. !prev_q in
              prev_q := q;
              { index = i + 1;
                step = Xpath.Ast.to_string [ step ];
                label = label_name step;
                axis = axis_name step.Xpath.Ast.axis;
                clamped = outcome.Core.Estimator.clamped > 0;
                estimate = outcome.Core.Estimator.value;
                actual;
                qerror = q;
                contribution })
            ast
        in
        let actual =
          match List.rev steps with
          | last :: _ -> last.actual
          | [] ->
            Core.Error.raisef Core.Error.Malformed_query "empty query"
        in
        let worst =
          List.fold_left
            (fun acc s ->
              match acc with
              | Some best when best.contribution >= s.contribution -> acc
              | _ -> Some s)
            None steps
        in
        (actual, steps, worst))
  with
  | Error e -> Error (Core.Error.to_string e)
  | Ok (actual, steps, worst) ->
    let key = Canonical.of_ast ast in
    Ok
      { query = key.Canonical.text;
        hash = key.Canonical.hash;
        ast;
        estimate;
        actual;
        qerror = Feedback.q_error ~estimate ~actual;
        steps;
        worst }

let step_json (s : step_report) =
  let open Obs.Json in
  Obj
    [ ("index", Int s.index);
      ("step", String s.step);
      ("label", String s.label);
      ("axis", String s.axis);
      ("clamped", Bool s.clamped);
      ("estimate", Float s.estimate);
      ("actual", Int s.actual);
      ("qerror", Float s.qerror);
      ("contribution", Float s.contribution) ]

let audited_json (a : audited) =
  let open Obs.Json in
  Obj
    [ ("query", String a.query);
      ("hash", String (Printf.sprintf "%08x" (a.hash land 0xffffffff)));
      ("estimate", Float a.estimate);
      ("actual", Int a.actual);
      ("qerror", Float a.qerror);
      ( "worst_step",
        match a.worst with None -> Null | Some s -> step_json s );
      ("steps", List (List.map step_json a.steps)) ]

(* ------------------------------------------------------------------ *)
(* The background auditor *)

type sample_job = {
  j_query : string;
  j_hash : int;
  j_ast : Xpath.Ast.t;
  j_estimate : float;
}

type bucket = {
  b_label : string;
  b_axis : string;
  b_clamped : bool;
  mutable b_count : int;
  mutable b_max_contribution : float;
}

type resources = {
  r_estimator : Core.Estimator.t;
  r_ept : Core.Matcher.ept Lazy.t;
  r_storage : Nok.Storage.t;
}

type t = {
  rate : float;
  seed : int;
  feedback : bool;
  source : source;
  queue : sample_job Work_queue.t;  (* the tap; closed by [shutdown] *)
  m : Mutex.t;
  mutable results : audited list;  (* completed, newest first, under [m] *)
  results_pending : int Atomic.t;  (* = List.length results *)
  (* Counters and the exact q-error ring, all under [m]. A sample is
     counted in [sampled] under [m] with its push, and in [completed] or
     [errors] under [m] once audited, so the backlog is exact. *)
  mutable sampled : int;
  mutable completed : int;
  mutable shed : int;
  mutable errors : int;
  mutable refined : int;
  mutable load_failure : string option;
  ring : float array;
  mutable ring_len : int;
  mutable ring_pos : int;
  buckets : (string * string * bool, bucket) Hashtbl.t;
  mutable domain : unit Domain.t option;
  tracing : (Obs.Trace.t * Obs.Trace.buf * int) option;
}

(* Private resources, loaded once on the audit domain. The synopsis file is
   re-read rather than sharing the serving estimator, so serving-side HET
   refinement never races a shadow evaluation; the storage collects values
   so value predicates audit exactly. *)
let load_resources source =
  match source with
  | Loaded { estimator; storage } ->
    Ok
      { r_estimator = estimator;
        r_ept = lazy (Core.Estimator.ept estimator);
        r_storage = storage }
  | Paths { synopsis; doc } ->
    (match Core.Error.read_file synopsis with
     | Error e -> Error (Core.Error.to_string e)
     | Ok contents ->
       (match Core.Synopsis.of_string_result contents with
        | Error e -> Error (Core.Error.to_string e)
        | Ok syn ->
          let estimator = Core.Synopsis.estimator syn in
          (match Core.Error.read_file doc with
           | Error e -> Error (Core.Error.to_string e)
           | Ok xml ->
             (match
                Core.Error.guard (fun () ->
                    Nok.Storage.of_string ~with_values:true xml)
              with
              | Error e -> Error (Core.Error.to_string e)
              | Ok storage ->
                Ok
                  { r_estimator = estimator;
                    r_ept = lazy (Core.Estimator.ept estimator);
                    r_storage = storage }))))

let record_result t outcome =
  Mutex.protect t.m (fun () ->
      match outcome with
      | Error _msg -> t.errors <- t.errors + 1
      | Ok a ->
        t.completed <- t.completed + 1;
        t.ring.(t.ring_pos) <- a.qerror;
        t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
        if t.ring_len < Array.length t.ring then t.ring_len <- t.ring_len + 1;
        (match a.worst with
         | None -> ()
         | Some w ->
           let key = (w.label, w.axis, w.clamped) in
           let b =
             match Hashtbl.find_opt t.buckets key with
             | Some b -> b
             | None ->
               let b =
                 { b_label = w.label;
                   b_axis = w.axis;
                   b_clamped = w.clamped;
                   b_count = 0;
                   b_max_contribution = 0.0 }
               in
               Hashtbl.replace t.buckets key b;
               b
           in
           b.b_count <- b.b_count + 1;
           if w.contribution > b.b_max_contribution then
             b.b_max_contribution <- w.contribution);
        t.results <- a :: t.results;
        Atomic.incr t.results_pending)

(* The audit domain body: load resources once, then audit popped samples
   until [shutdown] closes the queue; samples still queued then are
   skipped. Every failure is data (a counter, a status field) — the domain
   never lets an exception escape into Domain.join. *)
let audit_loop t =
  let resources = ref None in
  let get_resources () =
    match !resources with
    | Some r -> r
    | None ->
      let r = load_resources t.source in
      resources := Some r;
      (match r with
       | Error msg -> Mutex.protect t.m (fun () -> t.load_failure <- Some msg)
       | Ok _ -> ());
      r
  in
  let rec loop () =
    match Work_queue.pop t.queue with
    | None -> ()
    | Some _ when Work_queue.closed t.queue -> loop ()
    | Some job ->
      let outcome =
        match get_resources () with
        | Error msg -> Error msg
        | Ok r ->
          let t0 = Obs.now_mono () in
          let res =
            match
              try
                audit_one ~estimator:r.r_estimator ~ept:r.r_ept
                  ~storage:r.r_storage ~estimate:job.j_estimate job.j_ast
              with exn -> Error (Printexc.to_string exn)
            with
            (* The tap already canonicalized; keep its key verbatim so the
               attribution record joins against the flight ring by hash. *)
            | Ok a -> Ok { a with query = job.j_query; hash = job.j_hash }
            | Error _ as e -> e
          in
          (match t.tracing with
           | None -> ()
           | Some (tr, buf, name) ->
             Obs.Trace.complete buf ~name ~ts:(Obs.Trace.rel tr t0)
               ~dur:(Obs.now_mono () -. t0));
          res
      in
      record_result t outcome;
      loop ()
  in
  loop ()

(* Completed q-errors the exact window keeps. *)
let ring_capacity = 4096

let create ?(seed = 0x5eed) ?(feedback = false) ?(queue_capacity = 256) ?trace
    ~rate source =
  if Float.is_nan rate || rate < 0.0 || rate > 1.0 then
    invalid_arg
      (Printf.sprintf "Auditor.create: rate %g outside [0, 1]" rate);
  if queue_capacity < 1 then
    invalid_arg
      (Printf.sprintf "Auditor.create: queue_capacity %d < 1" queue_capacity);
  let tracing =
    Option.map
      (fun tr ->
        ( tr,
          Obs.Trace.register tr ~tid:4095 ~name:"auditor",
          Obs.Trace.intern tr "audit" ))
      trace
  in
  let t =
    { rate;
      seed;
      feedback;
      source;
      queue = Work_queue.create ~capacity:queue_capacity;
      m = Mutex.create ();
      results = [];
      results_pending = Atomic.make 0;
      sampled = 0;
      completed = 0;
      shed = 0;
      errors = 0;
      refined = 0;
      load_failure = None;
      ring = Array.make ring_capacity 0.0;
      ring_len = 0;
      ring_pos = 0;
      buckets = Hashtbl.create 16;
      domain = None;
      tracing }
  in
  t.domain <- Some (Domain.spawn (fun () -> audit_loop t));
  t

let feedback_enabled t = t.feedback

let sample t ~query ~hash ~ast ~estimate =
  if in_sample ~seed:t.seed ~rate:t.rate hash then
    Mutex.protect t.m (fun () ->
        match
          Work_queue.try_push t.queue
            { j_query = query; j_hash = hash; j_ast = ast;
              j_estimate = estimate }
        with
        | `Closed -> ()
        | `Ok -> t.sampled <- t.sampled + 1
        | `Full ->
          (* Backlog shed: silent by design — the client answer is
             already decided, and a shed audit sample must never become
             an ERR. The drop is visible in AUDIT and the scrape. *)
          t.sampled <- t.sampled + 1;
          t.shed <- t.shed + 1)

let drain t f =
  if Atomic.get t.results_pending > 0 then begin
    let batch =
      Mutex.protect t.m (fun () ->
          let r = t.results in
          t.results <- [];
          Atomic.set t.results_pending 0;
          r)
    in
    List.iter f (List.rev batch)
  end

let note_refined t = Mutex.protect t.m (fun () -> t.refined <- t.refined + 1)

(* Accepted samples not yet audited: queued, or on the audit domain. *)
let backlog_locked t = t.sampled - t.shed - t.completed - t.errors

let settle ?(timeout_s = 5.0) t =
  let deadline = Obs.now_mono () +. timeout_s in
  let rec wait () =
    let idle =
      Mutex.protect t.m (fun () -> backlog_locked t = 0)
      || Work_queue.closed t.queue
    in
    if idle then true
    else if Obs.now_mono () >= deadline then false
    else begin
      (* Condition has no timed wait; the audit backlog drains in
         milliseconds for anything an AUDIT verb should block on, so a
         short poll is simpler than a waiter bookkeeping scheme. *)
      Unix.sleepf 0.002;
      wait ()
    end
  in
  wait ()

let ring_snapshot_locked t =
  Array.init t.ring_len (fun i -> t.ring.(i))

let top_buckets_locked ?(k = 3) t =
  let all = Hashtbl.fold (fun _ b acc -> b :: acc) t.buckets [] in
  let sorted =
    List.sort
      (fun a b ->
        match compare b.b_count a.b_count with
        | 0 ->
          (match Float.compare b.b_max_contribution a.b_max_contribution with
           | 0 ->
             compare
               (a.b_label, a.b_axis, a.b_clamped)
               (b.b_label, b.b_axis, b.b_clamped)
           | c -> c)
        | c -> c)
      all
  in
  take k sorted

let status_json t =
  Mutex.protect t.m (fun () ->
      let open Obs.Json in
      Obj
        [ ("rate", Float t.rate);
          ("sampled", Int t.sampled);
          ("completed", Int t.completed);
          ("shed", Int t.shed);
          ("errors", Int t.errors);
          ("backlog", Int (backlog_locked t));
          ("refined", Int t.refined);
          ("window", window_json (ring_snapshot_locked t));
          ( "worst_steps",
            List
              (List.map
                 (fun b ->
                   Obj
                     [ ("label", String b.b_label);
                       ("axis", String b.b_axis);
                       ("clamped", Bool b.b_clamped);
                       ("count", Int b.b_count);
                       ("max_contribution", Float b.b_max_contribution) ])
                 (top_buckets_locked t)) );
          ( "load_error",
            match t.load_failure with None -> Null | Some m -> String m ) ])

let publish t obs =
  Mutex.protect t.m (fun () ->
      Obs.set_max (Obs.counter obs "engine.audit.sampled") t.sampled;
      Obs.set_max (Obs.counter obs "engine.audit.completed") t.completed;
      Obs.set_max (Obs.counter obs "engine.audit.shed") t.shed;
      Obs.set_max (Obs.counter obs "engine.audit.errors") t.errors;
      Obs.set_max (Obs.counter obs "engine.audit.refined") t.refined;
      Obs.gset
        (Obs.gauge obs "engine.audit.backlog")
        (float_of_int (backlog_locked t));
      let at = Serve.nearest_rank (ring_snapshot_locked t) in
      Obs.gset (Obs.gauge obs "engine.audit.qerror_p50") (at 0.5);
      Obs.gset (Obs.gauge obs "engine.audit.qerror_p90") (at 0.9);
      Obs.gset (Obs.gauge obs "engine.audit.qerror_max") (at 1.0);
      Hashtbl.iter
        (fun _ b ->
          let labels =
            [ ("label", b.b_label);
              ("axis", b.b_axis);
              ("clamp", if b.b_clamped then "true" else "false") ]
          in
          Obs.set_max
            (Obs.counter_with obs "engine.audit.worst_step" labels)
            b.b_count;
          Obs.gset
            (Obs.gauge_with obs "engine.audit.worst_contribution" labels)
            b.b_max_contribution)
        t.buckets)

let shutdown t =
  Work_queue.close t.queue;
  let d =
    Mutex.protect t.m (fun () ->
        let d = t.domain in
        t.domain <- None;
        d)
  in
  Option.iter Domain.join d
