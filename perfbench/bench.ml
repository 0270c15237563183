(* The repo benchmark: starts the real [xseed serve --port 0] binary on a
   seeded corpus, drives it over TCP with Net.Frame requests, checks every
   reply against an in-process estimator over the same synopsis file, and
   prints the end-to-end metrics (or, with --trace 1, the per-layer ledger)
   as one JSON object on the last line of stdout.

     bench.exe --workload batch-miss|point-hot|point-hot-open|feedback-tenants --seed N
               --seconds S --trace 0|1 --xseed PATH --work DIR *)

open Inputs

let now = Obs.now_mono
let path = Filename.concat
let setup_reps = 5
let warmup_s = 1.0
let qerror_threshold = 2.0
let ledger_requests = 1000
let ledger_queries = 4096

(* The measured span is cut into this many equal sub-windows; each
   end-to-end rate and latency is the median over them, so a burst of host
   noise in one sub-window does not move the result. *)
let windows = 10

(* ------------------------------------------------------------------ *)
(* Arguments *)

type args = {
  name : string;
  wl : workload;
  open_loop : bool;  (* point-hot-open: point-hot's inputs on a schedule *)
  seed : int;
  seconds : float;
  trace : bool;
  xseed : string;
  work : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload batch-miss|point-hot|point-hot-open|feedback-tenants --seed N \
     --seconds S --trace 0|1 --xseed PATH --work DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let num k = match float_of_string_opt (get k) with Some f -> f | None -> usage () in
  let name = get "workload" in
  let open_loop = name = "point-hot-open" in
  match workload_of_name (if open_loop then "point-hot" else name) with
  | None -> usage ()
  | Some wl ->
    { name; wl; open_loop; seed = int_of_float (num "seed"); seconds = num "seconds";
      trace = num "trace" <> 0.0; xseed = get "xseed"; work = get "work" }

(* ------------------------------------------------------------------ *)
(* The in-process reference: the served synopsis file, loaded the way the
   server loads it, with its own estimate memo (dropped on refinement). *)

let load_syn file =
  match Core.Synopsis.of_string_result (Proc.read_file file) with
  | Ok s -> s
  | Error e -> failwith (Core.Error.to_string e)

type model = {
  est : Core.Estimator.t;
  mutable ept : Core.Matcher.ept;
  memo : (string, float) Hashtbl.t;
}

let estimator_of syn =
  Core.Estimator.create ~card_threshold:(Core.Synopsis.card_threshold syn)
    ?het:(Core.Synopsis.het syn) ?values:(Core.Synopsis.values syn)
    (Core.Synopsis.kernel syn)

let model_of file =
  let est = estimator_of (load_syn file) in
  { est; ept = Core.Estimator.ept est; memo = Hashtbl.create 1024 }

let model_estimate m q =
  match Hashtbl.find_opt m.memo q.text with
  | Some v -> v
  | None ->
    (match Core.Estimator.estimate_result_on m.est (Lazy.from_val m.ept) q.ast with
     | Ok o ->
       Hashtbl.replace m.memo q.text o.Core.Estimator.value;
       o.Core.Estimator.value
     | Error e -> failwith (Core.Error.to_string e))

(* Mirror of the serving engine's FEEDBACK: judge the current estimate,
   refine, and on refinement drop the memo and rebuild the EPT. *)
let model_feedback m q =
  let v = model_estimate m q in
  let fb =
    Engine.Feedback.apply ~ept:m.ept ~threshold:qerror_threshold m.est q.ast
      ~estimate:v ~actual:q.truth
  in
  if fb.Engine.Feedback.refined then begin
    Hashtbl.reset m.memo;
    m.ept <- Core.Estimator.ept m.est
  end;
  fb

let estimate_text v = Printf.sprintf "%.2f" v

let feedback_text (fb : Engine.Feedback.outcome) =
  Printf.sprintf "OK %.3f %s" fb.Engine.Feedback.q_error
    (if fb.Engine.Feedback.refined then "refined" else "kept")

(* ------------------------------------------------------------------ *)
(* Set-up: synopsis build through the first PING answered. *)

type stack = {
  server : Proc.server;
  setup_s : float;
  budget : int option;
  dir : string;
  corpora : corpus list;
}

let xml_file dir c = path dir (c.tenant ^ ".xml")
let syn_file dir c = path dir (c.tenant ^ ".syn")
let journal_dir dir = path dir "journal"
let manifest dir = path dir "manifest"

let server_args a ~dir ~workers corpora ~budget =
  let cache cap = [ "--workers"; string_of_int workers; "--cache-capacity"; string_of_int cap ] in
  match (a.wl, corpora) with
  | Batch_miss, [ c ] -> (syn_file dir c :: cache batch_cache_capacity)
  | Point_hot, [ c ] -> (syn_file dir c :: cache point_cache_capacity)
  | Feedback_tenants, _ ->
    [ "--manifest"; manifest dir; "--memory-budget"; string_of_int (Option.get budget);
      "--journal-dir"; journal_dir dir ]
  | _ -> invalid_arg "server_args"

(* Room for the two largest synopses but never all three. *)
let budget_of dir corpora =
  match
    List.sort (fun a b -> compare b a)
      (List.map (fun c -> Core.Synopsis.size_in_bytes (load_syn (syn_file dir c))) corpora)
  with
  | [ a; b; c ] -> Some (a + b + (c / 2))
  | _ -> None

let setup_once a ~dir ~workers corpora ~rep =
  Proc.rm_rf (journal_dir dir);
  let t0 = now () in
  List.iter
    (fun c ->
      Proc.run ~log:(path dir "build.log") a.xseed
        ([ "build"; xml_file dir c; "-o"; syn_file dir c ]
        @ match c.card_threshold with
          | Some t -> [ "--card-threshold"; Printf.sprintf "%g" t ]
          | None -> []))
    corpora;
  let t_build = now () -. t0 in
  (* The budget needs the built sizes; computing it is the benchmark's
     work, not the server's, so it sits outside the timed span. *)
  let budget = if a.wl = Feedback_tenants then budget_of dir corpora else None in
  if a.wl = Feedback_tenants then Proc.mkdir_p (journal_dir dir);
  let t1 = now () in
  let server =
    Proc.serve ~log:(path dir (Printf.sprintf "serve%d.log" rep)) a.xseed
      (server_args a ~dir ~workers corpora ~budget)
  in
  let c = Loadgen.connect server.Proc.port in
  let pong = Loadgen.request c "PING" in
  let t2 = now () in
  Loadgen.close c;
  if pong <> "OK pong" then failwith ("PING answered " ^ pong);
  (server, t_build +. (t2 -. t1), budget)

let set_up a ~dir ~workers =
  let corpora = Inputs.corpora a.wl in
  List.iter (fun c -> Proc.write_file (xml_file dir c) c.doc) corpora;
  if a.wl = Feedback_tenants then
    Proc.write_file (manifest dir)
      (String.concat "" (List.map (fun c -> Printf.sprintf "%s %s.syn\n" c.tenant c.tenant) corpora));
  let times = ref [] in
  let last = ref None in
  for rep = 1 to setup_reps do
    Option.iter (fun (s, _) -> Proc.stop s) !last;
    let server, dt, budget = setup_once a ~dir ~workers corpora ~rep in
    times := dt :: !times;
    last := Some (server, budget)
  done;
  let server, budget = Option.get !last in
  { server; setup_s = Stat.median (Array.of_list !times); budget; dir; corpora }

(* ------------------------------------------------------------------ *)
(* Reply bookkeeping *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  mutable hits : int;
  mutable misses : int;
  mutable estimates : int;
  mutable frames : int;
  mutable feedbacks : int;
  mutable refined : int;
  fb_lat : Stat.vec;
  mutable sample : (int * request * string) list;  (* newest first *)
  mutable sampled : int;
  (* sub-windows of the measured span *)
  mutable t0 : float;
  mutable wlen : float;
  mutable cur : int;
  mutable pid : int;
  win_lat : Stat.vec array;
  win_est : int array;
  win_cpu : float array;  (* server CPU seconds at each sub-window start *)
  win_last : float array;  (* last reply time in each sub-window *)
}

let tally () =
  { attempted = 0; failed = 0; notes = []; hits = 0; misses = 0; estimates = 0;
    frames = 0; feedbacks = 0; refined = 0; fb_lat = Stat.vec ();
    sample = []; sampled = 0; t0 = 0.0; wlen = 1.0; cur = 0; pid = 0;
    win_lat = Array.init windows (fun _ -> Stat.vec ()); win_est = Array.make windows 0;
    win_cpu = Array.make windows 0.0; win_last = Array.make windows 0.0 }

let start_windows t ~pid ~seconds =
  t.pid <- pid;
  t.t0 <- now ();
  t.wlen <- seconds /. float_of_int (Array.length t.win_est);
  t.cur <- 0;
  t.win_cpu.(0) <- Proc.cpu_seconds pid

(* Account one measured estimate frame to its sub-window, sampling the
   server's CPU clock when a new sub-window begins. *)
let window_estimates t (r : Loadgen.reply) n =
  let k = min (Array.length t.win_est - 1) (int_of_float ((r.Loadgen.at -. t.t0) /. t.wlen)) in
  if k > t.cur then begin
    let cpu = Proc.cpu_seconds t.pid in
    for j = t.cur + 1 to k do t.win_cpu.(j) <- cpu done;
    t.cur <- k
  end;
  Stat.push t.win_lat.(k) r.Loadgen.latency;
  t.win_last.(k) <- r.Loadgen.at;
  t.win_est.(k) <- t.win_est.(k) + n

(* Per-sub-window figures: estimates/s, p50 and p99 latency (s), and
   server CPU seconds per estimate, given the CPU clock at the end. *)
let window_figures t ~cpu_end =
  let windows = Array.length t.win_est in
  Array.init windows (fun k ->
      let lat = Stat.to_array t.win_lat.(k) in
      let est = float_of_int (max 1 t.win_est.(k)) in
      let cpu_next = if k + 1 < windows then t.win_cpu.(k + 1) else cpu_end in
      let span = t.win_last.(k) -. (t.t0 +. (float_of_int k *. t.wlen)) in
      ( float_of_int t.win_est.(k) /. Float.max span 1e-3,
        Stat.percentile lat 0.5,
        Stat.percentile lat 0.99,
        (cpu_next -. t.win_cpu.(k)) /. est ))

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 5 then t.notes <- msg :: t.notes)
    fmt

(* "OK <value> <hit|miss>": the value must read exactly as expected. *)
let check_estimate ~expected line =
  match String.split_on_char ' ' line with
  | [ "OK"; v; ("hit" | "miss") ] -> v = expected
  | _ -> false

(* The server's own cache verdict, one per answered estimate line. *)
let count_status t payload =
  List.iter
    (fun line ->
      if Filename.check_suffix line " hit" then t.hits <- t.hits + 1
      else if Filename.check_suffix line " miss" then t.misses <- t.misses + 1)
    (String.split_on_char '\n' payload)

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let record t ~measuring (r : Loadgen.reply) =
  t.attempted <- t.attempted + 1;
  if measuring then begin
    t.frames <- t.frames + 1;
    if t.sampled < ledger_requests then begin
      t.sample <- (r.Loadgen.conn, r.Loadgen.req, r.Loadgen.payload) :: t.sample;
      t.sampled <- t.sampled + 1
    end;
    let estimated n =
      window_estimates t r n;
      Ledger.observe "net.server.hol_wait" ~start:(r.Loadgen.at -. r.Loadgen.latency)
        ~dur:r.Loadgen.hol;
      count_status t r.Loadgen.payload;
      t.estimates <- t.estimates + n
    in
    match r.Loadgen.req with
    | Batch qs -> estimated (Array.length qs)
    | Estimate _ -> estimated 1
    | Feedback _ ->
      Stat.push t.fb_lat r.Loadgen.latency;
      t.feedbacks <- t.feedbacks + 1;
      if starts_with "OK " r.Loadgen.payload
         && Filename.check_suffix r.Loadgen.payload " refined"
      then t.refined <- t.refined + 1
    | Use _ -> ()
  end

(* Pool workloads: the synopsis never changes, so every reply is checked
   on arrival against the precomputed reference text. *)
let check_static t ~measuring ~expected (r : Loadgen.reply) =
  record t ~measuring r;
  let exp q = Hashtbl.find expected q.text in
  match r.Loadgen.req with
  | Batch qs ->
    (match String.split_on_char '\n' r.Loadgen.payload with
     | head :: lines
       when head = Printf.sprintf "OK %d" (Array.length qs)
            && List.length lines = Array.length qs ->
       List.iteri
         (fun i line ->
           if not (check_estimate ~expected:(exp qs.(i)) line) then
             fail t "%s -> %S, expected %s" qs.(i).text line (exp qs.(i)))
         lines
     | _ -> fail t "BATCH reply %S" r.Loadgen.payload)
  | Estimate (_, q) ->
    if not (check_estimate ~expected:(exp q) r.Loadgen.payload) then
      fail t "%s -> %S, expected %s" q.text r.Loadgen.payload (exp q)
  | Feedback _ | Use _ -> fail t "unexpected request kind"

(* Feedback-tenants: replies are logged per connection and replayed through
   per-tenant reference models after the run (each tenant has exactly one
   driving connection, so its order of operations is the log's order). *)
let replay_check t models logs =
  Array.iter
    (fun log ->
      List.iter
        (fun (req, payload) ->
          match req with
          | Use tenant ->
            if not (starts_with ("OK " ^ tenant ^ " ") payload) then
              fail t "USE %s -> %S" tenant payload
          | Estimate (tenant, q) ->
            let expected = estimate_text (model_estimate (List.assoc tenant models) q) in
            if not (check_estimate ~expected payload) then
              fail t "[%s] %s -> %S, expected %s" tenant q.text payload expected
          | Feedback (tenant, q) ->
            let m = List.assoc tenant models in
            let v = model_estimate m q in
            let fb = model_feedback m q in
            let expected = feedback_text fb in
            if payload <> expected
               || fb.Engine.Feedback.q_error
                  <> Engine.Feedback.q_error ~estimate:v ~actual:q.truth
            then fail t "[%s] FEEDBACK %s %d -> %S, expected %S" tenant q.text q.truth payload expected
          | Batch _ -> fail t "unexpected BATCH")
        (List.rev log))
    logs

(* ------------------------------------------------------------------ *)
(* Server counters *)

(* Sum of every series of a METRICS family (labels ignored). *)
let metric text name =
  List.fold_left
    (fun acc line ->
      match String.index_opt line ' ' with
      | Some i when line <> "" && line.[0] <> '#' ->
        let key = String.sub line 0 i in
        let base = match String.index_opt key '{' with Some j -> String.sub key 0 j | None -> key in
        if base = name then
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v when Float.is_finite v -> acc +. v
          | _ -> acc
        else acc
      | _ -> acc)
    0.0
    (String.split_on_char '\n' text)

let counter_names =
  [ "xseed_engine_pool_steals_total"; "xseed_engine_pool_queue_pop_wait_s";
    "xseed_engine_pool_affinity_hits"; "xseed_registry_page_ins"; "xseed_registry_evictions" ]

let scrape port =
  let c = Loadgen.connect port in
  let text = Loadgen.request c "METRICS" in
  Loadgen.close c;
  List.map (fun n -> (n, metric text n)) counter_names

(* ------------------------------------------------------------------ *)
(* Output *)

type value = Num of float | Unmeasured

let json_num v =
  if not (Float.is_finite v) then failwith "non-finite metric";
  Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) ->
      match v with
      | Num f -> Printf.printf "  %-48s %16.6g %s\n" name f unit
      | Unmeasured -> Printf.printf "  %-48s %16s %s\n" name "unmeasured" unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (match v with Num f -> json_num f | Unmeasured -> "\"unmeasured\"")
          unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* Gap between the ledger's timed calls on the request path: the open
   loop's server idles between requests, so its layers are timed at the
   same per-connection spacing (idle wake-ups included); closed loops are
   timed back to back. *)
let pace a ~conns =
  if a.open_loop then fun () -> Unix.sleepf (float_of_int conns /. point_rate) else ignore

(* ------------------------------------------------------------------ *)
(* The traced run's ledger pass: every layer's public function called from
   here with the workload's own inputs, one span per call. *)

let ledger_pass a st ~workers ~conns ~models ~sample ~e2e_p50_us =
  let dir = st.dir in
  let pace = pace a ~conns in
  (* Set-up layers, per corpus. *)
  List.iter
    (fun c ->
      let card_threshold = Option.value c.card_threshold ~default:0.5 in
      for _ = 1 to setup_reps do
        ignore (Ledger.span "xml.sax.fold" (fun () ->
            Xml.Sax.fold c.doc ~init:0 ~f:(fun n _ -> n + 1)) : int);
        let tbl = Xml.Label.create_table () in
        let kernel = Ledger.span "core.builder.of_string" (fun () ->
            Core.Builder.of_string ~table:tbl c.doc) in
        let path_tree = Pathtree.Path_tree.of_string ~table:tbl c.doc in
        let storage = Nok.Storage.of_string ~table:tbl c.doc in
        ignore (Ledger.span "core.het_builder.build" (fun () ->
            Core.Het_builder.build ~card_threshold ~kernel ~path_tree ~storage ()));
        let bytes = Proc.read_file (syn_file dir c) in
        ignore (Ledger.span "core.synopsis.of_string_result" (fun () ->
            Core.Synopsis.of_string_result bytes))
      done)
    st.corpora;
  let materialize f = Ledger.span "core.matcher.materialize" f in
  let ept_nodes =
    List.fold_left
      (fun acc (_, m) ->
        let est = m.est in
        let e = ref m.ept in
        for _ = 1 to setup_reps do
          e := materialize (fun () ->
              Core.Matcher.materialize ~max_nodes:(Core.Estimator.max_ept_nodes est)
                (Core.Traveler.create ~card_threshold:(Core.Estimator.card_threshold est)
                   ?het:(Core.Estimator.het est) (Core.Estimator.kernel est)))
        done;
        acc + Core.Matcher.node_count !e)
      0 models
  in
  (* Requests on the estimate blocking path, and their queries. *)
  let is_estimate = function Batch _ | Estimate _ -> true | _ -> false in
  let est_sample = List.filter (fun (_, r, _) -> is_estimate r) sample in
  let queries =
    List.concat_map
      (fun (_, r, _) ->
        match r with
        | Batch qs -> List.map (fun q -> ((List.hd st.corpora).tenant, q)) (Array.to_list qs)
        | Estimate (t, q) -> [ (t, q) ]
        | _ -> [])
      est_sample
    |> List.filteri (fun i _ -> i < ledger_queries)
    |> Array.of_list
  in
  Ledger.measure "xpath.parser.parse_result" queries (fun (_, q) -> Xpath.Parser.parse_result q.text);
  Ledger.measure "engine.canonical.canonicalize" queries (fun (_, q) -> Engine.Canonical.canonicalize q.ast);
  let est_of t = List.assoc t models in
  Ledger.measure "core.estimator.estimate_result_stats_on" queries (fun (t, q) ->
      let m = est_of t in
      Core.Estimator.estimate_result_stats_on m.est (Lazy.from_val m.ept) q.ast);
  let visited = ref 0 and steps = ref 0 in
  Array.iter
    (fun (t, q) ->
      let m = est_of t in
      match Core.Estimator.estimate_result_stats_on m.est (Lazy.from_val m.ept) q.ast with
      | Ok (_, s) ->
        visited := !visited + s.Core.Matcher.ept_nodes;
        steps := !steps + s.Core.Matcher.match_steps
      | Error _ -> ())
    queries;
  let nq = float_of_int (max 1 (Array.length queries)) in
  let payloads = Array.of_list (List.map (fun (_, r, _) -> payload r) est_sample) in
  let buf = Buffer.create 4096 in
  Ledger.measure "net.frame.encode" payloads (fun p -> Buffer.clear buf; Net.Frame.encode buf p);
  let frames =
    Array.of_list (List.map (fun (_, _, reply) -> Bytes.of_string (Net.Frame.encode_string reply)) est_sample)
  in
  Ledger.measure "net.frame.decode" frames (fun b -> Net.Frame.decode b ~off:0 ~len:(Bytes.length b));
  (* LRU replay at the server's per-shard (per-tenant) capacity, warmed as
     the server was. *)
  let capacity = match a.wl with Batch_miss -> batch_cache_capacity | _ -> point_cache_capacity in
  let caches = List.map (fun c -> (c.tenant, Engine.Lru_cache.create ~capacity)) st.corpora in
  if a.wl = Point_hot then
    List.iter
      (fun c -> Array.iter (fun q -> Engine.Lru_cache.put (List.assoc c.tenant caches) q.text ()) c.queries)
      st.corpora;
  let finds = ref 0 and found = ref 0 in
  Array.iter
    (fun (t, q) ->
      let cache = List.assoc t caches in
      incr finds;
      match Ledger.span "engine.lru_cache.find" (fun () -> Engine.Lru_cache.find cache q.text) with
      | Some _ -> incr found
      | None -> Engine.Lru_cache.put cache q.text ())
    queries;
  (* The serving stack in-process, replaying the sampled requests. *)
  let read_lines p =
    let lines = ref (String.split_on_char '\n' p) in
    let first = List.hd !lines in
    lines := List.tl !lines;
    (first, fun () -> match !lines with [] -> None | l :: rest -> lines := rest; Some l)
  in
  let use_span reg tenant =
    ignore (Ledger.span_classified
              (fun () -> Engine.Registry.use reg tenant)
              (function
                | Ok `Loaded -> "engine.registry.use.page_in"
                | _ -> "engine.registry.use.resident"))
  in
  (* Registry paging: each tenant used twice in turn, so the first USE of a
     pair pages it in (replaying its journal) and the second finds it
     resident. *)
  let page_through reg names =
    for _ = 1 to 8 do
      List.iter (fun name -> use_span reg name; use_span reg name) names
    done
  in
  (match a.wl with
   | Batch_miss | Point_hot ->
     let c = List.hd st.corpora in
     let cache_capacity = if a.wl = Batch_miss then batch_cache_capacity else point_cache_capacity in
     let pool =
       Engine.Pool.create ~workers ~cache_capacity ~qerror_threshold
         (estimator_of (load_syn (syn_file dir c)))
     in
     Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
     if a.wl = Point_hot then
       Array.iter (fun q -> ignore (Engine.Pool.estimate ~affinity:1 pool q.text)) c.queries;
     let server = Engine.Pool.server ~affinity:1 pool in
     List.iter
       (fun (_, r, _) ->
         let first, read_line = read_lines (payload r) in
         pace ();
         ignore (Ledger.span "engine.serve.handle_request" (fun () ->
             Engine.Serve.handle_request server ~read_line first)))
       est_sample;
     List.iter
       (fun (_, r, _) ->
         let texts = match r with
           | Batch qs -> List.map (fun q -> q.text) (Array.to_list qs)
           | Estimate (_, q) -> [ q.text ]
           | _ -> []
         in
         pace ();
         ignore (Ledger.span "engine.pool.estimate_batch" (fun () ->
             Engine.Pool.estimate_batch ~affinity:1 pool texts)))
       est_sample
   | Feedback_tenants ->
     let jdir = journal_dir dir and lj = path dir "ledger-journal" in
     Proc.rm_rf lj;
     Proc.mkdir_p lj;
     List.iter
       (fun c ->
         let wal = path jdir (c.tenant ^ ".wal") in
         if Sys.file_exists wal then begin
           let copy = path lj (c.tenant ^ ".wal") in
           Proc.write_file copy (Proc.read_file wal);
           for _ = 1 to setup_reps do
             ignore (Ledger.span "engine.journal.recover" (fun () -> Engine.Journal.recover copy))
           done
         end)
       st.corpora;
     let reg =
       Engine.Registry.create ?memory_budget:st.budget ~qerror_threshold ~journal_dir:lj
         ~journal_fsync:`Always ()
     in
     Fun.protect ~finally:(fun () -> Engine.Registry.close reg) @@ fun () ->
     (match Engine.Registry.load_manifest reg (manifest dir) with
      | Ok _ -> ()
      | Error e -> failwith (Core.Error.to_string e));
     let sessions = Array.init 2 (fun _ -> Engine.Registry.session reg) in
     let handle conn r =
       let s = sessions.(conn) in
       let first, read_line = read_lines (payload r) in
       Engine.Serve.handle_request ~extra:(Engine.Registry.extra s)
         (Engine.Registry.server s) ~read_line first
     in
     (* The sample starts mid-run: select each session's tenant first. *)
     Array.iteri
       (fun conn _ ->
         match List.find_opt (fun (c, _, _) -> c = conn) sample with
         | Some (_, (Estimate (t, _) | Feedback (t, _) | Use t), _) -> ignore (handle conn (Use t))
         | _ -> ())
       sessions;
     List.iter
       (fun (conn, r, _) ->
         match r with
         | Use tenant ->
           use_span reg tenant;
           ignore (handle conn r)
         | Estimate _ -> ignore (Ledger.span "engine.serve.handle_request" (fun () -> handle conn r))
         | Feedback _ | Batch _ -> ignore (handle conn r))
       sample;
     page_through reg (List.map (fun c -> c.tenant) st.corpora));
  (* The write path (feedback policy, journal append and recovery) on this
     workload's feedback stream: its FEEDBACK requests, or — for the pool
     workloads, which send none — the truths of the estimates it sent. *)
  let feedbacks =
    match List.filter_map (function _, Feedback (t, q), _ -> Some (t, q) | _ -> None) sample with
    | [] -> List.filteri (fun i _ -> i < 200) (Array.to_list queries)
    | fbs -> fbs
  in
  let fresh = List.map (fun c -> (c.tenant, model_of (syn_file dir c))) st.corpora in
  let wal = path dir "ledger.wal" in
  Proc.rm_rf wal;
  let w =
    match Engine.Journal.open_append ~fsync:`Always wal with
    | Ok w -> w
    | Error e -> failwith (Core.Error.to_string e)
  in
  List.iter
    (fun (t, q) ->
      let m = List.assoc t fresh in
      let v = model_estimate m q in
      let fb = Ledger.span "engine.feedback" (fun () ->
          Engine.Feedback.apply ~ept:m.ept ~threshold:qerror_threshold m.est q.ast
            ~estimate:v ~actual:q.truth)
      in
      if fb.Engine.Feedback.refined then begin
        Hashtbl.reset m.memo;
        m.ept <- materialize (fun () -> Core.Estimator.ept m.est)
      end;
      ignore (Ledger.span "engine.journal.append" (fun () ->
          Engine.Journal.append w { Engine.Journal.query = q.text; actual = q.truth })))
    feedbacks;
  Engine.Journal.close w;
  for _ = 1 to setup_reps do
    ignore (Ledger.span "engine.journal.recover" (fun () -> Engine.Journal.recover wal))
  done;
  (* Registry paging for the single-synopsis workloads: their synopsis as
     two tenants under a budget that holds one, each with that journal, so
     every switch is a page-in that replays it. *)
  if a.wl <> Feedback_tenants then begin
    let c = List.hd st.corpora in
    let rd = path dir "ledger-registry" in
    Proc.rm_rf rd;
    Proc.mkdir_p rd;
    let size = Core.Synopsis.size_in_bytes (load_syn (syn_file dir c)) in
    let reg =
      Engine.Registry.create ~memory_budget:(size + (size / 2)) ~qerror_threshold
        ~journal_dir:rd ~journal_fsync:`Always ()
    in
    Fun.protect ~finally:(fun () -> Engine.Registry.close reg) @@ fun () ->
    List.iter
      (fun name ->
        Proc.write_file (path rd (name ^ ".wal")) (Proc.read_file wal);
        match Engine.Registry.register reg ~name ~path:(syn_file dir c) with
        | Ok () -> ()
        | Error e -> failwith (Core.Error.to_string e))
      [ "a"; "b" ];
    page_through reg [ "a"; "b" ]
  end;
  let p name = if Ledger.calls name = 0 then 0.0 else Ledger.p50_us name in
  (* A request that waits behind another frame travels to the server during
     that wait, so only the reply half of the round trip is left after it. *)
  let tcp = if p "net.server.hol_wait" > 0.0 then p "net.tcp.ping_rtt" /. 2.0 else p "net.tcp.ping_rtt" in
  let blocking =
    p "net.frame.encode" +. p "net.server.hol_wait" +. tcp
    +. p "engine.serve.handle_request" +. p "net.frame.decode"
  in
  let unattributed = Float.abs (e2e_p50_us -. blocking) /. e2e_p50_us in
  Printf.printf "ledger: e2e p50 %.1f us vs blocking layers %.1f us (encode %.1f + head-of-line wait %.1f + tcp %.1f + handle_request %.1f + decode %.1f): %s (%.3f)\n"
    e2e_p50_us blocking (p "net.frame.encode") (p "net.server.hol_wait") tcp
    (p "engine.serve.handle_request") (p "net.frame.decode")
    (if unattributed <= 0.15 then "reconciled" else "UNRECONCILED") unattributed;
  Ledger.write_trace (path dir "spans.json");
  ( [ ("core.matcher.ept_nodes", float_of_int ept_nodes, "count");
      ("core.matcher.ept_nodes_visited", float_of_int !visited /. nq, "count");
      ("core.matcher.match_steps", float_of_int !steps /. nq, "count");
      ("engine.lru_cache.hit_ratio",
       (if !finds = 0 then 0.0 else float_of_int !found /. float_of_int !finds), "ratio");
      ("ledger.unattributed_ratio", unattributed, "ratio");
      ("ledger.trace_overhead_ratio", Ledger.overhead_ratio (), "ratio") ] )

let layer_ops =
  [ "xml.sax.fold"; "core.builder.of_string"; "core.het_builder.build";
    "core.synopsis.of_string_result"; "engine.journal.recover";
    "engine.registry.use.resident"; "engine.registry.use.page_in";
    "xpath.parser.parse_result"; "engine.canonical.canonicalize";
    "engine.lru_cache.find"; "engine.serve.handle_request"; "net.frame.encode";
    "net.frame.decode"; "net.server.hol_wait"; "net.tcp.ping_rtt";
    "core.estimator.estimate_result_stats_on"; "engine.pool.estimate_batch";
    "core.matcher.materialize"; "engine.feedback"; "engine.journal.append" ]

(* ------------------------------------------------------------------ *)
(* One run *)

let run a =
  let nproc = Domain.recommended_domain_count () in
  let workers = min 2 nproc and conns = min 2 nproc in
  let dir = path a.work a.name in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  Printf.printf "host: nproc=%d hostname_hash=%08x; server workers=%d, client connections=%d\n%!"
    nproc (Hashtbl.hash (Unix.gethostname ()) land 0xffffffff) workers conns;
  let st = set_up a ~dir ~workers in
  let port = st.server.Proc.port in
  let models = List.map (fun c -> (c.tenant, model_of (syn_file dir c))) st.corpora in
  List.iter
    (fun c ->
      let m = List.assoc c.tenant models in
      fill_queries a.wl c ~estimator:m.est ~ept:(Lazy.from_val m.ept))
    st.corpora;
  let expected = Hashtbl.create 4096 in
  if a.wl <> Feedback_tenants then
    List.iter
      (fun c ->
        let m = List.assoc c.tenant models in
        Array.iter (fun q -> Hashtbl.replace expected q.text (estimate_text (model_estimate m q))) c.queries)
      st.corpora;
  let t = tally () in
  let logs = Array.make conns [] in
  let on_reply ~measuring (r : Loadgen.reply) =
    match a.wl with
    | Feedback_tenants ->
      record t ~measuring r;
      logs.(r.Loadgen.conn) <- (r.Loadgen.req, r.Loadgen.payload) :: logs.(r.Loadgen.conn)
    | _ -> check_static t ~measuring ~expected r
  in
  let lc = Array.init conns (fun _ -> Loadgen.connect port) in
  let streams = Inputs.streams a.wl ~seed:a.seed ~conns st.corpora in
  (* Warm-up: fill the caches (point-hot: every distinct query on every
     connection) and let lazy set-up finish before timing. *)
  (match a.wl with
   | Point_hot ->
     let c = List.hd st.corpora in
     let cursor = Array.make conns 0 in
     let n = Array.length c.queries in
     let warm = Array.init conns (fun i () ->
         let q = c.queries.(cursor.(i) mod n) in
         cursor.(i) <- cursor.(i) + 1;
         Estimate (c.tenant, q)) in
     Loadgen.closed ~requests:(n * conns) lc warm ~seconds:60.0 (on_reply ~measuring:false)
   | _ -> Loadgen.closed lc streams ~seconds:warmup_s (on_reply ~measuring:false));
  let before = scrape port in
  start_windows t ~pid:st.server.Proc.pid ~seconds:a.seconds;
  let t0 = now () in
  let open_stats =
    match a.wl with
    | Point_hot when a.open_loop ->
      let i = ref 0 in
      let next () = incr i; streams.(!i mod conns) () in
      Some (Loadgen.open_loop lc next ~rate:point_rate ~seconds:a.seconds (on_reply ~measuring:true))
    | _ ->
      Loadgen.closed lc streams ~seconds:a.seconds (on_reply ~measuring:true);
      None
  in
  let elapsed = now () -. t0 in
  let cpu1 = Proc.cpu_seconds st.server.Proc.pid in
  let after = scrape port in
  let delta n = List.assoc n after -. List.assoc n before in
  Array.iter Loadgen.close lc;
  (* Accuracy: q-error of the final served estimate of every distinct
     query against NoK ground truth. Feedback-tenants sweeps the live
     server (the synopses have learned); elsewhere the served value is the
     checked reference value. *)
  let sweep =
    if a.wl <> Feedback_tenants then []
    else
      List.map
        (fun c ->
          let lc = Loadgen.connect port in
          let use = Loadgen.request lc ("USE " ^ c.tenant) in
          let replies = Array.map (fun q -> (q, Loadgen.request lc ("ESTIMATE " ^ q.text))) c.queries in
          Loadgen.close lc;
          (c.tenant, use, replies))
        st.corpora
  in
  let rtt_conn = if a.trace then Some (Loadgen.connect port) else None in
  Option.iter
    (fun c ->
      let pace = pace a ~conns in
      for _ = 1 to 500 do
        pace ();
        let r = Ledger.span "net.tcp.ping_rtt" (fun () -> Loadgen.request c "PING") in
        if r <> "OK pong" then fail t "PING -> %S" r
      done;
      Loadgen.close c)
    rtt_conn;
  let rss = Proc.peak_rss_mb st.server.Proc.pid in
  Proc.stop st.server;
  let qerrs = ref [] in
  (match a.wl with
   | Feedback_tenants ->
     replay_check t models logs;
     List.iter
       (fun (tenant, use, replies) ->
         t.attempted <- t.attempted + 1 + Array.length replies;
         if not (starts_with ("OK " ^ tenant) use) then fail t "USE %s -> %S" tenant use;
         let m = List.assoc tenant models in
         Array.iter
           (fun (q, reply) ->
             let v = model_estimate m q in
             if not (check_estimate ~expected:(estimate_text v) reply) then
               fail t "[%s] final %s -> %S, expected %s" tenant q.text reply (estimate_text v);
             qerrs := Engine.Feedback.q_error ~estimate:v ~actual:q.truth :: !qerrs)
           replies)
       sweep
   | _ ->
     List.iter
       (fun c ->
         let m = List.assoc c.tenant models in
         Array.iter (fun q ->
             qerrs := Engine.Feedback.q_error ~estimate:(model_estimate m q) ~actual:q.truth :: !qerrs)
           c.queries)
       st.corpora);
  let qerrs = Array.of_list !qerrs in
  let fb_lat = Stat.to_array t.fb_lat in
  let us a p = 1e6 *. Stat.percentile a p in
  let figures = window_figures t ~cpu_end:cpu1 in
  let median_of f = Stat.median (Array.map f figures) in
  let show f = String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%.4g" (f x)) figures)) in
  Printf.printf "windows: estimates/s [%s] p50_us [%s] p99_us [%s] cpu_us/estimate [%s]\n"
    (show (fun (r, _, _, _) -> r)) (show (fun (_, p, _, _) -> 1e6 *. p))
    (show (fun (_, _, p, _) -> 1e6 *. p)) (show (fun (_, _, _, c) -> 1e6 *. c));
  let e2e_p50_us = 1e6 *. median_of (fun (_, p50, _, _) -> p50) in
  let syn_bytes =
    List.fold_left (fun acc c -> acc + Core.Synopsis.size_in_bytes (load_syn (syn_file dir c))) 0 st.corpora
  in
  let lag_p99_ms, achieved, valid =
    match open_stats with
    | None -> (0.0, 1.0, true)
    | Some o ->
      let achieved = float_of_int t.frames /. float_of_int o.Loadgen.sent in
      let backlog_limit = max 16 (int_of_float (point_rate *. 0.01)) in
      ( 1e3 *. Stat.percentile o.Loadgen.lag 0.99,
        achieved,
        o.Loadgen.backlog_at_end <= backlog_limit )
  in
  if not valid then
    prerr_endline "point-hot: the backlog grew during the open loop; the run is invalid, not a latency";
  (* Workload property shares (stdout, for BENCHMARK.json / README). *)
  let requests = float_of_int (max 1 t.frames) in
  let distinct = List.fold_left (fun n c -> n + Array.length c.queries) 0 st.corpora in
  let recursive =
    List.fold_left (fun n c -> n + Array.fold_left (fun n q -> if is_recursive q then n + 1 else n) 0 c.queries) 0 st.corpora
  in
  let hit_ratio = float_of_int t.hits /. float_of_int (max 1 (t.hits + t.misses)) in
  Printf.printf "properties: docs=%s distinct=%d cache_total=%d hit_ratio=%.4f recursive_share=%.3f page_ins_per_1k=%.2f refined_per_1k_feedback=%.1f requests=%d elapsed=%.2fs\n"
    (String.concat "," (List.map (fun c -> Printf.sprintf "%s:%dB" c.tenant (String.length c.doc)) st.corpora))
    distinct
    (match a.wl with
     | Batch_miss -> workers * batch_cache_capacity
     | Point_hot -> workers * point_cache_capacity
     | Feedback_tenants -> 2 * point_cache_capacity)
    hit_ratio (float_of_int recursive /. float_of_int (max 1 distinct))
    (1000.0 *. delta "xseed_registry_page_ins" /. requests)
    (1000.0 *. float_of_int t.refined /. float_of_int (max 1 t.feedbacks))
    t.frames elapsed;
  Printf.printf "failed_ratio: %d / %d\n" t.failed t.attempted;
  List.iter (fun n -> Printf.eprintf "mismatch: %s\n" n) (List.rev t.notes);
  let metrics =
    if not a.trace then
      List.map (fun (n, v, u) -> (n, Num v, u))
        [ ("setup_s", st.setup_s, "s");
          ("estimates_per_s", median_of (fun (rate, _, _, _) -> rate), "1/s");
          ("estimate_p50_us", e2e_p50_us, "us");
          ("estimate_p99_us", 1e6 *. median_of (fun (_, _, p99, _) -> p99), "us");
          ("q_error_median", Stat.median qerrs, "ratio");
          ("q_error_p90", Stat.percentile qerrs 0.9, "ratio");
          ("server_cpu_us_per_estimate",
           1e6 *. (cpu1 -. t.win_cpu.(0)) /. float_of_int (max 1 t.estimates), "us");
          ("server_peak_rss_mb", rss, "MiB");
          ("synopsis_bytes", float_of_int syn_bytes, "bytes") ]
    else begin
      let derived = ledger_pass a st ~workers ~conns ~models ~sample:(List.rev t.sample) ~e2e_p50_us in
      let pool v = if workers < 2 then Unmeasured else Num v in
      List.map (fun (n, v, u) -> (n, Num v, u)) (Ledger.metrics layer_ops)
      @ List.map (fun (n, v, u) -> (n, Num v, u)) derived
      @ [ ("engine.registry.page_ins", Num (delta "xseed_registry_page_ins"), "count");
          ("engine.registry.evictions", Num (delta "xseed_registry_evictions"), "count");
          ("engine.feedback.refine_ratio",
           Num (float_of_int t.refined /. float_of_int (max 1 t.feedbacks)), "ratio");
          ("server.pool.steals", pool (delta "xseed_engine_pool_steals_total"), "count");
          ("server.pool.queue_pop_wait_s", pool (delta "xseed_engine_pool_queue_pop_wait_s"), "s");
          ("server.pool.affinity_hits", pool (delta "xseed_engine_pool_affinity_hits"), "count");
          ("server.cache_hit_ratio", Num hit_ratio, "ratio");
          ("server.frames_served", Num (float_of_int t.frames), "count");
          ("loadgen.lag_p99_ms", Num lag_p99_ms, "ms");
          ("loadgen.achieved_rate_ratio", Num achieved, "ratio");
          ("loadgen.feedback_p50_us", Num (us fb_lat 0.5), "us");
          ("loadgen.feedback_p99_us", Num (us fb_lat 0.99), "us") ]
    end
  in
  let correct = t.failed = 0 && valid in
  print_result ~correct ~attempted:t.attempted ~failed:t.failed metrics;
  if not correct then exit 1

let () =
  let a = parse_args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  at_exit Proc.stop_all;
  try run a with
  | Failure msg | Sys_error msg ->
    Proc.stop_all ();
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | Unix.Unix_error (e, fn, arg) ->
    Proc.stop_all ();
    Printf.eprintf "perfbench: %s(%s): %s\n" fn arg (Unix.error_message e);
    exit 1
