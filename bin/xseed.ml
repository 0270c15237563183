(* xseed: command-line front end for the XSEED cardinality-estimation
   library. Subcommands cover the full paper workflow: generate a corpus,
   inspect it, build a synopsis, estimate queries, evaluate ground truth,
   and compare estimates against actuals over a workload. *)

open Cmdliner

(* Exit-code contract (sysexits.h): 64 usage, 65 malformed data (XML, query,
   synopsis, resource limit), 66 missing input file, 70 internal error, 74
   I/O error. Every command body runs under [protect], so any failure is one
   diagnostic line on stderr — never an OCaml backtrace. *)
let protect f =
  match Core.Error.guard f with
  | Ok () -> ()
  | Error e ->
    Format.eprintf "xseed: %s@." (Core.Error.to_string e);
    exit (Core.Error.exit_code e)
  | exception e ->
    Format.eprintf "xseed: internal error: %s@." (Printexc.to_string e);
    exit 70

let ok_or_raise = function Ok v -> v | Error e -> raise (Core.Error.Xseed e)
let read_file path = ok_or_raise (Core.Error.read_file path)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let load_synopsis path =
  ok_or_raise (Core.Synopsis.of_string_result (read_file path))

(* Graceful drain: SIGTERM/SIGINT raise this on the main (serving) domain,
   unwinding the serve loop so the normal shutdown path runs — stop
   admission, drain in-flight work, flush journal/trace/telemetry, exit 0. *)
exception Drain_signal of int

(* ------------------------------------------------------------------ *)
(* Arguments. Positional paths are plain strings — existence is checked by
   [read_file] so a missing file exits 66, not cmdliner's usage error. *)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"XML document")

let query_arg p =
  Arg.(required & pos p (some string) None & info [] ~docv:"QUERY" ~doc:"XPath query")

let threshold_arg =
  Arg.(value & opt float 0.5
       & info [ "card-threshold" ] ~docv:"T"
           ~doc:"Traveler pruning threshold (paper uses 20 for Treebank)")

let budget_arg =
  Arg.(value & opt (some int) None
       & info [ "budget" ] ~docv:"BYTES" ~doc:"Total memory budget for kernel + HET")

let no_het_arg =
  Arg.(value & flag & info [ "no-het" ] ~doc:"Build the kernel only, no hyper-edge table")

let mbp_arg =
  Arg.(value & opt int 1
       & info [ "mbp" ] ~docv:"N" ~doc:"Max branching predicates per HET pattern")

let bsel_arg =
  Arg.(value & opt float 0.1
       & info [ "bsel-threshold" ] ~docv:"B"
           ~doc:"Backward-selectivity threshold for HET branching candidates")

let with_values_arg =
  Arg.(value & flag
       & info [ "with-values" ]
           ~doc:"Also build the value synopsis (histograms for value predicates)")

(* ------------------------------------------------------------------ *)
(* Observability plumbing: --trace / --metrics-out build an Obs context
   threaded through the pipeline; instrumentation is otherwise off. *)

let trace_arg =
  Arg.(value & flag
       & info [ "trace" ]
           ~doc:"Trace pipeline spans and counters to stderr (human-readable)")

let metrics_out_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics-out" ] ~docv:"FILE"
           ~doc:"Write pipeline metrics as JSON-lines to $(docv) (takes \
                 precedence over --trace)")

(* Deferred to inside [protect] (cmdliner evaluates term arguments outside
   the command body, where an exception would become a backtrace). *)
let obs_of (trace, metrics_out) =
  match (trace, metrics_out) with
  | false, None -> None
  | _, Some path ->
    let sink =
      try Obs.jsonl_file path
      with Sys_error msg ->
        Core.Error.raisef Core.Error.Io_error "--metrics-out: %s" msg
    in
    Some (Obs.create ~sink ())
  | true, None -> Some (Obs.create ~sink:Obs.Stderr ())

(* Final snapshot then release the sink (flushes/closes a JSON-lines file). *)
let finish_obs ?het obs =
  match obs with
  | None -> ()
  | Some o ->
    (match het with Some h -> Core.Het.publish_counters ~obs:o h | None -> ());
    Obs.emit_snapshot o;
    Obs.close o

let obs_term = Term.(const (fun trace metrics_out -> (trace, metrics_out))
                     $ trace_arg $ metrics_out_arg)

(* ------------------------------------------------------------------ *)
(* Commands *)

let stats_cmd =
  let run file =
    protect @@ fun () ->
    let doc = read_file file in
    let s = Xml.Doc_stats.of_string doc in
    Format.printf "%a@." Xml.Doc_stats.pp s;
    let pt = Pathtree.Path_tree.of_string doc in
    Format.printf "distinct rooted paths: %d@." (Pathtree.Path_tree.size pt);
    let kernel = Core.Builder.of_string doc in
    Format.printf "XSEED kernel: %d vertices, %d edges, %d bytes@."
      (Core.Kernel.vertex_count kernel)
      (Core.Kernel.edge_count kernel)
      (Core.Kernel.size_in_bytes kernel)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Document characteristics (Table 2's left half)")
    Term.(const run $ file_arg)

let build_cmd =
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Synopsis output file")
  in
  let run file output no_het budget mbp bsel threshold with_values obs_spec =
    protect @@ fun () ->
    let obs = obs_of obs_spec in
    let doc = read_file file in
    let synopsis =
      Core.Synopsis.build ?budget_bytes:budget ~with_het:(not no_het)
        ~with_values ~mbp ~bsel_threshold:bsel ~card_threshold:threshold ?obs doc
    in
    write_file output (Core.Synopsis.to_string synopsis);
    Format.printf "%a@.wrote %s (%d bytes in memory)@." Core.Synopsis.pp synopsis
      output
      (Core.Synopsis.size_in_bytes synopsis);
    finish_obs ?het:(Core.Synopsis.het synopsis) obs
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Build an XSEED synopsis (kernel + HET) from a document")
    Term.(const run $ file_arg $ output $ no_het_arg $ budget_arg $ mbp_arg
          $ bsel_arg $ threshold_arg $ with_values_arg $ obs_term)

let synopsis_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"SYNOPSIS" ~doc:"Synopsis file from 'xseed build'")

let override_threshold_arg =
  Arg.(value & opt (some float) None
       & info [ "card-threshold" ] ~docv:"T"
           ~doc:"Override the pruning threshold stored in the synopsis")

let strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit with code 1 (after printing the result) if the estimate \
                 needed a degenerate-value clamp or the query names labels \
                 absent from the synopsis")

let estimator_of ?obs ~threshold syn =
  Core.Estimator.create
    ~card_threshold:
      (Option.value threshold ~default:(Core.Synopsis.card_threshold syn))
    ?het:(Core.Synopsis.het syn)
    ?values:(Core.Synopsis.values syn)
    ?obs
    (Core.Synopsis.kernel syn)

(* The estimator behind a pool counts into a registry of its own: the pool
   merges it with its shards' registries, and [Pool.publish_telemetry]
   mirrors that merge into the CLI registry for snapshots. It shares the
   CLI registry's sink, so drift alerts still reach --metrics-out. *)
let pipeline_obs obs = Obs.create ~sink:(Obs.sink obs) ()

let strict_failures ~clamped ~unknown_labels =
  if clamped > 0 then
    Format.eprintf "xseed: strict: estimate was clamped from a degenerate value@.";
  if unknown_labels <> [] then
    Format.eprintf "xseed: strict: label%s not in synopsis: %s@."
      (if List.length unknown_labels = 1 then "" else "s")
      (String.concat ", " unknown_labels);
  clamped > 0 || unknown_labels <> []

let estimate_cmd =
  let run synopsis_file query threshold strict obs_spec =
    protect @@ fun () ->
    let obs = obs_of obs_spec in
    let syn = load_synopsis synopsis_file in
    let estimator = estimator_of ?obs ~threshold syn in
    let outcome =
      Obs.span ?obs "estimate" (fun () ->
          Core.Estimator.estimate_string_result estimator query)
    in
    match outcome with
    | Error e -> raise (Core.Error.Xseed e)
    | Ok o ->
      Format.printf "%.2f@." o.Core.Estimator.value;
      finish_obs ?het:(Core.Synopsis.het syn) obs;
      if
        strict
        && strict_failures ~clamped:o.Core.Estimator.clamped
             ~unknown_labels:o.Core.Estimator.unknown_labels
      then exit 1
  in
  Cmd.v
    (Cmd.info "estimate" ~doc:"Estimate a query's cardinality from a synopsis")
    Term.(const run $ synopsis_arg $ query_arg 1 $ override_threshold_arg
          $ strict_arg $ obs_term)

let explain_cmd =
  let json_arg =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Print the report as a single JSON object")
  in
  let run synopsis_file query threshold json strict obs_spec =
    protect @@ fun () ->
    let obs = obs_of obs_spec in
    let syn = load_synopsis synopsis_file in
    let estimator = estimator_of ?obs ~threshold syn in
    let report = Core.Explain.run_string ?obs estimator query in
    if json then print_endline (Obs.Json.to_string (Core.Explain.to_json report))
    else Format.printf "%a@." Core.Explain.pp report;
    finish_obs ?het:(Core.Synopsis.het syn) obs;
    if
      strict
      && strict_failures ~clamped:report.Core.Explain.degenerate_clamps
           ~unknown_labels:report.Core.Explain.unknown_labels
    then exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Estimate one query and report what the pipeline did: wall-clock \
             per stage, EPT nodes emitted vs pruned, matcher frontier peak, \
             HET hits/misses, and which estimation assumptions fired")
    Term.(const run $ synopsis_arg $ query_arg 1 $ override_threshold_arg
          $ json_arg $ strict_arg $ obs_term)

let evaluate_cmd =
  let run file query =
    protect @@ fun () ->
    let doc = read_file file in
    (* Always collect values: the CLI cannot know whether the query needs
       them, and the extra pass cost is irrelevant interactively. *)
    let storage = Nok.Storage.of_string ~with_values:true doc in
    Format.printf "%d@." (Nok.Eval.cardinality storage (Xpath.Parser.parse query))
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Actual cardinality via the NoK evaluator")
    Term.(const run $ file_arg $ query_arg 1)

let ept_cmd =
  let run file threshold =
    protect @@ fun () ->
    let doc = read_file file in
    let kernel = Core.Builder.of_string doc in
    print_endline (Core.Traveler.ept_to_xml ~card_threshold:threshold kernel)
  in
  Cmd.v
    (Cmd.info "ept" ~doc:"Dump the expanded path tree as XML (paper Section 4)")
    Term.(const run $ file_arg $ threshold_arg)

let generate_cmd =
  let corpus =
    Arg.(required & pos 0 (some (enum [ ("dblp", `Dblp); ("xmark", `Xmark);
                                        ("treebank", `Treebank); ("paper", `Paper) ]))
           None
         & info [] ~docv:"CORPUS" ~doc:"One of dblp, xmark, treebank, paper")
  in
  let scale =
    Arg.(value & opt int 1000
         & info [ "scale" ] ~docv:"N"
             ~doc:"records (dblp) / items (xmark) / sentences (treebank)")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed") in
  let output =
    Arg.(required & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output XML file")
  in
  let run corpus scale seed output =
    protect @@ fun () ->
    let doc =
      match corpus with
      | `Dblp -> Datagen.Dblp.generate ~seed ~records:scale ()
      | `Xmark -> Datagen.Xmark.generate ~seed ~items:scale ()
      | `Treebank -> Datagen.Treebank.generate ~seed ~sentences:scale ()
      | `Paper -> Datagen.Paper_example.document
    in
    write_file output doc;
    Format.printf "wrote %s (%d bytes)@." output (String.length doc)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic corpus (paper Section 6.1)")
    Term.(const run $ corpus $ scale $ seed $ output)

let workload_cmd =
  let kind =
    Arg.(value
         & opt (enum [ ("sp", `Sp); ("bp", `Bp); ("cp", `Cp); ("valued", `Valued) ]) `Bp
         & info [ "kind" ] ~docv:"KIND" ~doc:"sp, bp, cp or valued")
  in
  let count = Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Queries") in
  let mbp = Arg.(value & opt int 1 & info [ "mbp" ] ~docv:"M" ~doc:"Max predicates/step") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed") in
  let run file kind count mbp seed =
    protect @@ fun () ->
    let doc = read_file file in
    let pt = Pathtree.Path_tree.of_string doc in
    let rng = Datagen.Rng.create ~seed in
    let queries =
      match kind with
      | `Sp -> Datagen.Workload.all_simple_paths pt
      | `Bp -> Datagen.Workload.branching pt ~rng ~count ~mbp ()
      | `Cp -> Datagen.Workload.complex pt ~rng ~count ~mbp ()
      | `Valued ->
        let storage = Nok.Storage.of_string ~with_values:true doc in
        Datagen.Workload.valued pt ~storage ~rng ~count ()
    in
    List.iter (fun q -> print_endline (Xpath.Ast.to_string q)) queries
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a query workload from a document's path tree")
    Term.(const run $ file_arg $ kind $ count $ mbp $ seed)

let compare_cmd =
  let count = Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Queries/kind") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed") in
  let run file no_het budget bsel threshold count seed with_values obs_spec =
    protect @@ fun () ->
    let obs = obs_of obs_spec in
    let doc = read_file file in
    let synopsis =
      Core.Synopsis.build ?budget_bytes:budget ~with_het:(not no_het)
        ~with_values ~bsel_threshold:bsel ~card_threshold:threshold ?obs doc
    in
    let storage = Nok.Storage.of_string ~with_values doc in
    let pt = Pathtree.Path_tree.of_string doc in
    let rng = Datagen.Rng.create ~seed in
    let estimator = Core.Synopsis.estimator synopsis in
    let run_kind name queries =
      match queries with
      | [] -> ()
      | _ ->
        let pairs =
          Obs.span ?obs ("compare." ^ name) (fun () ->
              List.map
                (fun q ->
                  let est =
                    match obs with
                    | None -> Core.Estimator.estimate estimator q
                    | Some o ->
                      (* per-query estimation latency, in microseconds *)
                      let t0 = Obs.now_mono () in
                      let est = Core.Estimator.estimate estimator q in
                      Obs.observe ~obs:o "compare.estimate_us"
                        (1e6 *. (Obs.now_mono () -. t0));
                      est
                  in
                  (est, float_of_int (Nok.Eval.cardinality storage q)))
                queries)
        in
        let s = Stats.Metrics.summarize pairs in
        Format.printf "%-4s %a@." name Stats.Metrics.pp s;
        match obs with
        | None -> ()
        | Some o ->
          Obs.event ~obs:o "compare.summary"
            ~fields:
              [ ("kind", Obs.Json.String name);
                ("queries", Obs.Json.Int s.count);
                ("nrmse", Obs.Json.Float s.nrmse);
                ("opd", Obs.Json.Float s.opd);
                ("q_error_median", Obs.Json.Float s.q_error_median);
                ("q_error_p90", Obs.Json.Float s.q_error_p90);
                ("q_error_max", Obs.Json.Float s.q_error_max) ]
    in
    run_kind "SP" (Datagen.Workload.all_simple_paths pt);
    run_kind "BP" (Datagen.Workload.branching pt ~rng ~count ());
    run_kind "CP" (Datagen.Workload.complex pt ~rng ~count ());
    if with_values then
      run_kind "VAL" (Datagen.Workload.valued pt ~storage ~rng ~count ());
    finish_obs ?het:(Core.Synopsis.het synopsis) obs
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Estimate vs actual over generated workloads")
    Term.(const run $ file_arg $ no_het_arg $ budget_arg $ bsel_arg $ threshold_arg
          $ count $ seed $ with_values_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* Serving: a long-lived engine over one synopsis. *)

let qerror_threshold_arg =
  Arg.(value & opt float 2.0
       & info [ "qerror-threshold" ] ~docv:"Q"
           ~doc:"Minimum q-error at which execution feedback refines the HET")

let cache_capacity_arg =
  Arg.(value & opt int 1024
       & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Estimate-cache capacity (entries)")

let telemetry_out_arg =
  Arg.(value & opt (some string) None
       & info [ "telemetry-out" ] ~docv:"FILE"
           ~doc:"Append every flight record (one JSON object per served \
                 query) to $(docv) as JSON-lines")

let snapshot_every_arg =
  Arg.(value & opt (some int) None
       & info [ "snapshot-every" ] ~docv:"N"
           ~doc:"Emit a metrics snapshot to the --trace/--metrics-out sink \
                 every $(docv) requests")

let drift_p90_arg =
  Arg.(value & opt float 8.0
       & info [ "drift-p90" ] ~docv:"Q"
           ~doc:"Alert (bump engine.drift.alerts) when the sliding-window \
                 p90 q-error of feedback reaches $(docv)")

let workers_arg =
  Arg.(value & opt int 1
       & info [ "workers" ] ~docv:"N"
           ~doc:"Serving threads of the $(b,Engine.Pool): the serving \
                 thread itself plus $(docv)-1 worker domains, each with its \
                 own cache shard, under single-writer feedback. Every \
                 request that fits in one chunk (an ESTIMATE, a BATCH of up \
                 to 8) is served on the serving thread; with $(docv) >= 2 a \
                 larger BATCH also goes to the worker domains, which start \
                 with the first such batch. 1 (default) starts none")

let trace_out_arg =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Record a causal trace of the serving path and write it to \
                 $(docv) at exit as Chrome trace-event JSON (open in \
                 Perfetto or chrome://tracing; validate with $(b,xseed \
                 trace-lint))")

let deadline_ms_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-request deadline in milliseconds, measured on the \
                 monotonic clock from admission. A request that overruns it \
                 answers ERR timeout instead of executing. 0 or absent \
                 disables deadlines")

let max_batch_arg =
  Arg.(value & opt int Engine.Serve.max_batch
       & info [ "max-batch" ] ~docv:"N"
           ~doc:"Upper bound on a single BATCH count; larger frames are \
                 rejected with an ERR naming the limit before any payload \
                 line is read")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Crash-safe feedback journal: replay $(docv) through the \
                 feedback path at startup (recovering a torn or corrupt \
                 tail by truncation), then append every accepted FEEDBACK \
                 to it before acknowledging")

let journal_fsync_arg =
  Arg.(value & opt string "always"
       & info [ "journal-fsync" ] ~docv:"POLICY"
           ~doc:"Journal durability: 'always' fsyncs every append, 'never' \
                 leaves flushing to the OS, an integer N fsyncs every Nth \
                 append")

(* Shadow auditing (DESIGN.md §15): sampled ground-truth q-error. *)

let audit_rate_arg =
  Arg.(value & opt float 0.0
       & info [ "audit-rate" ] ~docv:"RATE"
           ~doc:"Shadow-audit sample rate within [0, 1]: a deterministic \
                 hash of each served query's canonical form selects that \
                 fraction for background exact evaluation against the \
                 source document (--audit-doc, or the manifest's doc= \
                 field), feeding the AUDIT verb's true q-error window. 0 \
                 (the default) disables auditing")

let audit_seed_arg =
  Arg.(value & opt (some int) None
       & info [ "audit-seed" ] ~docv:"N"
           ~doc:"Seed for the audit sampler's hash stream; the same seed \
                 and rate always select the same queries, regardless of \
                 arrival order")

let audit_feedback_arg =
  Arg.(value & flag
       & info [ "audit-feedback" ]
           ~doc:"Let audited ground truth drive the q-error-gated HET \
                 refinement path, as if each audited query had sent \
                 FEEDBACK")

let audit_doc_arg =
  Arg.(value & opt (some string) None
       & info [ "audit-doc" ] ~docv:"FILE"
           ~doc:"Source XML document the audit domain replays sampled \
                 queries against (single-synopsis modes; registry tenants \
                 declare theirs with doc= in the manifest)")

(* TCP transport (absent = the classic stdin/stdout line protocol). *)

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port" ] ~docv:"PORT"
           ~doc:"Serve the same protocol over TCP on $(docv) instead of \
                 stdin/stdout, as length-prefixed CRC-checked frames behind \
                 a HELLO handshake (see 'xseed client'). 0 picks an \
                 ephemeral port; the bound address is printed to stderr")

let host_arg =
  Arg.(value & opt string "127.0.0.1"
       & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address for --port")

let max_conns_arg =
  Arg.(value & opt int 64
       & info [ "max-conns" ] ~docv:"N"
           ~doc:"Concurrent TCP connection cap; connections beyond it are \
                 refused with one ERR overloaded frame naming the limit")

let idle_timeout_ms_arg =
  Arg.(value & opt float 60_000.0
       & info [ "idle-timeout-ms" ] ~docv:"MS"
           ~doc:"Close a TCP connection idle for $(docv) ms with ERR \
                 timeout; 0 disables the timeout")

let max_frame_arg =
  Arg.(value & opt int Net.Frame.default_max_payload
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Per-frame payload cap; a frame header claiming more is \
                 answered ERR limit-exceeded and the connection closed")

(* Multi-tenant registry mode (--manifest replaces the positional synopsis). *)

let manifest_arg =
  Arg.(value & opt (some string) None
       & info [ "manifest" ] ~docv:"FILE"
           ~doc:"Serve a registry of named synopses instead of a single \
                 one: each manifest line is '<name> <path>' ('#' comments; \
                 relative paths resolve against the manifest). Clients pick \
                 a tenant with USE <name>; tenants page in on first use and \
                 the least recently used are evicted under --memory-budget")

let memory_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "memory-budget" ] ~docv:"BYTES"
           ~doc:"Global cap on the sum of resident synopsis sizes in \
                 registry mode; exceeding it evicts least-recently-used \
                 tenants (flushing their journals first)")

let het_budget_arg =
  Arg.(value & opt (some int) None
       & info [ "het-budget" ] ~docv:"BYTES"
           ~doc:"Per-tenant HET memory budget applied at page-in \
                 (registry mode)")

let journal_dir_arg =
  Arg.(value & opt (some string) None
       & info [ "journal-dir" ] ~docv:"DIR"
           ~doc:"Registry-mode feedback journals: each tenant appends to \
                 $(docv)/<tenant>.wal, replayed at page-in so eviction \
                 cannot lose learned state")

let fsync_of = function
  | "always" -> `Always
  | "never" -> `Never
  | s ->
    (match int_of_string_opt s with
     | Some n when n >= 1 -> `Every n
     | _ ->
       Core.Error.raisef Core.Error.Malformed_query
         "--journal-fsync expects 'always', 'never' or a positive integer \
          (got %S)"
         s)

(* Build the trace session (when requested) and return it with a finalizer
   that exports the merged rings. Export failures are I/O errors (74). *)
let trace_of trace_out =
  match trace_out with
  | None -> (None, fun () -> ())
  | Some path ->
    let tr = Obs.Trace.create () in
    ( Some tr,
      fun () ->
        try Obs.Trace.write tr path
        with Sys_error msg ->
          Core.Error.raisef Core.Error.Io_error "--trace-out: %s" msg )

let serve_synopsis_arg =
  Arg.(value & pos 0 (some string) None
       & info [] ~docv:"SYNOPSIS"
           ~doc:"Synopsis file from 'xseed build' (omit it when serving a \
                 --manifest registry instead)")

let serve_cmd =
  let run synopsis_file threshold qerror_threshold cache_capacity telemetry_out
      snapshot_every drift_p90 workers deadline_ms max_batch journal_path
      journal_fsync trace_out port host max_conns idle_timeout_ms max_frame
      manifest memory_budget het_budget journal_dir audit_rate audit_seed
      audit_feedback audit_doc obs_spec =
    protect @@ fun () ->
    (match snapshot_every with
     | Some n when n < 1 ->
       Core.Error.raisef Core.Error.Malformed_query
         "--snapshot-every must be >= 1"
     | _ -> ());
    if workers < 1 then
      Core.Error.raisef Core.Error.Malformed_query "--workers must be >= 1";
    if max_batch < 1 then
      Core.Error.raisef Core.Error.Malformed_query "--max-batch must be >= 1";
    if max_conns < 1 then
      Core.Error.raisef Core.Error.Malformed_query "--max-conns must be >= 1";
    if max_frame < 1 then
      Core.Error.raisef Core.Error.Malformed_query "--max-frame must be >= 1";
    if idle_timeout_ms < 0.0 || Float.is_nan idle_timeout_ms then
      Core.Error.raisef Core.Error.Malformed_query
        "--idle-timeout-ms must be >= 0";
    if Float.is_nan audit_rate || audit_rate < 0.0 || audit_rate > 1.0 then
      Core.Error.raisef Core.Error.Malformed_query
        "--audit-rate must be within [0, 1]";
    (match (synopsis_file, manifest) with
     | None, None ->
       Core.Error.raisef Core.Error.Malformed_query
         "give a SYNOPSIS file or --manifest"
     | Some _, Some _ ->
       Core.Error.raisef Core.Error.Malformed_query
         "give a SYNOPSIS file or --manifest, not both"
     | _ -> ());
    if manifest <> None then begin
      (* The registry is the many-documents axis: each tenant is one
         one-worker pool behind the registry lock. The many-cores knobs
         (and the single-synopsis journal/trace flags) don't compose with
         it, so refuse rather than silently ignore. *)
      if workers <> 1 then
        Core.Error.raisef Core.Error.Malformed_query
          "--workers is not supported with --manifest (tenants serve on \
           one-worker pools behind the registry lock)";
      List.iter
        (fun (present, flag, hint) ->
          if present then
            Core.Error.raisef Core.Error.Malformed_query
              "%s is not supported with --manifest%s" flag hint)
        [ (journal_path <> None, "--journal",
           " (use --journal-dir for per-tenant journals)");
          (deadline_ms <> None, "--deadline-ms", "");
          (trace_out <> None, "--trace-out", "");
          (telemetry_out <> None, "--telemetry-out", "");
          (audit_doc <> None, "--audit-doc",
           " (declare each tenant's document with doc= in the manifest)") ]
    end
    else begin
      List.iter
        (fun (present, flag) ->
          if present then
            Core.Error.raisef Core.Error.Malformed_query
              "%s requires --manifest" flag)
        [ (memory_budget <> None, "--memory-budget");
          (het_budget <> None, "--het-budget");
          (journal_dir <> None, "--journal-dir") ];
      if audit_rate > 0.0 && audit_doc = None then
        Core.Error.raisef Core.Error.Malformed_query
          "--audit-rate needs --audit-doc (the source document ground \
           truth is evaluated against)";
      if audit_doc <> None && audit_rate <= 0.0 then
        Core.Error.raisef Core.Error.Malformed_query
          "--audit-doc without --audit-rate never audits anything; give \
           --audit-rate"
    end;
    let deadline_s =
      match deadline_ms with
      | None -> None
      | Some ms when ms < 0.0 || Float.is_nan ms ->
        Core.Error.raisef Core.Error.Malformed_query
          "--deadline-ms must be >= 0"
      | Some ms when ms = 0.0 -> None
      | Some ms -> Some (ms /. 1000.0)
    in
    let fsync = fsync_of journal_fsync in
    let idle_timeout_s =
      if idle_timeout_ms = 0.0 then None else Some (idle_timeout_ms /. 1000.0)
    in
    (* Serving always keeps a metrics registry: it carries the
       --trace/--metrics-out sink, and the snapshot hook mirrors the pool's
       METRICS view into it. *)
    let obs =
      match obs_of obs_spec with Some o -> o | None -> Obs.create ()
    in
    let telemetry_oc, set_on_record =
      match telemetry_out with
      | None -> (None, fun _ -> ())
      | Some path ->
        let oc =
          try open_out path
          with Sys_error msg ->
            Core.Error.raisef Core.Error.Io_error "--telemetry-out: %s" msg
        in
        ( Some oc,
          fun install ->
            install (fun r ->
                output_string oc
                  (Obs.Json.to_string (Engine.Flight_recorder.to_json r));
                output_char oc '\n';
                flush oc) )
    in
    let trace, write_trace = trace_of trace_out in
    let requests = ref 0 in
    (* SIGTERM/SIGINT may be delivered on any domain. Only the main domain
       may unwind the serve loop by raising (interrupting the blocked
       [input_line]); a worker domain just records the request, which the
       main domain converts into a raise after the in-flight request. *)
    let drain_pending = Atomic.make 0 in
    let main_domain = Domain.self () in
    let install_signals () =
      let handler signum =
        if Domain.self () = main_domain then raise (Drain_signal signum)
        else Atomic.set drain_pending signum
      in
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle handler))
        [ Sys.sigterm; Sys.sigint ]
    in
    let on_request publish () =
      (match Atomic.get drain_pending with
       | 0 -> ()
       | signum -> raise (Drain_signal signum));
      incr requests;
      match snapshot_every with
      | Some n when !requests mod n = 0 ->
        publish ();
        Obs.emit_snapshot obs
      | _ -> ()
    in
    let drained = ref None in
    let journal = ref None in
    (* One transport switch for every mode: without --port the classic
       stdin/stdout line protocol, with it the framed TCP loop. The TCP
       server makes a session per connection; stdin is one session. *)
    let run_transport ~make_session publish =
      install_signals ();
      match port with
      | None ->
        let server, extra = make_session () in
        (try
           Engine.Serve.run ~on_request:(on_request publish) ~max_batch ~extra
             server stdin stdout
         with Drain_signal signum -> drained := Some signum)
      | Some p ->
        let srv =
          ok_or_raise
            (Net.Server.create
               {
                 Net.Server.host;
                 port = p;
                 max_connections = max_conns;
                 idle_timeout_s;
                 max_frame_bytes = max_frame;
               })
        in
        (* The smoke scripts grep this line for the ephemeral port. *)
        Format.eprintf "xseed serve: listening on %s:%d@." host
          (Net.Server.port srv);
        (try
           Net.Server.run ~on_request:(on_request publish) ~max_batch srv
             ~make_session ()
         with Drain_signal signum -> drained := Some signum)
    in
    let no_extra _ _ = None in
    (* Journal startup ([Journal.resume]: recover, replay, reopen), then
       append from here on: the returned vtable journals every feedback it
       applies. *)
    let journal_wrap base_server =
      match journal_path with
      | None -> base_server
      | Some path ->
        let scan, failed, w =
          ok_or_raise (Engine.Journal.resume ~fsync path base_server)
        in
        (match scan.Engine.Journal.tail with
         | Engine.Journal.Clean -> ()
         | Engine.Journal.Torn off ->
           Format.eprintf
             "xseed serve: journal %s: torn tail at byte %d (crash \
              residue); truncated to %d bytes@."
             path off scan.Engine.Journal.valid_bytes
         | Engine.Journal.Corrupt off ->
           Format.eprintf
             "xseed serve: journal %s: corrupt frame at byte %d; \
              truncated to %d bytes@."
             path off scan.Engine.Journal.valid_bytes);
        if scan.Engine.Journal.frames > 0 then
          Format.eprintf
            "xseed serve: journal %s: replayed %d feedback entries%s@."
            path scan.Engine.Journal.frames
            (if failed = 0 then ""
             else Printf.sprintf " (%d failed to apply)" failed);
        journal := Some w;
        Engine.Journal.wrap_server w base_server
    in
    (match manifest with
     | Some manifest_path ->
       let reg =
         Engine.Registry.create ?memory_budget ?het_budget ~qerror_threshold
           ~cache_capacity ~drift_p90_threshold:drift_p90 ?journal_dir
           ~journal_fsync:fsync ~audit_rate ?audit_seed ~audit_feedback ()
       in
       let n = ok_or_raise (Engine.Registry.load_manifest reg manifest_path) in
       Format.eprintf
         "xseed serve: registry: %d tenant%s from %s%s; clients select one \
          with USE <tenant>@."
         n
         (if n = 1 then "" else "s")
         manifest_path
         (match memory_budget with
          | None -> ""
          | Some b -> Printf.sprintf " under a %d-byte budget" b);
       Fun.protect
         ~finally:(fun () -> Engine.Registry.close reg)
         (fun () ->
           run_transport
             ~make_session:(fun () ->
               let s = Engine.Registry.session reg in
               (Engine.Registry.server s, Engine.Registry.extra s))
             (fun () -> ()))
     | None ->
       let synopsis_file = Option.get synopsis_file in
       let syn = load_synopsis synopsis_file in
       let estimator = estimator_of ~obs:(pipeline_obs obs) ~threshold syn in
       Format.eprintf "xseed serve: %s loaded (%d worker%s)@." synopsis_file
         workers
         (if workers = 1 then "" else "s");
       (* The shadow auditor loads its own private estimator from the
          synopsis file on the audit domain, so it never shares mutable
          state with the serving estimator. *)
       let auditor =
         match audit_doc with
         | Some doc when audit_rate > 0.0 ->
           Format.eprintf
             "xseed serve: shadow audit armed: rate %g against %s%s@."
             audit_rate doc
             (if audit_feedback then " (feedback enabled)" else "");
           Some
             (Engine.Auditor.create ?seed:audit_seed ~feedback:audit_feedback
                ?trace ~rate:audit_rate
                (Engine.Auditor.Paths { synopsis = synopsis_file; doc }))
         | _ -> None
       in
       let pool =
         Engine.Pool.create ~workers ~qerror_threshold ~cache_capacity
           ~drift_p90_threshold:drift_p90 ?trace ?deadline_s ?auditor
           estimator
       in
       set_on_record (Engine.Pool.set_on_record pool);
       (* The snapshot hook mirrors the pool's METRICS view (serving
          totals and every pipeline counter) into the CLI registry. *)
       let publish () = Engine.Pool.publish_telemetry pool obs in
       (* Every session — stdin, or each TCP connection — shares the one
          vtable. *)
       let server = journal_wrap (Engine.Pool.server pool) in
       Fun.protect
         ~finally:(fun () ->
           (* Let in-flight audits finish and fold them into the final
              telemetry before the pool stops. *)
           (match auditor with
            | None -> ()
            | Some a ->
              ignore (Engine.Auditor.settle a : bool);
              Engine.Pool.drain_audits pool);
           Engine.Pool.shutdown pool;
           Option.iter Engine.Auditor.shutdown auditor;
           publish ())
         (fun () ->
           run_transport
             ~make_session:(fun () -> (server, no_extra))
             publish));
    (* Drain ordering (DESIGN.md §13): admission already stopped (the serve
       loop has exited) and in-flight work drained (Pool.shutdown above);
       now flush durable state — trace, journal, telemetry, metrics. *)
    write_trace ();
    (match !journal with Some w -> Engine.Journal.close w | None -> ());
    Option.iter close_out telemetry_oc;
    finish_obs (Some obs);
    match !drained with
    | None -> ()
    | Some signum ->
      (* Fall through to the normal exit path: a drained stop is exit 0. *)
      Format.eprintf
        "xseed serve: received %s; drained in-flight work and flushed \
         state@."
        (if signum = Sys.sigterm then "SIGTERM" else "SIGINT")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve estimates on a stdin/stdout line protocol (default) or \
             over TCP with --port (framed, CRC-checked, HELLO handshake; \
             drive it with 'xseed client'): ESTIMATE <query>, BATCH <n> \
             (then n query lines), FEEDBACK <query> <actual>, EXPLAIN \
             <query>, STATS, METRICS (Prometheus text), RECENT [n] (flight \
             records), DRIFT (sliding-window accuracy), AUDIT (shadow-audit \
             true q-error window and worst-step attribution; armed by \
             --audit-rate with --audit-doc or manifest doc= fields), PING, \
             VERSION. One \
             positional SYNOPSIS serves a single synopsis (--workers N \
             spreads estimates across N domains sharing it); --manifest \
             serves a registry of named synopses with USE <tenant> \
             selection, LRU paging under --memory-budget, and per-tenant \
             journals under --journal-dir. Failure handling: --deadline-ms \
             bounds each request (ERR timeout), --max-batch, --max-conns \
             and --max-frame bound what clients may send, --journal makes \
             feedback crash-safe, and SIGTERM/SIGINT drain in-flight work \
             then exit 0")
    Term.(const run $ serve_synopsis_arg $ override_threshold_arg
          $ qerror_threshold_arg $ cache_capacity_arg $ telemetry_out_arg
          $ snapshot_every_arg $ drift_p90_arg $ workers_arg $ deadline_ms_arg
          $ max_batch_arg $ journal_arg $ journal_fsync_arg $ trace_out_arg
          $ port_arg $ host_arg $ max_conns_arg $ idle_timeout_ms_arg
          $ max_frame_arg $ manifest_arg $ memory_budget_arg $ het_budget_arg
          $ journal_dir_arg $ audit_rate_arg $ audit_seed_arg
          $ audit_feedback_arg $ audit_doc_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* Offline shadow audit: replay a workload against synopsis + document,
   emitting the same per-query attribution records the serving auditor
   writes to the flight ring, then a summary whose "window" object is
   rendered by the same code path as the AUDIT verb's — so a served
   session and this report agree to float equality. *)

let audit_cmd =
  let audit_doc_pos_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"DOC"
             ~doc:"Source XML document (the ground truth)")
  in
  let workload_pos_arg =
    Arg.(required & pos 2 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Workload file, one XPath query per line ('#' comments \
                   and blank lines ignored)")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Write the JSON-lines attribution report to $(docv) \
                   (default stdout)")
  in
  let rate_arg =
    Arg.(value & opt float 1.0
         & info [ "rate" ] ~docv:"RATE"
             ~doc:"Sample rate within [0, 1], over the same deterministic \
                   hash stream 'serve --audit-rate' uses; default 1.0 \
                   audits every query")
  in
  let seed_arg =
    Arg.(value & opt int 0x5eed
         & info [ "seed" ] ~docv:"N"
             ~doc:"Sampler seed; match the server's --audit-seed for the \
                   sampled subsets to coincide")
  in
  let run synopsis_file doc workload out rate seed threshold =
    protect @@ fun () ->
    if Float.is_nan rate || rate < 0.0 || rate > 1.0 then
      Core.Error.raisef Core.Error.Malformed_query
        "--rate must be within [0, 1]";
    let syn = load_synopsis synopsis_file in
    let estimator = estimator_of ~threshold syn in
    let ept = lazy (Core.Estimator.ept estimator) in
    let storage = Nok.Storage.of_string ~with_values:true (read_file doc) in
    let workload_text = read_file workload in
    let oc, close =
      match out with
      | None -> (stdout, fun () -> flush stdout)
      | Some path ->
        (try
           let oc = open_out path in
           (oc, fun () -> close_out oc)
         with Sys_error msg ->
           Core.Error.raisef Core.Error.Io_error "--out: %s" msg)
    in
    Fun.protect ~finally:close @@ fun () ->
    let emit json =
      output_string oc (Obs.Json.to_string json);
      output_char oc '\n'
    in
    let seen = ref 0
    and skipped = ref 0
    and failed = ref 0
    and qerrors = ref [] in
    String.split_on_char '\n' workload_text
    |> List.iter (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then ()
           else begin
             incr seen;
             let audit_line () =
               match Xpath.Parser.parse_result line with
               | Error { Xpath.Parser.position; message } ->
                 Error
                   (Printf.sprintf "parse error at %d: %s" position message)
               | Ok ast ->
                 let ast, key = Engine.Canonical.normal_form ast in
                 if not (Engine.Auditor.in_sample ~seed ~rate
                           key.Engine.Canonical.hash)
                 then Ok None
                 else
                   (match
                      Core.Estimator.estimate_result_on estimator ept ast
                    with
                    | Error e -> Error (Core.Error.to_string e)
                    | Ok o ->
                      (match
                         Engine.Auditor.audit_one ~estimator ~ept ~storage
                           ~estimate:o.Core.Estimator.value ast
                       with
                       | Error msg -> Error msg
                       | Ok a -> Ok (Some a)))
             in
             match audit_line () with
             | Ok None -> incr skipped
             | Ok (Some a) ->
               qerrors := a.Engine.Auditor.qerror :: !qerrors;
               emit (Engine.Auditor.audited_json a)
             | Error msg ->
               incr failed;
               emit
                 (Obs.Json.Obj
                    [ ("query", Obs.Json.String line);
                      ("error", Obs.Json.String msg) ])
           end);
    let qs = Array.of_list (List.rev !qerrors) in
    emit
      (Obs.Json.Obj
         [ ("summary", Obs.Json.Bool true);
           ("rate", Obs.Json.Float rate);
           ("queries", Obs.Json.Int !seen);
           ("audited", Obs.Json.Int (Array.length qs));
           ("skipped", Obs.Json.Int !skipped);
           ("errors", Obs.Json.Int !failed);
           ("window", Engine.Auditor.window_json qs) ]);
    if !failed > 0 then
      Format.eprintf "xseed audit: %d quer%s failed (see the report)@."
        !failed
        (if !failed = 1 then "y" else "ies")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Offline shadow audit: estimate every (sampled) workload query \
             from the synopsis, evaluate it exactly against the source \
             document, and report per-query true q-error with per-step \
             error attribution as JSON-lines, then one summary line whose \
             window percentiles are rendered exactly as the serve \
             protocol's AUDIT verb renders its own")
    Term.(const run $ synopsis_arg $ audit_doc_pos_arg $ workload_pos_arg
          $ out_arg $ rate_arg $ seed_arg $ override_threshold_arg)

(* A line-protocol shell over the TCP transport: stdin lines become request
   frames (BATCH pulls its payload lines into the same frame), response
   payloads print to stdout. What the tests and smokes drive. *)
let client_cmd =
  let client_port_arg =
    Arg.(required & opt (some int) None
         & info [ "port" ] ~docv:"PORT"
             ~doc:"Port of a running 'xseed serve --port'")
  in
  let run host port =
    protect @@ fun () ->
    let c = ok_or_raise (Net.Client.connect ~host ~port ()) in
    Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
    Format.eprintf "xseed client: connected: %s@." (Net.Client.greeting c);
    let read_line () = try Some (input_line stdin) with End_of_file -> None in
    let rec loop () =
      match read_line () with
      | None -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
        let payload =
          (* BATCH n frames its n payload lines with the request — the
             frame is the unit of transport. *)
          let batch_count =
            let line = String.trim line in
            if String.starts_with ~prefix:"BATCH " line then
              int_of_string_opt
                (String.trim (String.sub line 6 (String.length line - 6)))
            else None
          in
          match batch_count with
          | Some n when n >= 0 && n <= 1_000_000 ->
            let extra = List.filter_map (fun _ -> read_line ()) (List.init n Fun.id) in
            String.concat "\n" (line :: extra)
          | _ -> line
        in
        (match Net.Client.request c payload with
         | Ok response ->
           print_endline response;
           flush stdout
         | Error e -> raise (Core.Error.Xseed e));
        loop ()
    in
    loop ()
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to 'xseed serve --port' and speak the line protocol \
             from stdin: each line (with a BATCH's payload lines attached) \
             is sent as one frame, each response payload printed to \
             stdout. Exits 74 when the connection drops mid-frame")
    Term.(const run $ host_arg $ client_port_arg)

(* Replay: drive a workload through estimate -> execute -> feedback rounds
   against an initially empty HET, reporting accuracy per round. This is the
   paper's query-feedback scenario (Figure 1) end to end: the synopsis
   starts as kernel-only and earns its HET from the workload itself. *)
let replay_cmd =
  let workload_arg =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"WORKLOAD"
             ~doc:"Query file, one XPath expression per line ('#' comments)")
  in
  let rounds_arg =
    Arg.(value & opt int 3
         & info [ "rounds" ] ~docv:"R" ~doc:"Feedback rounds to run")
  in
  let assert_improving_arg =
    Arg.(value & flag
         & info [ "assert-improving" ]
             ~doc:"Exit 1 unless the per-round q-error median never \
                   increases")
  in
  let run file workload_file rounds budget threshold qerror_threshold
      cache_capacity assert_improving trace_out obs_spec =
    protect @@ fun () ->
    if rounds < 1 then
      Core.Error.raisef Core.Error.Malformed_query "--rounds must be >= 1";
    let obs = obs_of obs_spec in
    let trace, write_trace = trace_of trace_out in
    let doc = read_file file in
    let queries =
      read_file workload_file |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             let line = String.trim line in
             if line = "" || line.[0] = '#' then None
             else
               match Xpath.Parser.parse_result line with
               | Ok q -> Some q
               | Result.Error { position; message } ->
                 raise
                   (Core.Error.Xseed
                      (Core.Error.make ~position Core.Error.Malformed_query
                         (Printf.sprintf "%s: %s" line message))))
    in
    if queries = [] then
      Core.Error.raisef Core.Error.Malformed_query "empty workload: %s"
        workload_file;
    let kernel = Core.Builder.of_string ?obs doc in
    let het = Core.Het.create () in
    Option.iter (fun bytes -> Core.Het.set_budget het ~bytes) budget;
    let estimator =
      Core.Estimator.create
        ~card_threshold:(Option.value threshold ~default:0.5)
        ~het ?obs:(Option.map pipeline_obs obs) kernel
    in
    let pool =
      Engine.Pool.create ~workers:1 ~qerror_threshold ~cache_capacity ?trace
        estimator
    in
    Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
    let storage = Nok.Storage.of_string ~with_values:true doc in
    let actuals =
      List.map (fun q -> Nok.Eval.cardinality storage q) queries
    in
    let texts = List.map Xpath.Ast.to_string queries in
    let estimate_of q =
      match Engine.Pool.estimate pool q with
      | Ok r -> r.Engine.Serve.value
      | Error e -> raise (Core.Error.Xseed e)
    in
    let medians = ref [] in
    for round = 1 to rounds do
      Obs.span ?obs "replay.round" (fun () ->
          let pairs =
            List.map2
              (fun q a -> (estimate_of q, float_of_int a))
              texts actuals
          in
          let s = Stats.Metrics.summarize pairs in
          medians := s.Stats.Metrics.q_error_median :: !medians;
          List.iter2
            (fun q actual ->
              match Engine.Pool.feedback pool q ~actual with
              | Ok _ -> ()
              | Error e -> raise (Core.Error.Xseed e))
            texts actuals;
          let c = Engine.Pool.cache_counters pool in
          Format.printf
            "round %d  queries %d  q-error median %.3f p90 %.3f max %.3f  \
             cache %d hits / %d misses  HET %d active (%d B)  refinements %d@."
            round s.Stats.Metrics.count s.Stats.Metrics.q_error_median
            s.Stats.Metrics.q_error_p90 s.Stats.Metrics.q_error_max
            c.Engine.Lru_cache.hits c.Engine.Lru_cache.misses
            (Core.Het.active_count het)
            (Core.Het.size_in_bytes het)
            (Engine.Pool.feedback_rounds pool);
          match Engine.Pool.drift pool with
          | None -> ()
          | Some d ->
            Format.printf
              "         drift window  %d obs / %d estimates  hit-rate %.2f  \
               q-error p50 %.3f p90 %.3f max %.3f  alerts %d%s@."
              (Engine.Drift.window_count d)
              (Engine.Drift.window_estimates d)
              (Engine.Drift.hit_rate d) (Engine.Drift.median d)
              (Engine.Drift.p90 d)
              (Engine.Drift.max_qerror d)
              (Engine.Drift.alerts d)
              (if Engine.Drift.alerting d then "  [ALERTING]" else ""))
    done;
    Option.iter (Engine.Pool.publish_telemetry pool) obs;
    write_trace ();
    finish_obs obs;
    let medians = List.rev !medians in
    let monotone =
      let rec check = function
        | a :: (b :: _ as rest) -> b <= a +. 1e-9 && check rest
        | _ -> true
      in
      check medians
    in
    if assert_improving && not monotone then begin
      Format.eprintf
        "xseed replay: q-error median increased across rounds: %s@."
        (String.concat " -> "
           (List.map (Printf.sprintf "%.3f") medians));
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a workload through estimate/execute/feedback rounds: the \
             HET starts empty and is populated purely from query feedback, \
             reporting q-error per round")
    Term.(const run $ file_arg $ workload_arg $ rounds_arg $ budget_arg
          $ override_threshold_arg $ qerror_threshold_arg $ cache_capacity_arg
          $ assert_improving_arg $ trace_out_arg $ obs_term)

(* Validate a trace file with the exporter's own linter — the check `make
   trace-smoke` (and CI) runs against every trace the serve path emits. *)
let trace_lint_cmd =
  let trace_file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"TRACE"
             ~doc:"Trace file written by --trace-out (Chrome trace-event \
                   JSON)")
  in
  let run path =
    protect @@ fun () ->
    let contents = read_file path in
    let json =
      try Obs.Json.of_string contents
      with Invalid_argument msg ->
        Core.Error.raisef Core.Error.Malformed_query "%s: not valid JSON (%s)"
          path msg
    in
    match Obs.Trace.lint json with
    | [] ->
      Format.printf "%s: ok@." path
    | problems ->
      List.iter (fun p -> Format.eprintf "%s: %s@." path p) problems;
      exit 65
  in
  Cmd.v
    (Cmd.info "trace-lint"
       ~doc:"Validate a --trace-out file: well-formed trace-event JSON, \
             per-track timestamps non-decreasing, B/E slices matched, flow \
             and async ids resolved. Exits 0 when clean, 65 when the trace \
             is structurally invalid, 66 when the file is missing")
    Term.(const run $ trace_file_arg)

(* Lint a feedback journal: decode every frame (checking CRCs), print the
   entries as JSON-lines, and classify the tail. Exit codes follow the
   sysexits contract: 0 for a clean journal OR a torn tail (expected crash
   residue the serving path recovers silently), 74 for mid-file corruption
   (a fully-present frame failing CRC or parse — data after it is lost),
   65 when the file is not a journal at all, 66 when it is missing. *)
let journal_dump_cmd =
  let journal_file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOURNAL"
             ~doc:"Feedback journal written by 'xseed serve --journal'")
  in
  let run path =
    protect @@ fun () ->
    let scan = ok_or_raise (Engine.Journal.scan_file path) in
    List.iter
      (fun (e : Engine.Journal.entry) ->
        print_endline
          (Obs.Json.to_string
             (Obs.Json.Obj
                [ ("query", Obs.Json.String e.Engine.Journal.query);
                  ("actual", Obs.Json.Int e.Engine.Journal.actual) ])))
      scan.Engine.Journal.entries;
    match scan.Engine.Journal.tail with
    | Engine.Journal.Clean ->
      Format.eprintf "%s: %d frames, %d bytes, clean tail@." path
        scan.Engine.Journal.frames scan.Engine.Journal.valid_bytes
    | Engine.Journal.Torn off ->
      Format.eprintf
        "%s: %d frames, torn tail at byte %d (crash residue; recoverable \
         by truncating to %d bytes)@."
        path scan.Engine.Journal.frames off scan.Engine.Journal.valid_bytes
    | Engine.Journal.Corrupt off ->
      Format.eprintf
        "%s: %d frames, corrupt frame at byte %d (CRC or parse failure); \
         frames after byte %d are lost@."
        path scan.Engine.Journal.frames off scan.Engine.Journal.valid_bytes;
      exit 74
  in
  Cmd.v
    (Cmd.info "journal-dump"
       ~doc:"Decode a feedback journal: print one JSON object per valid \
             frame to stdout and a tail summary to stderr. Exits 0 when the \
             journal is clean or carries only a torn tail (crash residue), \
             74 on mid-file corruption, 65 when the file is not a journal, \
             66 when it is missing")
    Term.(const run $ journal_file_arg)

let () =
  let doc = "XSEED: accurate and fast cardinality estimation for XPath queries" in
  let info = Cmd.info "xseed" ~version:Engine.Serve.version ~doc in
  let code =
    Cmd.eval
      (Cmd.group info
         [ stats_cmd; build_cmd; estimate_cmd; explain_cmd; evaluate_cmd;
           ept_cmd; generate_cmd; workload_cmd; compare_cmd; serve_cmd;
           audit_cmd; client_cmd; replay_cmd; trace_lint_cmd;
           journal_dump_cmd ])
  in
  (* Remap cmdliner's reserved codes onto the sysexits contract documented
     in the README: 64 for a command-line usage error, 70 for anything the
     term-evaluation layer classified as internal. *)
  exit
    (if code = Cmd.Exit.cli_error then 64
     else if code = Cmd.Exit.internal_error then 70
     else code)
