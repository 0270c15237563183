(* Observability layer: counter/histogram/span semantics, sink behavior,
   JSON round-trips, and the per-query explain report on the paper's
   Figure 2 example document. *)

let json = Alcotest.testable (Fmt.of_to_string Obs.Json.to_string) Obs.Json.equal

(* ------------------------------------------------------------------ *)
(* Counters and histograms *)

let test_counters () =
  let obs = Obs.create () in
  let c = Obs.counter obs "x" in
  Alcotest.(check int) "fresh counter" 0 (Obs.value c);
  Obs.incr c;
  Obs.add c 5;
  Alcotest.(check int) "incr + add" 6 (Obs.value c);
  Obs.set_max c 3;
  Alcotest.(check int) "set_max ignores smaller" 6 (Obs.value c);
  Obs.set_max c 10;
  Alcotest.(check int) "set_max raises" 10 (Obs.value c);
  let c' = Obs.counter obs "x" in
  Obs.incr c';
  Alcotest.(check int) "same name, same counter" 11 (Obs.value c);
  Obs.reset obs;
  Alcotest.(check int) "reset zeroes" 0 (Obs.value c)

(* High-water marks merge by max, totals by sum, whichever input order;
   a mirror keeps the merge kind. *)
let test_merge_high_water () =
  let shard peak total =
    let obs = Obs.create () in
    Obs.max_to ~obs "peak" peak;
    Obs.add_to ~obs "total" total;
    obs
  in
  let a = shard 7 3 and b = shard 5 4 in
  List.iter
    (fun inputs ->
      let m = Obs.merged inputs in
      Alcotest.(check int) "peak is the max" 7 (Obs.value (Obs.counter m "peak"));
      Alcotest.(check int) "total is the sum" 7
        (Obs.value (Obs.counter m "total")))
    [ [ a; b ]; [ b; a ]; [ Obs.create (); b; a ] ];
  let mirror = Obs.create () in
  Obs.mirror ~into:mirror (Obs.merged [ a; b ]);
  let m = Obs.merged [ mirror; shard 6 1 ] in
  Alcotest.(check int) "mirrored peak still merges by max" 7
    (Obs.value (Obs.counter m "peak"));
  Alcotest.(check int) "mirrored total still sums" 8
    (Obs.value (Obs.counter m "total"))

let test_optional_helpers () =
  (* Without a context these are no-ops and must not raise. *)
  Obs.add_to "a" 1;
  Obs.max_to "b" 2;
  Obs.observe "c" 3.0;
  let obs = Obs.create () in
  Obs.add_to ~obs "a" 4;
  Obs.max_to ~obs "b" 7;
  Obs.observe ~obs "c" 2.5;
  Alcotest.(check int) "add_to" 4 (Obs.value (Obs.counter obs "a"));
  Alcotest.(check int) "max_to" 7 (Obs.value (Obs.counter obs "b"));
  Alcotest.(check int) "observe count" 1 (Obs.hcount (Obs.histogram obs "c"))

let test_histogram () =
  let obs = Obs.create () in
  let h = Obs.histogram obs "lat" in
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Obs.hpercentile h 0.5));
  List.iter (Obs.hobserve h) [ 1.0; 2.0; 4.0; 8.0; 100.0 ];
  Alcotest.(check int) "count" 5 (Obs.hcount h);
  Alcotest.(check (float 1e-9)) "sum" 115.0 (Obs.hsum h);
  Alcotest.(check (float 1e-9)) "mean" 23.0 (Obs.hmean h);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Obs.hmax h);
  let p50 = Obs.hpercentile h 0.5 in
  let p99 = Obs.hpercentile h 0.99 in
  Alcotest.(check bool) "p50 in sample range" true (p50 >= 1.0 && p50 <= 100.0);
  Alcotest.(check bool) "percentiles monotone" true (p50 <= p99);
  Alcotest.(check bool) "p99 clamped to max" true (p99 <= 100.0 +. 1e-9)

let test_gauges () =
  let obs = Obs.create () in
  let g = Obs.gauge obs "occupancy" in
  Alcotest.(check (float 0.0)) "fresh gauge" 0.0 (Obs.gvalue g);
  Obs.gset g 7.5;
  Alcotest.(check (float 0.0)) "gset" 7.5 (Obs.gvalue g);
  Obs.gset g 2.0;
  Alcotest.(check (float 0.0)) "gauges go down" 2.0 (Obs.gvalue g);
  Obs.set_to "no-context" 1.0;
  Obs.set_to ~obs "occupancy" 9.0;
  Alcotest.(check (float 0.0)) "set_to hits the same gauge" 9.0 (Obs.gvalue g);
  Obs.reset obs;
  Alcotest.(check (float 0.0)) "reset zeroes gauges" 0.0 (Obs.gvalue g)

let test_labels () =
  let obs = Obs.create () in
  let a = Obs.counter_with obs "req" [ ("ds", "dblp"); ("kind", "sp") ] in
  (* Label order must not matter: same series, same handle state. *)
  let a' = Obs.counter_with obs "req" [ ("kind", "sp"); ("ds", "dblp") ] in
  let b = Obs.counter_with obs "req" [ ("ds", "xmark"); ("kind", "sp") ] in
  Obs.add a 3;
  Obs.incr a';
  Obs.incr b;
  Alcotest.(check int) "order-insensitive identity" 4 (Obs.value a);
  Alcotest.(check int) "distinct labels, distinct series" 1 (Obs.value b);
  (* Unlabeled and labeled spellings of one family coexist. *)
  Obs.incr (Obs.counter obs "req");
  let snap = Obs.snapshot obs in
  Alcotest.(check (option json)) "labeled snapshot key"
    (Some (Obs.Json.Int 4))
    (Obs.Json.member "req{ds=\"dblp\",kind=\"sp\"}" snap);
  Alcotest.(check (option json)) "unlabeled snapshot key"
    (Some (Obs.Json.Int 1))
    (Obs.Json.member "req" snap);
  (* A name can hold only one metric kind. *)
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Obs.gauge: req is a counter") (fun () ->
      ignore (Obs.gauge obs "req"))

let test_window () =
  Alcotest.check_raises "slots >= 1"
    (Invalid_argument "Obs.Window.create: slots 0 < 1") (fun () ->
      ignore (Obs.Window.create ~slots:0 ()));
  let w = Obs.Window.create ~slots:2 () in
  Alcotest.(check bool) "empty percentile nan" true
    (Float.is_nan (Obs.Window.percentile w 0.5));
  (* Fill slot 0 with large values, then rotate past them with small ones:
     the window must forget the old slot entirely. *)
  List.iter (Obs.Window.observe w) [ 100.0; 100.0; 100.0 ];
  Alcotest.(check (float 1e-9)) "max before expiry" 100.0 (Obs.Window.max w);
  Obs.Window.rotate w;
  List.iter (Obs.Window.observe w) [ 2.0; 2.0; 2.0 ];
  (* Rotating back onto the 100s' slot clears it for the 4th small one. *)
  Obs.Window.rotate w;
  Obs.Window.observe w 2.0;
  Alcotest.(check int) "window count after expiry" 4 (Obs.Window.count w);
  Alcotest.(check (float 1e-9)) "expired max gone" 2.0 (Obs.Window.max w);
  Alcotest.(check bool) "p90 within live range" true
    (Obs.Window.percentile w 0.9 <= 2.0 +. 1e-9);
  Obs.Window.rotate w;
  Obs.Window.rotate w;
  Alcotest.(check int) "explicit rotation empties" 0 (Obs.Window.count w);
  Alcotest.(check bool) "empty again" true (Float.is_nan (Obs.Window.max w))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition *)

(* Shared lint: structural validity of a text-format 0.0.4 payload. *)
let valid_metric_name name =
  name <> ""
  && (match name.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
      | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let count_occurrences ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i acc =
    if i + nl > hl then acc
    else if String.sub haystack i nl = needle then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  if nl = 0 then 0 else go 0 0

let prometheus_lint text =
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' text)
  in
  let seen_samples = Hashtbl.create 64 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: kw :: name :: _rest when kw = "HELP" || kw = "TYPE" ->
          if not (valid_metric_name name) then
            Alcotest.failf "bad metric name in %S" line;
          if kw = "TYPE" then Hashtbl.replace typed name ()
        | _ -> Alcotest.failf "malformed comment line %S" line
      end
      else begin
        (* <name>[{labels}] <value> *)
        let sample =
          match String.index_opt line ' ' with
          | None -> Alcotest.failf "sample without value %S" line
          | Some i -> String.sub line 0 i
        in
        let name =
          match String.index_opt sample '{' with
          | None -> sample
          | Some i ->
            if sample.[String.length sample - 1] <> '}' then
              Alcotest.failf "unterminated label set %S" line;
            String.sub sample 0 i
        in
        if not (valid_metric_name name) then
          Alcotest.failf "bad sample name %S" line;
        if Hashtbl.mem seen_samples sample then
          Alcotest.failf "duplicate sample %S" sample;
        Hashtbl.add seen_samples sample ();
        (* Every sample's family must have a TYPE line; histogram series
           carry their family name minus the _bucket/_sum/_count suffix. *)
        let strip suffix n =
          if Filename.check_suffix n suffix then
            Filename.chop_suffix n suffix
          else n
        in
        let family =
          strip "_bucket" (strip "_sum" (strip "_count" name))
        in
        if not (Hashtbl.mem typed name || Hashtbl.mem typed family) then
          Alcotest.failf "sample %S has no TYPE line" name
      end)
    lines;
  Alcotest.(check bool) "payload nonempty" true (lines <> [])

let test_prometheus_render () =
  let obs = Obs.create () in
  Obs.add (Obs.counter obs "engine.cache.hits") 12;
  Obs.incr (Obs.counter_with obs "req" [ ("ds", "dblp") ]);
  Obs.incr (Obs.counter_with obs "req" [ ("ds", "x\"m\\ark\n") ]);
  Obs.gset (Obs.gauge obs "drift.p90") Float.nan;
  Obs.gset (Obs.gauge obs "cache.size") 3.0;
  List.iter (Obs.hobserve (Obs.histogram obs "lat.us")) [ 0.5; 3.0; 700.0 ];
  let text = Obs.prometheus ~prefix:"xseed_" obs in
  prometheus_lint text;
  let has s = contains ~needle:s text in
  Alcotest.(check bool) "dotted name sanitized+prefixed" true
    (has "xseed_engine_cache_hits 12");
  Alcotest.(check bool) "HELP keeps the dotted name" true
    (has "# HELP xseed_engine_cache_hits engine.cache.hits");
  Alcotest.(check bool) "counter TYPE" true
    (has "# TYPE xseed_engine_cache_hits counter");
  Alcotest.(check bool) "gauge TYPE" true (has "# TYPE xseed_cache_size gauge");
  Alcotest.(check bool) "nan gauge spelling" true (has "xseed_drift_p90 NaN");
  Alcotest.(check bool) "labeled sample" true
    (has "xseed_req{ds=\"dblp\"} 1");
  Alcotest.(check bool) "label value escaped" true
    (has "xseed_req{ds=\"x\\\"m\\\\ark\\n\"} 1");
  Alcotest.(check bool) "histogram TYPE" true
    (has "# TYPE xseed_lat_us histogram");
  Alcotest.(check bool) "cumulative le=1 bucket" true
    (has "xseed_lat_us_bucket{le=\"1\"} 1");
  Alcotest.(check bool) "+Inf bucket closes" true
    (has "xseed_lat_us_bucket{le=\"+Inf\"} 3");
  Alcotest.(check bool) "histogram count" true (has "xseed_lat_us_count 3");
  (* One HELP/TYPE pair per family even with several series. *)
  Alcotest.(check int) "one TYPE line for the req family" 1
    (count_occurrences ~needle:"# TYPE xseed_req counter" text)

(* Property: whatever lands in a registry, the snapshot re-parses — the
   null-for-non-finite convention keeps the emitted text valid JSON. *)
let prop_snapshot_reparses =
  QCheck.Test.make ~count:200 ~name:"snapshot always re-parses"
    QCheck.(
      small_list
        (triple (oneofl [ "m.a"; "b"; "c{d}"; "weird name!" ])
           (oneofl [ `C; `G; `H ])
           (oneofl [ 0.0; 1.5; -3.0; Float.nan; Float.infinity; 1e308 ])))
    (fun ops ->
      let obs = Obs.create () in
      List.iter
        (fun (name, kind, v) ->
          (* Avoid kind clashes: one namespace per kind. *)
          match kind with
          | `C -> Obs.add_to ~obs ("c." ^ name) (int_of_float (Float.min 1e6 (Float.abs v)))
          | `G -> Obs.set_to ~obs ("g." ^ name) v
          | `H -> Obs.observe ~obs ("h." ^ name) v)
        ops;
      let snap = Obs.snapshot obs in
      Obs.Json.equal snap (Obs.Json.of_string (Obs.Json.to_string snap)))

(* ------------------------------------------------------------------ *)
(* Spans and sinks *)

let test_monotonic_clock () =
  (* now_mono never goes backwards, and span durations measured with it are
     non-negative even if the wall clock were stepped mid-span. *)
  let a = Obs.now_mono () in
  let b = Obs.now_mono () in
  Alcotest.(check bool) "now_mono monotone" true (b >= a);
  Alcotest.(check bool) "now_mono positive" true (a > 0.0);
  let obs = Obs.create () in
  ignore (Obs.span ~obs "stage" (fun () -> Sys.opaque_identity 1) : int);
  Alcotest.(check bool) "wall clock still available" true (Obs.now () > 0.0)

let test_sink_multi_domain () =
  (* Four domains run nested spans against one Jsonl-sink context at once:
     the span depth is an atomic, so this must neither crash nor wedge, and
     every span must emit its begin/end pair. *)
  let path = Filename.temp_file "obs_domains" ".jsonl" in
  let obs = Obs.create ~sink:(Obs.jsonl_file path) () in
  let spans_per_domain = 50 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to spans_per_domain do
              ignore
                (Obs.span ~obs "outer" (fun () ->
                     Obs.span ~obs "inner" (fun () -> Sys.opaque_identity 1))
                  : int)
            done))
  in
  Array.iter Domain.join domains;
  Obs.close obs;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  let count event =
    List.length
      (List.filter
         (fun l ->
           match Obs.Json.member "event" (Obs.Json.of_string l) with
           | Some (Obs.Json.String e) -> e = event
           | _ -> false)
         lines)
  in
  let expected = 4 * spans_per_domain * 2 in
  Alcotest.(check int) "every span begin recorded" expected
    (count "span_begin");
  Alcotest.(check int) "every span end recorded" expected (count "span_end")

let test_span_noop () =
  let obs = Obs.create () in
  (* Noop sink: the body runs, the result flows through, no timing. *)
  let r = Obs.span ~obs "stage" (fun () -> 42) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check int) "no histogram under Noop" 0
    (Obs.hcount (Obs.histogram obs "stage.ms"));
  (* No context at all. *)
  Alcotest.(check int) "no obs" 7 (Obs.span "s" (fun () -> 7))

let test_span_timed () =
  let path = Filename.temp_file "obs_span" ".jsonl" in
  let obs = Obs.create ~sink:(Obs.jsonl_file path) () in
  let r = Obs.span ~obs "stage" (fun () -> Obs.span ~obs "inner" (fun () -> 1)) in
  Alcotest.(check int) "result" 1 r;
  Alcotest.(check int) "outer span timed" 1
    (Obs.hcount (Obs.histogram obs "stage.ms"));
  Alcotest.(check int) "inner span timed" 1
    (Obs.hcount (Obs.histogram obs "inner.ms"));
  (* An exception still produces the end event and propagates. *)
  (try Obs.span ~obs "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.close obs;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  let events =
    List.map
      (fun l ->
        match Obs.Json.member "event" (Obs.Json.of_string l) with
        | Some (Obs.Json.String e) -> e
        | _ -> Alcotest.fail ("line without event: " ^ l))
      lines
  in
  Alcotest.(check (list string)) "event sequence"
    [ "span_begin"; "span_begin"; "span_end"; "span_end"; "span_begin";
      "span_end" ]
    events

let test_jsonl_snapshot_roundtrip () =
  let path = Filename.temp_file "obs_snap" ".jsonl" in
  let obs = Obs.create ~sink:(Obs.jsonl_file path) () in
  Obs.add_to ~obs "k" 3;
  Obs.observe ~obs "h" 2.0;
  Obs.event ~obs "hello" ~fields:[ ("n", Obs.Json.Int 1) ];
  Obs.emit_snapshot obs;
  Obs.close obs;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  (* Every line parses back; the snapshot carries the counter. *)
  let parsed = List.map Obs.Json.of_string lines in
  Alcotest.(check int) "two lines" 2 (List.length parsed);
  let snap = List.nth parsed 1 in
  Alcotest.(check (option json)) "snapshot event name"
    (Some (Obs.Json.String "snapshot"))
    (Obs.Json.member "event" snap);
  Alcotest.(check (option json)) "counter in snapshot" (Some (Obs.Json.Int 3))
    (Obs.Json.member "k" snap)

(* ------------------------------------------------------------------ *)
(* JSON encode/parse *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [ ("s", Obs.Json.String "a\"b\\c\n\t\x01é");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 0.1);
        ("big", Obs.Json.Float 1.7976931348623157e308);
        ("t", Obs.Json.Bool true);
        ("z", Obs.Json.Null);
        ( "l",
          Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Obj []; Obs.Json.List [] ] ) ]
  in
  Alcotest.check json "round-trip" v (Obs.Json.of_string (Obs.Json.to_string v));
  (* Non-finite floats have no JSON spelling and become null. *)
  Alcotest.check json "nan -> null" Obs.Json.Null
    (Obs.Json.of_string (Obs.Json.to_string (Obs.Json.Float Float.nan)));
  Alcotest.(check bool) "object equality is order-insensitive" true
    (Obs.Json.equal
       (Obs.Json.Obj [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Int 2) ])
       (Obs.Json.Obj [ ("b", Obs.Json.Int 2); ("a", Obs.Json.Int 1) ]));
  Alcotest.check_raises "malformed input rejected"
    (Invalid_argument "Json.of_string: trailing input at 2") (fun () ->
      ignore (Obs.Json.of_string "{}x"))

(* ------------------------------------------------------------------ *)
(* Pipeline integration: counters flow out of a real build + estimate *)

let test_pipeline_counters () =
  let obs = Obs.create () in
  let syn = Core.Synopsis.build ~obs Datagen.Paper_example.document in
  let doc_stats = Xml.Doc_stats.of_string Datagen.Paper_example.document in
  Alcotest.(check int) "sax counted every element" doc_stats.node_count
    (Obs.value (Obs.counter obs "sax.elements"));
  Alcotest.(check int) "builder vertices match kernel"
    (Core.Kernel.vertex_count (Core.Synopsis.kernel syn))
    (Obs.value (Obs.counter obs "builder.vertices"));
  let est = Core.Synopsis.estimator syn in
  let before = Obs.value (Obs.counter obs "matcher.match_steps") in
  ignore (Core.Estimator.estimate_string est "/a/c/s" : float);
  Alcotest.(check bool) "estimate published matcher steps" true
    (Obs.value (Obs.counter obs "matcher.match_steps") > before);
  Alcotest.(check bool) "traveler emitted nodes" true
    (Obs.value (Obs.counter obs "traveler.opened") > 0)

(* A synopsis build parses its document once: one synopsis.parse span, none
   of the spans of the three parses it replaced, and every parse and
   construction counter holding what one lone pass publishes. *)
let test_build_spans () =
  let doc = Datagen.Xmark.generate ~seed:2 ~items:10 () in
  let path = Filename.temp_file "obs_build" ".jsonl" in
  let obs = Obs.create ~sink:(Obs.jsonl_file path) () in
  ignore
    (Core.Synopsis.build ~obs ~with_values:true ~mbp:2 ~bsel_threshold:0.5 doc
      : Core.Synopsis.t);
  Obs.close obs;
  let ic = open_in path in
  let lines = In_channel.input_lines ic in
  close_in ic;
  Sys.remove path;
  let begun =
    List.filter_map
      (fun l ->
        let j = Obs.Json.of_string l in
        match (Obs.Json.member "event" j, Obs.Json.member "name" j) with
        | Some (Obs.Json.String "span_begin"), Some (Obs.Json.String name) ->
          Some name
        | _ -> None)
      lines
  in
  Alcotest.(check (list string)) "spans begun"
    [ "synopsis.parse"; "synopsis.het_build"; "synopsis.value_build" ]
    begun;
  let value obs name = Obs.value (Obs.counter obs name) in
  (* One lone kernel build publishes the sax.* and builder.* counters once. *)
  let lone = Obs.create () in
  let table = Xml.Label.create_table () in
  let kernel = Core.Builder.of_string ~obs:lone ~table doc in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " published once") (value lone name)
        (value obs name))
    [ "sax.events"; "sax.elements"; "sax.text_nodes"; "sax.max_depth";
      "builder.vertices"; "builder.edges"; "builder.max_recursion_level" ];
  let _, stats =
    Core.Het_builder.build ~mbp:2 ~bsel_threshold:0.5 ~kernel
      ~path_tree:(Pathtree.Path_tree.of_string ~table doc)
      ~storage:(Nok.Storage.of_string ~table doc) ()
  in
  Alcotest.(check bool) "branching entries built" true
    (stats.branching_entries > 0);
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " published once") n (value obs name))
    [ ("het.simple_entries", stats.simple_entries);
      ("het.branching_entries", stats.branching_entries);
      ("het.nok_evaluations", stats.nok_evaluations) ]

(* ------------------------------------------------------------------ *)
(* Explain reports on the paper's Figure 2 example *)

let explain_estimator () =
  Core.Synopsis.estimator (Core.Synopsis.build Datagen.Paper_example.document)

let test_explain_simple_path () =
  let r = Core.Explain.run_string (explain_estimator ()) "/a/c/s" in
  (* /a/c/s selects the five level-0 s nodes; the HET simple-path entries
     make this exact. *)
  Alcotest.(check (float 1e-6)) "estimate" 5.0 r.estimate;
  Alcotest.(check bool) "EPT emitted nodes" true (r.traveler.opened > 0);
  Alcotest.(check bool) "EPT saw recursion" true
    (r.traveler.max_recursion_level >= 1);
  Alcotest.(check bool) "matcher frontier peak" true (r.matcher.frontier_peak > 0);
  Alcotest.(check bool) "matcher did work" true (r.matcher.match_steps > 0);
  (match r.het_usage with
   | None -> Alcotest.fail "expected HET usage in report"
   | Some u ->
     Alcotest.(check bool) "HET simple lookups" true (u.simple_lookups > 0);
     Alcotest.(check bool) "hits bounded by lookups" true
       (u.simple_hits <= u.simple_lookups));
  Alcotest.(check bool) "assumption trail nonempty" true (r.assumptions <> []);
  Alcotest.(check bool) "stage timings sum sanely" true
    (r.total_seconds >= 0.0 && r.ept_seconds >= 0.0 && r.match_seconds >= 0.0)

let test_explain_branching () =
  let r = Core.Explain.run_string (explain_estimator ()) "//s[p]/t" in
  Alcotest.(check bool) "branching query estimated" true (r.estimate >= 0.0);
  (* The predicate either hit a HET branching pattern or fell back to the
     independence approximation — the report must say which. *)
  Alcotest.(check bool) "predicate accounted for" true
    (r.matcher.het_joint_overrides + r.matcher.het_single_overrides
       + r.matcher.independence_preds
    > 0)

let test_explain_json () =
  let r = Core.Explain.run_string (explain_estimator ()) "/a/c/s/s/t" in
  let j = Core.Explain.to_json r in
  (* The JSON rendering round-trips and exposes the headline fields. *)
  let j' = Obs.Json.of_string (Obs.Json.to_string j) in
  Alcotest.check json "json round-trip" j j';
  Alcotest.(check (option json)) "query field"
    (Some (Obs.Json.String "/a/c/s/s/t"))
    (Obs.Json.member "query" j);
  (match Obs.Json.member "ept" j with
   | Some (Obs.Json.Obj _ as ept) ->
     Alcotest.(check bool) "pruned field present" true
       (Obs.Json.member "pruned" ept <> None)
   | _ -> Alcotest.fail "ept object missing")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "merge high-water marks" `Quick
            test_merge_high_water;
          Alcotest.test_case "optional helpers" `Quick test_optional_helpers;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "window" `Quick test_window;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "render + lint" `Quick test_prometheus_render;
          QCheck_alcotest.to_alcotest prop_snapshot_reparses;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "monotonic clock" `Quick test_monotonic_clock;
          Alcotest.test_case "span noop" `Quick test_span_noop;
          Alcotest.test_case "span timed" `Quick test_span_timed;
          Alcotest.test_case "multi-domain sink" `Quick test_sink_multi_domain;
          Alcotest.test_case "jsonl snapshot" `Quick test_jsonl_snapshot_roundtrip;
        ] );
      ("json", [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip ]);
      ( "pipeline",
        [
          Alcotest.test_case "counters flow" `Quick test_pipeline_counters;
          Alcotest.test_case "build spans" `Quick test_build_spans;
          Alcotest.test_case "explain simple path" `Quick test_explain_simple_path;
          Alcotest.test_case "explain branching" `Quick test_explain_branching;
          Alcotest.test_case "explain json" `Quick test_explain_json;
        ] );
    ]
