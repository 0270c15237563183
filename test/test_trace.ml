(* Obs.Trace: interning, ring-wrap semantics (a wrapped trace still
   lints), the bounded-allocation record path, the Perfetto JSON exporter
   (golden shape + round-trip through the linter) and the linter's
   negative cases. *)

let mem name j = Obs.Json.member name j

let events json =
  match mem "traceEvents" json with
  | Some (Obs.Json.List evs) -> evs
  | _ -> Alcotest.fail "traceEvents array missing"

let str_field name j =
  match mem name j with Some (Obs.Json.String s) -> Some s | _ -> None

let num_field name j =
  match mem name j with
  | Some (Obs.Json.Float f) -> Some f
  | Some (Obs.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let ph j = Option.value ~default:"?" (str_field "ph" j)

(* ------------------------------------------------------------------ *)
(* Interning *)

let test_intern () =
  let tr = Obs.Trace.create () in
  let a = Obs.Trace.intern tr "alpha" in
  let b = Obs.Trace.intern tr "beta" in
  Alcotest.(check bool) "distinct names, distinct ids" true (a <> b);
  Alcotest.(check int) "same name, same id" a (Obs.Trace.intern tr "alpha");
  (* Interning survives table growth. *)
  for i = 0 to 99 do
    ignore (Obs.Trace.intern tr (Printf.sprintf "n%d" i) : int)
  done;
  Alcotest.(check int) "id stable across growth" a
    (Obs.Trace.intern tr "alpha")

(* ------------------------------------------------------------------ *)
(* Ring wrap: the buffer keeps the newest [capacity] events. *)

let test_ring_wrap () =
  let tr = Obs.Trace.create ~capacity:8 () in
  let buf = Obs.Trace.register tr ~tid:1 ~name:"t" in
  let n = Obs.Trace.intern tr "ev" in
  for i = 0 to 19 do
    Obs.Trace.complete buf ~name:n ~ts:(float_of_int i *. 1e-3) ~dur:1e-4
  done;
  Alcotest.(check int) "total counts lifetime events" 20
    (Obs.Trace.total buf);
  let evs = events (Obs.Trace.to_json tr) in
  let slices = List.filter (fun e -> ph e = "X") evs in
  Alcotest.(check int) "ring keeps newest capacity slices" 8
    (List.length slices);
  (* The survivors are the last 8 records: ts 12ms .. 19ms. *)
  let min_ts =
    List.fold_left
      (fun acc e ->
        match num_field "ts" e with Some t -> Float.min acc t | None -> acc)
      infinity slices
  in
  Alcotest.(check bool) "oldest surviving slice is record 12" true
    (Float.abs (min_ts -. 12_000.0) < 1.0);
  (* Pairs split across a wrap: the ring [a] opens ten flows and async
     spans beside its slices and keeps only its newest 8 events; [b] holds
     every pair's end inside its own slice. The export keeps a half only
     when its partner survived, so the trace lints and no slice is lost. *)
  let tr = Obs.Trace.create () in
  let a = Obs.Trace.register ~capacity:8 tr ~tid:1 ~name:"a" in
  let b = Obs.Trace.register tr ~tid:2 ~name:"b" in
  let n_flow = Obs.Trace.intern tr "query" in
  let n_wait = Obs.Trace.intern tr "queue_wait" in
  for i = 0 to 9 do
    let ts = float_of_int (2 * i) *. 1e-3 in
    Obs.Trace.flow_start a ~name:n_flow ~ts ~id:i;
    Obs.Trace.async_begin a ~name:n_wait ~ts ~id:i;
    Obs.Trace.complete a ~name:n ~ts ~dur:1e-4;
    Obs.Trace.complete_seq b ~name:n ~ts:(ts +. 1e-3) ~dur:5e-4 ~seq:i;
    Obs.Trace.async_end b ~name:n_wait ~ts:(ts +. 1e-3) ~id:i;
    Obs.Trace.flow_end b ~name:n_flow ~ts:(ts +. 1.25e-3) ~id:i
  done;
  (* [a] keeps async_begin 7 and everything of pairs 8 and 9. *)
  let json = Obs.Trace.to_json tr in
  Alcotest.(check (list string)) "wrapped trace lints clean" []
    (Obs.Trace.lint (Obs.Json.of_string (Obs.Json.to_string json)));
  let evs = events json in
  let count p = List.length (List.filter (fun e -> ph e = p) evs) in
  Alcotest.(check int) "every surviving slice exported" 13 (count "X");
  Alcotest.(check (list int)) "flow halves: 8 and 9 survive" [ 2; 2 ]
    [ count "s"; count "f" ];
  Alcotest.(check (list int)) "async halves: 7, 8 and 9 survive" [ 3; 3 ]
    [ count "b"; count "e" ]

(* ------------------------------------------------------------------ *)
(* Record-path allocation: a ring write stores scalars into preallocated
   arrays. Without flambda the float arguments themselves may box, so the
   budget is a few words per event — not the ~dozens a record/closure/list
   based design would cost. *)

let test_record_path_allocation () =
  let tr = Obs.Trace.create ~capacity:1024 () in
  let buf = Obs.Trace.register tr ~tid:1 ~name:"t" in
  let n = Obs.Trace.intern tr "ev" in
  let rounds = 1000 in
  (* Warm up so the first-call paths (closure setup, etc.) are excluded. *)
  for _ = 1 to 10 do
    Obs.Trace.complete buf ~name:n ~ts:0.0 ~dur:0.0
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    Obs.Trace.complete buf ~name:n ~ts:1.0 ~dur:0.5
  done;
  let per_event = (Gc.minor_words () -. w0) /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "allocation per event bounded (%.1f words)" per_event)
    true (per_event <= 16.0)

(* ------------------------------------------------------------------ *)
(* Exporter: golden structural shape + round-trip through the linter. *)

let rich_trace () =
  let tr = Obs.Trace.create () in
  let a = Obs.Trace.register tr ~tid:1 ~name:"shard-0" in
  let b = Obs.Trace.register tr ~tid:2 ~name:"shard-1" in
  let n_exec = Obs.Trace.intern tr "execute" in
  let n_canon = Obs.Trace.intern tr "canonicalize" in
  let n_flow = Obs.Trace.intern tr "query" in
  let n_wait = Obs.Trace.intern tr "queue_wait" in
  (* Submitter: admits chunk 7 to the queue (flow start + async begin),
     then serves chunk 0 itself, a sub-slice recorded before the slice
     that encloses it. *)
  Obs.Trace.flow_start a ~name:n_flow ~ts:1e-3 ~id:7;
  Obs.Trace.async_begin a ~name:n_wait ~ts:1e-3 ~id:7;
  Obs.Trace.complete a ~name:n_canon ~ts:1.2e-3 ~dur:1e-4;
  Obs.Trace.complete_seq a ~name:n_exec ~ts:1e-3 ~dur:1e-3 ~seq:0;
  (* Another shard serves chunk 7: the execute slice, and inside it the
     async span's end and the flow's landing. *)
  Obs.Trace.complete_seq b ~name:n_exec ~ts:2e-3 ~dur:1e-3 ~seq:7;
  Obs.Trace.async_end b ~name:n_wait ~ts:2e-3 ~id:7;
  Obs.Trace.flow_end b ~name:n_flow ~ts:2.5e-3 ~id:7;
  tr

let test_export_shape () =
  let json = Obs.Trace.to_json (rich_trace ()) in
  (match mem "displayTimeUnit" json with
   | Some (Obs.Json.String "ms") -> ()
   | _ -> Alcotest.fail "displayTimeUnit ms missing");
  let evs = events json in
  let phase p = List.filter (fun e -> ph e = p) evs in
  Alcotest.(check int) "two thread_name + one process_name records" 3
    (List.length (phase "M"));
  Alcotest.(check int) "complete slices" 3 (List.length (phase "X"));
  Alcotest.(check int) "flow s/f" 2
    (List.length (phase "s") + List.length (phase "f"));
  Alcotest.(check int) "async b/e" 2
    (List.length (phase "b") + List.length (phase "e"));
  (* An execute slice carries its submission seq as an argument. *)
  let seq_args =
    List.filter_map
      (fun e ->
        match mem "args" e with
        | Some args -> num_field "seq" args
        | None -> None)
      (phase "X")
  in
  Alcotest.(check (list (float 1e-9))) "execute slices link seq" [ 0.0; 7.0 ]
    seq_args;
  (* Per-track timestamps are exported in non-decreasing order even though
     X slices are recorded at their end instant. *)
  let tracks = Hashtbl.create 4 in
  List.iter
    (fun e ->
      if ph e <> "M" then
        match (num_field "tid" e, num_field "ts" e) with
        | Some tid, Some ts ->
          let last =
            Option.value ~default:neg_infinity (Hashtbl.find_opt tracks tid)
          in
          Alcotest.(check bool) "ts non-decreasing per track" true (ts >= last);
          Hashtbl.replace tracks tid ts
        | _ -> Alcotest.fail "event missing tid/ts")
    evs

let test_export_roundtrip_lints () =
  let tr = rich_trace () in
  let reparsed =
    Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_json tr))
  in
  Alcotest.(check (list string)) "round-tripped trace lints clean" []
    (Obs.Trace.lint reparsed)

let test_write_lints () =
  let path = Filename.temp_file "xseed_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Obs.Trace.write (rich_trace ()) path;
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool) "newline-terminated" true
    (String.length contents > 0 && contents.[String.length contents - 1] = '\n');
  Alcotest.(check (list string)) "written file lints clean" []
    (Obs.Trace.lint (Obs.Json.of_string contents))

(* ------------------------------------------------------------------ *)
(* Linter negatives: each structural rule actually fires. *)

let base_event ?(ph = "i") ?(ts = 1.0) ?(tid = 1) ?extra name =
  Obs.Json.Obj
    ([ ("ph", Obs.Json.String ph);
       ("name", Obs.Json.String name);
       ("pid", Obs.Json.Int 1);
       ("tid", Obs.Json.Int tid);
       ("ts", Obs.Json.Float ts);
       ("s", Obs.Json.String "t") ]
    @ Option.value ~default:[] extra)

let wrap evs = Obs.Json.Obj [ ("traceEvents", Obs.Json.List evs) ]

let check_dirty label json =
  Alcotest.(check bool) label true (Obs.Trace.lint json <> [])

let test_lint_negatives () =
  Alcotest.(check (list string)) "empty trace is clean" []
    (Obs.Trace.lint (wrap []));
  check_dirty "missing traceEvents" (Obs.Json.Obj []);
  check_dirty "decreasing ts on one track"
    (wrap [ base_event ~ts:2.0 "a"; base_event ~ts:1.0 "b" ]);
  check_dirty "X without dur" (wrap [ base_event ~ph:"X" "a" ]);
  check_dirty "negative dur"
    (wrap
       [ base_event ~ph:"X" ~extra:[ ("dur", Obs.Json.Float (-1.0)) ] "a" ]);
  check_dirty "dangling E" (wrap [ base_event ~ph:"E" "a" ]);
  check_dirty "unclosed B" (wrap [ base_event ~ph:"B" "a" ]);
  check_dirty "mismatched B/E names"
    (wrap [ base_event ~ph:"B" "a"; base_event ~ph:"E" ~ts:2.0 "b" ]);
  let flow phase ts id =
    base_event ~ph:phase ~ts
      ~extra:[ ("id", Obs.Json.Int id); ("cat", Obs.Json.String "flow") ]
      "q"
  in
  check_dirty "flow step without start" (wrap [ flow "t" 1.0 3 ]);
  check_dirty "flow start without end" (wrap [ flow "s" 1.0 3 ]);
  Alcotest.(check (list string)) "complete flow is clean" []
    (Obs.Trace.lint (wrap [ flow "s" 1.0 3; flow "t" 2.0 3; flow "f" 3.0 3 ]));
  let async phase ts id =
    base_event ~ph:phase ~ts
      ~extra:[ ("id", Obs.Json.Int id); ("cat", Obs.Json.String "async") ]
      "w"
  in
  check_dirty "async begin without end" (wrap [ async "b" 1.0 9 ]);
  check_dirty "async end without begin" (wrap [ async "e" 1.0 9 ]);
  Alcotest.(check (list string)) "balanced async is clean" []
    (Obs.Trace.lint (wrap [ async "b" 1.0 9; async "e" 2.0 9 ]))

(* ------------------------------------------------------------------ *)
(* Multi-domain recording: one buffer per domain, exported merged. *)

let test_multi_domain_buffers () =
  let tr = Obs.Trace.create () in
  let per_domain = 500 in
  let domains =
    Array.init 4 (fun i ->
        let buf =
          Obs.Trace.register tr ~tid:(i + 1)
            ~name:(Printf.sprintf "worker-%d" i)
        in
        Domain.spawn (fun () ->
            let n = Obs.Trace.intern tr (Printf.sprintf "op-%d" i) in
            for k = 1 to per_domain do
              Obs.Trace.complete buf ~name:n
                ~ts:(float_of_int k *. 1e-6)
                ~dur:1e-7
            done))
  in
  Array.iter Domain.join domains;
  let json = Obs.Trace.to_json tr in
  let slices = List.filter (fun e -> ph e = "X") (events json) in
  Alcotest.(check int) "all domains' events exported" (4 * per_domain)
    (List.length slices);
  Alcotest.(check (list string)) "merged trace lints clean" []
    (Obs.Trace.lint (Obs.Json.of_string (Obs.Json.to_string json)))

let () =
  Alcotest.run "trace"
    [
      ("intern", [ Alcotest.test_case "intern" `Quick test_intern ]);
      ( "ring",
        [
          Alcotest.test_case "wrap keeps newest" `Quick test_ring_wrap;
          Alcotest.test_case "record path allocation" `Quick
            test_record_path_allocation;
        ] );
      ( "export",
        [
          Alcotest.test_case "shape" `Quick test_export_shape;
          Alcotest.test_case "round-trip lints" `Quick
            test_export_roundtrip_lints;
          Alcotest.test_case "write lints" `Quick test_write_lints;
        ] );
      ("lint", [ Alcotest.test_case "negatives" `Quick test_lint_negatives ]);
      ( "domains",
        [
          Alcotest.test_case "parallel buffers" `Quick
            test_multi_domain_buffers;
        ] );
    ]
