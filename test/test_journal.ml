(* The crash-safe feedback journal: frame/scan round-trips, the
   truncation rule under torn and corrupt tails (including an exhaustive
   cut-point and byte-flip sweep over a real image), writer durability
   across reopen, recover's truncate-on-disk behaviour, the wrap_server
   interposition, and the headline crash-recovery proof — a journal with
   a torn tail replayed into a fresh engine converges to the same learned
   state (bit-identical estimates, hence the same q-error median) as an
   uninterrupted run. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let entries =
  [ { Engine.Journal.query = "/site/regions"; actual = 6 };
    { Engine.Journal.query = "//item[quantity]"; actual = 217 };
    { Engine.Journal.query = "/site/people/person"; actual = 25_500 } ]

let with_temp f =
  let path = Filename.temp_file "xseed_journal" ".wal" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let scan_ok image =
  match Engine.Journal.scan_string image with
  | Ok s -> s
  | Error e -> Alcotest.failf "scan_string: %s" (Core.Error.to_string e)

(* ------------------------------------------------------------------ *)
(* Format round-trips *)

let test_roundtrip () =
  let image = Engine.Journal.to_string entries in
  checkb "starts with magic" true
    (String.length image > 8 && String.sub image 0 8 = Engine.Journal.magic);
  let s = scan_ok image in
  checkb "entries round-trip" true (s.Engine.Journal.entries = entries);
  checki "frames" 3 s.Engine.Journal.frames;
  checki "valid_bytes covers the image" (String.length image)
    s.Engine.Journal.valid_bytes;
  checkb "clean tail" true (s.Engine.Journal.tail = Engine.Journal.Clean);
  (* to_string is magic + concatenated frames. *)
  checks "image is magic + frames"
    (Engine.Journal.magic
    ^ String.concat "" (List.map Engine.Journal.frame entries))
    image

(* On-disk bytes recorded before the journal shared the wire codec: a
   journal written by any earlier build must stay readable. *)
let test_golden_bytes () =
  let golden =
    "XSEEDJ1\n"
    ^ "\000\000\000\017\029\211\007\192F 6 /site/regions"
    ^ "\000\000\000\022p\t\251oF 217 //item[quantity]"
    ^ "\000\000\000\027\241\251\136\224F 25500 /site/people/person"
  in
  checks "to_string golden" golden (Engine.Journal.to_string entries);
  checkb "golden scans back" true ((scan_ok golden).Engine.Journal.entries = entries)

let test_empty_and_bad_magic () =
  let s = scan_ok "" in
  checki "empty journal has no frames" 0 s.Engine.Journal.frames;
  checkb "empty journal is clean" true
    (s.Engine.Journal.tail = Engine.Journal.Clean);
  let s = scan_ok Engine.Journal.magic in
  checki "header-only has no frames" 0 s.Engine.Journal.frames;
  checkb "header-only is clean" true
    (s.Engine.Journal.tail = Engine.Journal.Clean);
  (match Engine.Journal.scan_string "GARBAGE!" with
   | Ok _ -> Alcotest.fail "bad magic accepted"
   | Error e ->
     checkb "bad magic is a data error" true
       (Core.Error.kind e = Core.Error.Corrupt_synopsis));
  match Engine.Journal.scan_string "XSE" with
  | Ok _ -> Alcotest.fail "short magic accepted"
  | Error _ -> ()

(* Every possible crash point mid-append leaves a torn tail that scans to
   the longest valid frame prefix; truncating there rescans clean. *)
let test_torn_tail_sweep () =
  let image = Engine.Journal.to_string entries in
  let magic_len = String.length Engine.Journal.magic in
  let boundaries =
    (* byte offset where each frame starts, plus end-of-image *)
    List.rev
      (List.fold_left
         (fun acc e ->
           match acc with
           | off :: _ ->
             (off + String.length (Engine.Journal.frame e)) :: acc
           | [] -> assert false)
         [ magic_len ] entries)
  in
  for cut = magic_len to String.length image - 1 do
    let s = scan_ok (String.sub image 0 cut) in
    if List.mem cut boundaries then
      checkb "cut on a frame boundary is clean" true
        (s.Engine.Journal.tail = Engine.Journal.Clean)
    else begin
      (match s.Engine.Journal.tail with
       | Engine.Journal.Torn off ->
         checki "torn offset is the last boundary before the cut"
           (List.fold_left
              (fun best b -> if b <= cut then max best b else best)
              magic_len boundaries)
           off
       | _ -> Alcotest.failf "cut at %d not torn" cut);
      (* valid prefix decodes a prefix of the entries... *)
      checkb "decoded entries are a prefix" true
        (s.Engine.Journal.entries
        = List.filteri
            (fun i _ -> i < s.Engine.Journal.frames)
            entries);
      (* ...and truncating at valid_bytes rescans clean. *)
      let s' =
        scan_ok (String.sub image 0 s.Engine.Journal.valid_bytes)
      in
      checkb "truncated image is clean" true
        (s'.Engine.Journal.tail = Engine.Journal.Clean);
      checki "truncation loses nothing valid" s.Engine.Journal.frames
        s'.Engine.Journal.frames
    end
  done

(* Flipping any single byte after the magic never makes scan_string raise
   or read past the mutation: the scan stops at or before the damaged
   frame, and truncating to valid_bytes always rescans clean. *)
let test_byte_flip_sweep () =
  let image = Engine.Journal.to_string entries in
  for i = String.length Engine.Journal.magic to String.length image - 1 do
    let mutated = Bytes.of_string image in
    Bytes.set mutated i (Char.chr (Char.code (Bytes.get mutated i) lxor 0xFF));
    let s = scan_ok (Bytes.to_string mutated) in
    checkb "flip never yields a clean full image" true
      (s.Engine.Journal.frames < 3
      || s.Engine.Journal.tail <> Engine.Journal.Clean
      || s.Engine.Journal.entries <> entries);
    let s' =
      scan_ok (String.sub (Bytes.to_string mutated) 0 s.Engine.Journal.valid_bytes)
    in
    checkb "valid prefix is self-consistent" true
      (s'.Engine.Journal.tail = Engine.Journal.Clean
      && s'.Engine.Journal.frames = s.Engine.Journal.frames)
  done

let test_mid_file_corruption () =
  let image = Engine.Journal.to_string entries in
  (* Damage the payload of the second frame: fully present, CRC fails. *)
  let f1 = String.length (Engine.Journal.frame (List.nth entries 0)) in
  let second_payload = String.length Engine.Journal.magic + f1 + 8 in
  let mutated = Bytes.of_string image in
  Bytes.set mutated second_payload 'X';
  let s = scan_ok (Bytes.to_string mutated) in
  (match s.Engine.Journal.tail with
   | Engine.Journal.Corrupt off ->
     checki "corrupt frame located" (String.length Engine.Journal.magic + f1) off
   | _ -> Alcotest.fail "mid-file corruption not flagged Corrupt");
  checki "only the first frame survives" 1 s.Engine.Journal.frames;
  checki "valid_bytes stops before the bad frame"
    (String.length Engine.Journal.magic + f1)
    s.Engine.Journal.valid_bytes

(* ------------------------------------------------------------------ *)
(* Writer *)

let test_writer_roundtrip () =
  with_temp @@ fun path ->
  (match Engine.Journal.open_append ~fsync:`Always path with
   | Error e -> Alcotest.failf "open_append: %s" (Core.Error.to_string e)
   | Ok w ->
     List.iter
       (fun e ->
         match Engine.Journal.append w e with
         | Ok () -> ()
         | Error err -> Alcotest.failf "append: %s" (Core.Error.to_string err))
       entries;
     checki "appended counter" 3 (Engine.Journal.appended w);
     Engine.Journal.close w;
     Engine.Journal.close w (* idempotent *));
  (match Engine.Journal.scan_file path with
   | Ok s ->
     checkb "file round-trips" true (s.Engine.Journal.entries = entries);
     checkb "file is clean" true (s.Engine.Journal.tail = Engine.Journal.Clean)
   | Error e -> Alcotest.failf "scan_file: %s" (Core.Error.to_string e));
  (* Reopen and extend: magic is not rewritten, history is kept. *)
  (match Engine.Journal.open_append ~fsync:`Never path with
   | Error e -> Alcotest.failf "reopen: %s" (Core.Error.to_string e)
   | Ok w ->
     (match Engine.Journal.append w { Engine.Journal.query = "//x"; actual = 1 } with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" (Core.Error.to_string e));
     checki "appended excludes history" 1 (Engine.Journal.appended w);
     Engine.Journal.close w);
  match Engine.Journal.scan_file path with
  | Ok s -> checki "four frames after reopen" 4 s.Engine.Journal.frames
  | Error e -> Alcotest.failf "rescan: %s" (Core.Error.to_string e)

let test_open_append_refuses_bad_magic () =
  with_temp @@ fun path ->
  write_file path "not a journal at all";
  match Engine.Journal.open_append path with
  | Ok _ -> Alcotest.fail "open_append accepted a non-journal"
  | Error e ->
    checkb "refused as data error" true
      (Core.Error.kind e = Core.Error.Corrupt_synopsis)

let test_recover () =
  (* Missing file: nothing to recover, serving may start cold. *)
  let missing = Filename.temp_file "xseed_journal" ".wal" in
  Sys.remove missing;
  (match Engine.Journal.recover missing with
   | Ok s ->
     checki "missing file is empty" 0 s.Engine.Journal.frames;
     checkb "missing file not created" false (Sys.file_exists missing)
   | Error e -> Alcotest.failf "recover missing: %s" (Core.Error.to_string e));
  (* Torn tail: recover truncates the file on disk. *)
  with_temp @@ fun path ->
  let image = Engine.Journal.to_string entries in
  let torn = image ^ String.sub (Engine.Journal.frame (List.hd entries)) 0 5 in
  write_file path torn;
  (match Engine.Journal.recover path with
   | Ok s ->
     checki "all complete frames recovered" 3 s.Engine.Journal.frames;
     (match s.Engine.Journal.tail with
      | Engine.Journal.Torn off -> checki "torn at image end" (String.length image) off
      | _ -> Alcotest.fail "expected torn tail")
   | Error e -> Alcotest.failf "recover torn: %s" (Core.Error.to_string e));
  (match Engine.Journal.scan_file path with
   | Ok s ->
     checkb "file truncated clean" true
       (s.Engine.Journal.tail = Engine.Journal.Clean);
     checki "no frames lost" 3 s.Engine.Journal.frames
   | Error e -> Alcotest.failf "rescan: %s" (Core.Error.to_string e));
  (* And appends now extend a clean journal. *)
  match Engine.Journal.open_append path with
  | Error e -> Alcotest.failf "open after recover: %s" (Core.Error.to_string e)
  | Ok w ->
    (match Engine.Journal.append w { Engine.Journal.query = "//y"; actual = 2 } with
     | Ok () -> ()
     | Error e -> Alcotest.failf "append: %s" (Core.Error.to_string e));
    Engine.Journal.close w;
    (match Engine.Journal.scan_file path with
     | Ok s ->
       checki "extended cleanly" 4 s.Engine.Journal.frames;
       checkb "still clean" true (s.Engine.Journal.tail = Engine.Journal.Clean)
     | Error e -> Alcotest.failf "final scan: %s" (Core.Error.to_string e))

(* ------------------------------------------------------------------ *)
(* Serving integration *)

let build_engine () =
  let doc = Datagen.Paper_example.document in
  let path_tree = Pathtree.Path_tree.of_string doc in
  let kernel =
    Core.Builder.of_string ~table:path_tree.Pathtree.Path_tree.table doc
  in
  let het, _ = Core.Het_builder.build ~kernel ~path_tree () in
  (path_tree, Engine.Pool.create ~workers:1 (Core.Estimator.create ~het kernel))

let test_wrap_server () =
  with_temp @@ fun path ->
  let _, engine = build_engine () in
  match Engine.Journal.open_append path with
  | Error e -> Alcotest.failf "open_append: %s" (Core.Error.to_string e)
  | Ok w ->
    let server = Engine.Journal.wrap_server w (Engine.Pool.server engine) in
    (* Estimates pass through untouched and unjournalled. *)
    (match server.Engine.Serve.estimate "/site/regions" with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e));
    checki "estimate not journalled" 0 (Engine.Journal.appended w);
    (* A successful feedback is appended before the reply. *)
    (match server.Engine.Serve.feedback "/site/regions" ~actual:6 with
     | Ok _ -> ()
     | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
    checki "feedback journalled" 1 (Engine.Journal.appended w);
    (* A failing feedback (syntax error) is not journalled. *)
    (match server.Engine.Serve.feedback "///" ~actual:1 with
     | Ok _ -> Alcotest.fail "bad query accepted"
     | Error _ -> ());
    checki "failed feedback not journalled" 1 (Engine.Journal.appended w);
    Engine.Journal.close w;
    (match Engine.Journal.scan_file path with
     | Ok s ->
       checkb "journal holds the observation" true
         (s.Engine.Journal.entries
         = [ { Engine.Journal.query = "/site/regions"; actual = 6 } ])
     | Error e -> Alcotest.failf "scan: %s" (Core.Error.to_string e))

(* The crash-recovery proof. An uninterrupted engine A applies feedbacks
   f1..fn. Engine B journals f1..fk and then "dies" (we fabricate its
   journal: k complete frames plus a torn half-frame, the kill -9
   residue). A fresh engine C recovers the journal, replays it, and
   applies the remaining feedbacks. A and C must then agree bit-for-bit
   on every probe estimate — hence on any q-error median computed from
   them. *)
let test_crash_recovery_equivalence () =
  with_temp @@ fun path ->
  let path_tree, engine_a = build_engine () in
  let queries =
    List.map Xpath.Ast.to_string
      (Datagen.Workload.all_simple_paths path_tree)
  in
  checkb "enough workload queries" true (List.length queries >= 6);
  let feedbacks =
    List.filteri (fun i _ -> i < 6) queries
    |> List.mapi (fun i q -> (q, ((i + 2) * 97) mod 1000 + 1))
  in
  let apply engine (q, actual) =
    match Engine.Pool.feedback engine q ~actual with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "feedback %s: %s" q (Core.Error.to_string e)
  in
  (* A: the uninterrupted run. *)
  List.iter (apply engine_a) feedbacks;
  (* B's journal: the first 3 observations plus a torn tail. *)
  let k = 3 in
  let journalled =
    List.filteri (fun i _ -> i < k) feedbacks
    |> List.map (fun (query, actual) -> { Engine.Journal.query; actual })
  in
  let torn_tail =
    String.sub
      (Engine.Journal.frame { Engine.Journal.query = "//lost"; actual = 9 })
      0 7
  in
  write_file path (Engine.Journal.to_string journalled ^ torn_tail);
  (* C: recover, replay, continue. *)
  let _, engine_c = build_engine () in
  (match Engine.Journal.recover path with
   | Error e -> Alcotest.failf "recover: %s" (Core.Error.to_string e)
   | Ok s ->
     checki "replayable frames" k s.Engine.Journal.frames;
     checkb "tail was torn" true
       (match s.Engine.Journal.tail with
        | Engine.Journal.Torn _ -> true
        | _ -> false);
     List.iter
       (fun { Engine.Journal.query; actual } ->
         apply engine_c (query, actual))
       s.Engine.Journal.entries);
  List.iteri
    (fun i fb -> if i >= k then apply engine_c fb)
    feedbacks;
  (* Same learned state: identical feedback totals and bit-identical
     estimates over the whole workload. *)
  checki "feedback_seen matches" (Engine.Pool.feedback_seen engine_a)
    (Engine.Pool.feedback_seen engine_c);
  checki "feedback_rounds matches" (Engine.Pool.feedback_rounds engine_a)
    (Engine.Pool.feedback_rounds engine_c);
  List.iter
    (fun q ->
      match (Engine.Pool.estimate engine_a q, Engine.Pool.estimate engine_c q) with
      | Ok a, Ok c ->
        checkb
          (Printf.sprintf "estimate for %s identical after recovery" q)
          true
          (Float.equal a.Engine.Serve.value c.Engine.Serve.value)
      | Error e, _ | _, Error e ->
        Alcotest.failf "estimate %s: %s" q (Core.Error.to_string e))
    queries;
  (* The q-error medians against the observed actuals are therefore equal
     — state it directly for the record. *)
  let median engine =
    let qerrs =
      List.map
        (fun (q, actual) ->
          match Engine.Pool.estimate engine q with
          | Ok r ->
            let est = Float.max r.Engine.Serve.value 1. in
            let act = float_of_int actual in
            Float.max (est /. act) (act /. est)
          | Error e -> Alcotest.failf "median: %s" (Core.Error.to_string e))
        feedbacks
      |> List.sort compare
    in
    List.nth qerrs (List.length qerrs / 2)
  in
  checkb "post-recovery q-error median equals uninterrupted run" true
    (Float.equal (median engine_a) (median engine_c))

let () =
  Alcotest.run "journal"
    [ ( "format",
        [ Alcotest.test_case "frame round-trip" `Quick test_roundtrip;
          Alcotest.test_case "golden bytes" `Quick test_golden_bytes;
          Alcotest.test_case "empty and bad magic" `Quick
            test_empty_and_bad_magic;
          Alcotest.test_case "torn-tail sweep" `Quick test_torn_tail_sweep;
          Alcotest.test_case "byte-flip sweep" `Quick test_byte_flip_sweep;
          Alcotest.test_case "mid-file corruption" `Quick
            test_mid_file_corruption ] );
      ( "writer",
        [ Alcotest.test_case "append and reopen" `Quick test_writer_roundtrip;
          Alcotest.test_case "refuses bad magic" `Quick
            test_open_append_refuses_bad_magic;
          Alcotest.test_case "recover truncates" `Quick test_recover ] );
      ( "serving",
        [ Alcotest.test_case "wrap_server journals feedback" `Quick
            test_wrap_server;
          Alcotest.test_case "crash recovery equivalence" `Quick
            test_crash_recovery_equivalence ] ) ]
