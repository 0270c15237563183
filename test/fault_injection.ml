(* Fault-injection harness: mutate well-formed XML documents, synopsis
   dumps and query strings with seeded random corruptions, and assert that
   every library entry point answers with [Error _] — never an uncaught
   exception, never a NaN estimate.

   Deterministic: all randomness comes from [Datagen.Rng] streams derived
   from the --seeds list, so a failing (seed, case) pair reproduces exactly.
   `make fuzz-smoke` runs the fixed configuration wired into CI. *)

let failures = ref 0
let total = ref 0

let fail_case ~category ~seed ~case fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.eprintf "FAIL [%s seed=%d case=%d] %s\n%!" category seed case msg)
    fmt

(* ------------------------------------------------------------------ *)
(* Mutations *)

let flip_bit rng s =
  let b = Bytes.of_string s in
  let i = Datagen.Rng.int rng (Bytes.length b) in
  Bytes.set b i
    (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Datagen.Rng.int rng 8)));
  Bytes.to_string b

let truncate rng s = String.sub s 0 (Datagen.Rng.int rng (String.length s))

let delete_chunk rng s =
  let n = String.length s in
  let i = Datagen.Rng.int rng n in
  let len = min (n - i) (1 + Datagen.Rng.int rng 64) in
  String.sub s 0 i ^ String.sub s (i + len) (n - i - len)

let overwrite_chunk rng s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let i = Datagen.Rng.int rng n in
  let len = min (n - i) (1 + Datagen.Rng.int rng 16) in
  for j = i to i + len - 1 do
    Bytes.set b j (Char.chr (Datagen.Rng.int rng 256))
  done;
  Bytes.to_string b

(* Copy a random chunk to a random position: the mutation most likely to
   manufacture duplicate or out-of-place v1 section markers. *)
let splice rng s =
  let n = String.length s in
  let i = Datagen.Rng.int rng n and j = Datagen.Rng.int rng n in
  let len = min (n - i) (1 + Datagen.Rng.int rng 32) in
  String.sub s 0 j ^ String.sub s i len ^ String.sub s j (n - j)

let mutate_once rng s =
  if String.length s = 0 then s
  else
    match Datagen.Rng.int rng 5 with
    | 0 -> flip_bit rng s
    | 1 -> truncate rng s
    | 2 -> delete_chunk rng s
    | 3 -> overwrite_chunk rng s
    | _ -> splice rng s

let mutate rng s =
  let rounds = 1 + Datagen.Rng.int rng 3 in
  let rec go s k = if k = 0 then s else go (mutate_once rng s) (k - 1) in
  go s rounds

(* ------------------------------------------------------------------ *)
(* Base material: small well-formed inputs to corrupt. *)

let docs =
  lazy
    [| Datagen.Paper_example.document;
       Datagen.Xmark.generate ~seed:11 ~items:8 ();
       Datagen.Dblp.generate ~seed:12 ~records:10 ();
       Datagen.Treebank.generate ~seed:13 ~sentences:6 () |]

let good_synopsis =
  lazy
    (Core.Synopsis.build ~with_het:true ~with_values:true
       Datagen.Paper_example.document)

let synopsis_dumps =
  lazy
    (let syn = Lazy.force good_synopsis in
     [| Core.Synopsis.to_string ~version:`V2 syn;
        Core.Synopsis.to_string ~version:`V1 syn |])

(* Queries derived from the paper document's own paths, so label names are
   right without hard-coding them, plus generic shapes. *)
let queries =
  lazy
    (let pt = Pathtree.Path_tree.of_string Datagen.Paper_example.document in
     let simple = Datagen.Workload.all_simple_paths pt in
     let take n l =
       List.filteri (fun i _ -> i < n) l |> List.map Xpath.Ast.to_string
     in
     Array.of_list (take 6 simple @ [ "/*"; "//*"; "//*[*]" ]))

let limits =
  { Xml.Sax.default_limits with
    max_depth = 500;
    max_attribute_length = 4096;
    max_text_length = 1 lsl 16;
    max_input_bytes = 1 lsl 22 }

(* An estimator over a (possibly corrupt but loadable) synopsis, with a
   small EPT cap so a corrupted card_threshold cannot stall the run. *)
let estimator_of syn =
  Core.Estimator.create
    ~card_threshold:(Core.Synopsis.card_threshold syn)
    ~max_ept_nodes:50_000
    ?het:(Core.Synopsis.het syn)
    ?values:(Core.Synopsis.values syn)
    (Core.Synopsis.kernel syn)

let check_estimates ~category ~seed ~case est =
  Array.iter
    (fun q ->
      match Core.Estimator.estimate_string_result est q with
      | Ok o ->
        if Float.is_nan o.Core.Estimator.value || o.Core.Estimator.value < 0.0
        then
          fail_case ~category ~seed ~case "estimate of %s is %h" q
            o.Core.Estimator.value
      | Error _ -> ()
      | exception e ->
        fail_case ~category ~seed ~case "exception estimating %s: %s" q
          (Printexc.to_string e))
    (Lazy.force queries)

(* ------------------------------------------------------------------ *)
(* Categories *)

let xml_case rng ~seed ~case =
  incr total;
  let category = "xml" in
  let doc = mutate rng (Datagen.Rng.choose rng (Lazy.force docs)) in
  (match Xml.Sax.fold_result ~limits doc ~init:0 ~f:(fun n _ -> n + 1) with
   | Ok _ | Error _ -> ()
   | exception e ->
     fail_case ~category ~seed ~case "Sax.fold_result raised %s"
       (Printexc.to_string e));
  (* Full synopsis construction is heavier; exercise it on small inputs. *)
  if String.length doc < 2048 then
    match Core.Synopsis.build_result ~with_het:true ~with_values:true doc with
    | Ok _ | Error _ -> ()
    | exception e ->
      fail_case ~category ~seed ~case "Synopsis.build_result raised %s"
        (Printexc.to_string e)

let synopsis_case rng ~seed ~case =
  incr total;
  let category = "synopsis" in
  let dump = mutate rng (Datagen.Rng.choose rng (Lazy.force synopsis_dumps)) in
  match Core.Synopsis.of_string_result dump with
  | Error _ -> ()
  | Ok syn -> check_estimates ~category ~seed ~case (estimator_of syn)
  | exception e ->
    fail_case ~category ~seed ~case "Synopsis.of_string_result raised %s"
      (Printexc.to_string e)

let query_case rng ~seed ~case =
  incr total;
  let category = "query" in
  let q = mutate rng (Datagen.Rng.choose rng (Lazy.force queries)) in
  match Xpath.Parser.parse_result q with
  | Error _ -> ()
  | Ok _ -> (
    let est = estimator_of (Lazy.force good_synopsis) in
    match Core.Estimator.estimate_string_result est q with
    | Ok o ->
      if Float.is_nan o.Core.Estimator.value || o.Core.Estimator.value < 0.0
      then
        fail_case ~category ~seed ~case "estimate of %s is %h" q
          o.Core.Estimator.value
    | Error _ -> ()
    | exception e ->
      fail_case ~category ~seed ~case "exception estimating %s: %s" q
        (Printexc.to_string e))
  | exception e ->
    fail_case ~category ~seed ~case "Parser.parse_result raised %s"
      (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Serving-path categories: worker kills, journal corruption, deadline
   storms. These drive Engine.Pool / Engine.Journal rather than the
   estimator, asserting the failure-model invariants of DESIGN.md §13:
   every submitted slot is answered (a killed worker never hangs a
   batch), restarts equal injected kills, corrupted journals scan
   without raising and truncate to a clean prefix, and under a deadline
   storm every reply is Ok or a protocol error — never an escaped
   exception. *)

let pool_estimator =
  lazy
    (let syn = Lazy.force good_synopsis in
     Core.Estimator.create
       ?het:(Core.Synopsis.het syn)
       ?values:(Core.Synopsis.values syn)
       (Core.Synopsis.kernel syn))

let pool_case rng ~seed ~case =
  incr total;
  let category = "pool" in
  let queries = Lazy.force queries in
  let victim = Datagen.Rng.choose rng queries in
  let kill_budget = Datagen.Rng.int rng 3 (* 0, 1 or 2 kills *) in
  let budget = Atomic.make kill_budget in
  let kills = Atomic.make 0 in
  let chaos q =
    if q = victim && Atomic.fetch_and_add budget (-1) > 0 then begin
      Atomic.incr kills;
      true
    end
    else false
  in
  let workers = 1 + Datagen.Rng.int rng 2 in
  match Engine.Pool.create ~workers ~chaos (Lazy.force pool_estimator) with
  | exception e ->
    fail_case ~category ~seed ~case "Pool.create raised %s"
      (Printexc.to_string e)
  | pool ->
    Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
    (* Submit the victim enough times to exhaust the kill budget and trip
       quarantine when the budget is 2, interleaved with bystanders —
       twice over, so that at two workers the batch spans two chunks and
       the domain serves one. *)
    let batch =
      let once =
        List.concat_map
          (fun q -> [ q; victim ])
          (Array.to_list (Array.sub queries 0 (min 3 (Array.length queries))))
      in
      once @ once
    in
    (match Engine.Pool.estimate_batch pool batch with
     | replies ->
       (* Every slot answered: completing the batch already proves no
          hang; now none may be an exception carrier or a NaN. *)
       List.iteri
         (fun slot reply ->
           match reply with
           | Ok r ->
             if Float.is_nan r.Engine.Serve.value then
               fail_case ~category ~seed ~case "slot %d is NaN" slot
           | Error _ -> ())
         replies
     | exception e ->
       fail_case ~category ~seed ~case "estimate_batch raised %s"
         (Printexc.to_string e));
    let killed = Atomic.get kills in
    if Engine.Pool.worker_restarts pool <> killed then
      fail_case ~category ~seed ~case "%d kills but %d restarts" killed
        (Engine.Pool.worker_restarts pool);
    if kill_budget >= 2 && killed >= 2
       && Engine.Pool.quarantined_count pool <> 1
    then
      fail_case ~category ~seed ~case
        "victim killed twice but %d queries quarantined"
        (Engine.Pool.quarantined_count pool);
    (* The pool keeps serving after any injected deaths. *)
    match Engine.Pool.estimate pool "/*" with
    | Ok _ | Error _ -> ()
    | exception e ->
      fail_case ~category ~seed ~case "post-kill estimate raised %s"
        (Printexc.to_string e)

let journal_image =
  lazy
    (Engine.Journal.to_string
       (Array.to_list (Lazy.force queries)
       |> List.mapi (fun i q -> { Engine.Journal.query = q; actual = i + 1 })))

let journal_scratch =
  lazy
    (let path = Filename.temp_file "xseed_fault_journal" ".wal" in
     at_exit (fun () -> if Sys.file_exists path then Sys.remove path);
     path)

let journal_case rng ~seed ~case =
  incr total;
  let category = "journal" in
  let image = mutate rng (Lazy.force journal_image) in
  match Engine.Journal.scan_string image with
  | Error _ -> ()
  | exception e ->
    fail_case ~category ~seed ~case "scan_string raised %s"
      (Printexc.to_string e)
  | Ok s ->
    (* The valid prefix must be self-consistent: truncating there rescans
       clean with the same frames — the truncation rule is a fixpoint. *)
    (match
       Engine.Journal.scan_string (String.sub image 0 s.Engine.Journal.valid_bytes)
     with
     | Ok s' ->
       if s'.Engine.Journal.tail <> Engine.Journal.Clean
          || s'.Engine.Journal.frames <> s.Engine.Journal.frames
       then
         fail_case ~category ~seed ~case
           "truncation to valid_bytes=%d is not a clean fixpoint"
           s.Engine.Journal.valid_bytes
     | Error e ->
       fail_case ~category ~seed ~case "truncated prefix unscannable: %s"
         (Core.Error.to_string e)
     | exception e ->
       fail_case ~category ~seed ~case "truncated rescan raised %s"
         (Printexc.to_string e));
    (* recover must repair the same image on disk. *)
    let path = Lazy.force journal_scratch in
    let oc = open_out_bin path in
    output_string oc image;
    close_out oc;
    (match Engine.Journal.recover path with
     | Ok _ -> (
       match Engine.Journal.scan_file path with
       | Ok s' when s'.Engine.Journal.tail = Engine.Journal.Clean -> ()
       | Ok _ -> fail_case ~category ~seed ~case "recover left a dirty tail"
       | Error e ->
         fail_case ~category ~seed ~case "post-recover scan: %s"
           (Core.Error.to_string e))
     | Error _ -> ()
     | exception e ->
       fail_case ~category ~seed ~case "recover raised %s"
         (Printexc.to_string e))

let deadline_case rng ~seed ~case =
  incr total;
  let category = "deadline" in
  (* A storm: a deadline that is usually already spent, a tiny admission
     queue, a random shed policy and more clients than workers. *)
  let expired = Datagen.Rng.int rng 4 < 3 in
  let deadline_s = if expired then -1e-9 else 60.0 in
  let shed_policy =
    if Datagen.Rng.int rng 2 = 0 then `Block else `Shed_newest
  in
  match
    Engine.Pool.create ~workers:2 ~queue_capacity:4 ~deadline_s ~shed_policy
      (Lazy.force pool_estimator)
  with
  | exception e ->
    fail_case ~category ~seed ~case "Pool.create raised %s"
      (Printexc.to_string e)
  | pool ->
    Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
    let queries = Lazy.force queries in
    let batch =
      List.init 12 (fun _ -> Datagen.Rng.choose rng queries)
    in
    let clients =
      List.init 3 (fun _ ->
          Domain.spawn (fun () -> Engine.Pool.estimate_batch pool batch))
    in
    List.iter
      (fun d ->
        match Domain.join d with
        | replies ->
          List.iter
            (fun reply ->
              match reply with
              | Ok r ->
                if expired then
                  fail_case ~category ~seed ~case
                    "expired deadline but a slot was served";
                if Float.is_nan r.Engine.Serve.value then
                  fail_case ~category ~seed ~case "NaN under storm"
              | Error e -> (
                match Core.Error.kind e with
                | Core.Error.Timeout | Core.Error.Overloaded -> ()
                | _ ->
                  fail_case ~category ~seed ~case "unexpected error: %s"
                    (Core.Error.to_string e)))
            replies
        | exception e ->
          fail_case ~category ~seed ~case "client raised %s"
            (Printexc.to_string e))
      clients;
    if expired
       && Engine.Pool.timeout_total pool + Engine.Pool.shed_total pool < 36
    then
      fail_case ~category ~seed ~case "refusal counters undercount: %d+%d < 36"
        (Engine.Pool.timeout_total pool)
        (Engine.Pool.shed_total pool)

(* ------------------------------------------------------------------ *)

(* net: the framed TCP transport under hostile bytes. Codec cases mutate
   valid frames and must never raise out of the pure decoder; live cases
   aim attack connections (garbage, oversized headers, bad CRCs, mid-frame
   disconnects, slow-loris dribbles) at a loopback server and then prove
   the server still answers a clean client — every violation ends in one
   ERR frame or a clean close, never a hang, never an exception. *)

let net_codec_case rng ~seed ~case =
  let category = "net" in
  incr total;
  let qs = Lazy.force queries in
  let payload =
    match Datagen.Rng.int rng 3 with
    | 0 -> qs.(Datagen.Rng.int rng (Array.length qs))
    | 1 ->
      String.init
        (Datagen.Rng.int rng 64)
        (fun _ -> Char.chr (Datagen.Rng.int rng 256))
    | _ -> "BATCH 2\n//a\n//b"
  in
  let corrupt = mutate rng (Net.Frame.encode_string payload) in
  (match
     Net.Frame.decode ~max_payload:4096 (Bytes.of_string corrupt) ~off:0
       ~len:(String.length corrupt)
   with
   | Net.Frame.Frame { payload = p; consumed } ->
     (* A mutation that still decodes (e.g. truncation to a valid prefix)
        must at least be internally consistent. *)
     if
       consumed > String.length corrupt
       || String.length p + Net.Frame.header_bytes <> consumed
     then
       fail_case ~category ~seed ~case "inconsistent decode: consumed %d"
         consumed
   | Net.Frame.Need_more | Net.Frame.Too_large _ | Net.Frame.Crc_mismatch -> ()
   | exception e ->
     fail_case ~category ~seed ~case "decode raised %s" (Printexc.to_string e));
  match Net.Frame.parse_hello (mutate rng Net.Frame.hello) with
  | Ok _ | Error _ -> ()
  | exception e ->
    fail_case ~category ~seed ~case "parse_hello raised %s"
      (Printexc.to_string e)

let net_engine_server () =
  Engine.Pool.server
    (Engine.Pool.create ~workers:1 (estimator_of (Lazy.force good_synopsis)))

let net_live_case rng ~seed ~case =
  let category = "net" in
  incr total;
  let server = net_engine_server () in
  match
    Net.Server.create
      { Net.Server.default_config with
        Net.Server.port = 0;
        idle_timeout_s = Some 0.1;
        max_frame_bytes = 2048 }
  with
  | Error e ->
    fail_case ~category ~seed ~case "listen: %s" (Core.Error.to_string e)
  | Ok srv ->
    let domain =
      Domain.spawn (fun () ->
          Net.Server.run srv
            ~make_session:(fun () -> (server, fun _ _ -> None))
            ())
    in
    let port = Net.Server.port srv in
    Fun.protect
      ~finally:(fun () ->
        Net.Server.stop srv;
        Domain.join domain)
    @@ fun () ->
    let send fd s =
      try ignore (Unix.write_substring fd s 0 (String.length s))
      with Unix.Unix_error _ -> ()
    in
    (* Bounded drain: the server either answers (one ERR frame) or closes;
       the receive timeout turns a would-be hang into a visible FAIL via
       the health check below rather than stalling the harness. *)
    let drain fd =
      let buf = Bytes.create 4096 in
      try
        while Unix.read fd buf 0 4096 > 0 do
          ()
        done
      with Unix.Unix_error _ -> ()
    in
    let attack kind =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          try
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5;
            (match kind with
             | 0 ->
               (* raw garbage, no handshake *)
               send fd
                 (String.init
                    (1 + Datagen.Rng.int rng 64)
                    (fun _ -> Char.chr (Datagen.Rng.int rng 256)))
             | 1 ->
               (* header claiming a 4 GiB payload *)
               send fd "\xff\xff\xff\xff\x00\x00\x00\x00"
             | 2 ->
               (* clean HELLO, then a CRC-failing frame *)
               send fd (Net.Frame.encode_string Net.Frame.hello);
               let f = Bytes.of_string (Net.Frame.encode_string "PING") in
               Bytes.set f Net.Frame.header_bytes 'Z';
               send fd (Bytes.to_string f)
             | 3 ->
               (* mid-frame disconnect *)
               send fd (Net.Frame.encode_string Net.Frame.hello);
               let f = Net.Frame.encode_string "ESTIMATE //a" in
               send fd
                 (String.sub f 0 (1 + Datagen.Rng.int rng (String.length f - 1)))
             | 4 ->
               (* slow-loris: dribble header bytes, then abandon *)
               send fd "\x00\x00";
               Unix.sleepf 0.05;
               send fd "\x01"
             | _ ->
               (* a mutated but plausible handshake+request exchange *)
               send fd
                 (mutate rng
                    (Net.Frame.encode_string Net.Frame.hello
                    ^ Net.Frame.encode_string "PING")));
            drain fd
          with Unix.Unix_error _ -> ())
    in
    attack (Datagen.Rng.int rng 6);
    attack (Datagen.Rng.int rng 6);
    (* Whatever the attacks did, a clean client must still be served. *)
    (match Net.Client.connect ~port () with
     | Error e ->
       fail_case ~category ~seed ~case "post-attack connect: %s"
         (Core.Error.to_string e)
     | Ok c ->
       Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
       (match Net.Client.request c "PING" with
        | Ok "OK pong" -> ()
        | Ok other ->
          fail_case ~category ~seed ~case "post-attack PING answered %S" other
        | Error e ->
          fail_case ~category ~seed ~case "post-attack PING: %s"
            (Core.Error.to_string e)))

(* ------------------------------------------------------------------ *)

let all_categories =
  [ "xml"; "synopsis"; "query"; "pool"; "journal"; "deadline"; "net" ]

let () =
  let seeds = ref [ 1; 2; 3; 4 ] in
  let cases = ref 200 in
  let only = ref all_categories in
  Arg.parse
    [ ( "--seeds",
        Arg.String
          (fun s ->
            seeds := List.map int_of_string (String.split_on_char ',' s)),
        "S1,S2,... comma-separated RNG seeds" );
      ("--cases", Arg.Set_int cases, "N mutation cases per seed per category");
      ( "--only",
        Arg.String
          (fun s ->
            let picked = String.split_on_char ',' s in
            List.iter
              (fun c ->
                if not (List.mem c all_categories) then
                  raise
                    (Arg.Bad
                       (Printf.sprintf "unknown category %s (known: %s)" c
                          (String.concat "," all_categories))))
              picked;
            only := picked),
        "C1,C2,... restrict to these categories (xml,synopsis,query,pool,journal,deadline,net)"
      ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fault_injection [--seeds 1,2,3,4] [--cases 200] [--only xml,pool,...]";
  let want c = List.mem c !only in
  (* The serving-path categories spin up a pool per case; keep their
     per-category case count bounded so a big --cases sweep of the
     mutation categories does not turn into thousands of domain spawns. *)
  let pool_cases = min !cases 25 in
  (* Live net cases bind a fresh listener per case; bound them harder
     still — the codec half of the category runs at full --cases. *)
  let net_live_cases = min !cases 8 in
  List.iter
    (fun seed ->
      (* Streams are split in a fixed order so a category's cases are
         byte-identical for a given seed whatever --only selects. *)
      let rng = Datagen.Rng.create ~seed in
      let xml_rng = Datagen.Rng.split rng in
      let syn_rng = Datagen.Rng.split rng in
      let query_rng = Datagen.Rng.split rng in
      let pool_rng = Datagen.Rng.split rng in
      let journal_rng = Datagen.Rng.split rng in
      let deadline_rng = Datagen.Rng.split rng in
      let net_rng = Datagen.Rng.split rng in
      for case = 1 to !cases do
        if want "xml" then xml_case xml_rng ~seed ~case;
        if want "synopsis" then synopsis_case syn_rng ~seed ~case;
        if want "query" then query_case query_rng ~seed ~case;
        if want "journal" then journal_case journal_rng ~seed ~case;
        if want "net" then net_codec_case net_rng ~seed ~case;
        if case <= pool_cases then begin
          if want "pool" then pool_case pool_rng ~seed ~case;
          if want "deadline" then deadline_case deadline_rng ~seed ~case
        end;
        if want "net" && case <= net_live_cases then
          net_live_case net_rng ~seed ~case
      done)
    !seeds;
  Printf.printf "fault-injection: %d cases, %d failures\n%!" !total !failures;
  exit (if !failures > 0 then 1 else 0)
