(* Multi-tenant synopsis registry: LRU paging under a global memory budget,
   journal flush/replay across evictions, the USE/LOAD/TENANTS session
   protocol, and the acceptance bar for the whole feature — estimates
   served through a budget-constrained registry are bit-identical to
   dedicated single-tenant engines over the same synopses. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures: three corpora of distinct sizes, written as synopsis files. *)

let temp_dir () =
  let path = Filename.temp_file "xseed_registry" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let docs =
  lazy
    [ ("paper", Datagen.Paper_example.document);
      ("dblp", Datagen.Dblp.generate ~seed:7 ~records:60 ());
      ("xmark", Datagen.Xmark.generate ~seed:7 ~items:40 ()) ]

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* dir with <name>.syn per corpus; returns [(name, path, syn)]. *)
let fixture_dir () =
  let dir = temp_dir () in
  let tenants =
    List.map
      (fun (name, doc) ->
        let syn = Core.Synopsis.build doc in
        let path = Filename.concat dir (name ^ ".syn") in
        write_file path (Core.Synopsis.to_string syn);
        (name, path, syn))
      (Lazy.force docs)
  in
  (dir, tenants)

let size_of tenants name =
  let _, _, syn = List.find (fun (n, _, _) -> n = name) tenants in
  Core.Synopsis.size_in_bytes syn

let registry_of ?memory_budget ?het_budget ?journal_dir tenants =
  let reg = Engine.Registry.create ?memory_budget ?het_budget ?journal_dir () in
  List.iter
    (fun (name, path, _) ->
      match Engine.Registry.register reg ~name ~path with
      | Ok () -> ()
      | Error e -> Alcotest.failf "register %s: %s" name (Core.Error.to_string e))
    tenants;
  reg

let use_ok reg name =
  match Engine.Registry.use reg name with
  | Ok how -> how
  | Error e -> Alcotest.failf "USE %s: %s" name (Core.Error.to_string e)

let resident_names reg =
  List.filter_map
    (fun (name, size) -> if size <> None then Some name else None)
    (Engine.Registry.tenants reg)

(* One estimate through a session's vtable: a batch of one, as ESTIMATE
   sends it. *)
let estimate server q =
  match server.Engine.Serve.estimate_batch [ q ] with
  | [ r ] -> r
  | rs -> Alcotest.failf "%d replies to one query" (List.length rs)

(* One protocol request through a registry session (payload lines for
   BATCH-style verbs are not needed here). *)
let req session line =
  match
    Engine.Serve.handle_request
      ~extra:(Engine.Registry.extra session)
      (Engine.Registry.server session)
      ~read_line:(fun () -> None)
      line
  with
  | Some response -> response
  | None -> Alcotest.failf "no response to %S" line

(* ------------------------------------------------------------------ *)
(* Registration and manifest *)

let test_register_validation () =
  let dir, tenants = fixture_dir () in
  ignore dir;
  let reg = registry_of tenants in
  List.iter
    (fun bad ->
      match
        Engine.Registry.register reg ~name:bad ~path:"/nonexistent.syn"
      with
      | Ok () -> Alcotest.failf "name %S accepted" bad
      | Error e ->
        checkb
          (Printf.sprintf "%S is malformed" bad)
          true
          (Core.Error.kind e = Core.Error.Malformed_query))
    [ ""; "."; ".."; "a b"; "a/b"; "caf\xc3\xa9" ];
  (match Engine.Registry.register reg ~name:"dblp" ~path:"/other.syn" with
   | Ok () -> Alcotest.fail "duplicate name accepted"
   | Error _ -> ());
  (* A valid name with the full allowed alphabet registers fine (the file
     need not exist until first USE). *)
  (match Engine.Registry.register reg ~name:"T-1_x.y" ~path:"/later.syn" with
   | Ok () -> ()
   | Error e -> Alcotest.failf "valid name refused: %s" (Core.Error.to_string e));
  checki "registered" 4 (Engine.Registry.registered_count reg);
  checki "nothing resident yet" 0 (Engine.Registry.resident_count reg);
  Engine.Registry.close reg

let test_manifest () =
  let dir, _tenants = fixture_dir () in
  let manifest = Filename.concat dir "manifest.txt" in
  (* Relative paths resolve against the manifest's own directory. *)
  write_file manifest
    "# tenants for the registry test\n\n\
     paper paper.syn\n\
     dblp dblp.syn\n\
     xmark xmark.syn\n";
  let reg = Engine.Registry.create () in
  (match Engine.Registry.load_manifest reg manifest with
   | Ok n -> checki "three tenants" 3 n
   | Error e -> Alcotest.failf "manifest: %s" (Core.Error.to_string e));
  checks "sorted names" "dblp,paper,xmark"
    (String.concat "," (List.map fst (Engine.Registry.tenants reg)));
  checkb "USE pages in" true (use_ok reg "paper" = `Loaded);
  checkb "second USE is resident" true (use_ok reg "paper" = `Resident);
  (match Engine.Registry.load_manifest reg "/nonexistent/manifest" with
   | Ok _ -> Alcotest.fail "missing manifest accepted"
   | Error e ->
     checkb "missing-file" true (Core.Error.kind e = Core.Error.Missing_file));
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* LRU paging under the budget *)

let test_lru_eviction_order () =
  let _dir, tenants = fixture_dir () in
  let total =
    List.fold_left
      (fun acc (_, _, syn) -> acc + Core.Synopsis.size_in_bytes syn)
      0 tenants
  in
  (* Any two synopses fit; all three never do. *)
  let budget = total - 1 in
  let reg = registry_of ~memory_budget:budget tenants in
  ignore (use_ok reg "paper");
  ignore (use_ok reg "dblp");
  ignore (use_ok reg "xmark");
  (* paper was least recently used: it pages out first. *)
  checks "paper evicted" "dblp,xmark"
    (String.concat "," (resident_names reg));
  checki "one eviction" 1 (Engine.Registry.evictions reg);
  (* Refresh dblp, then bring paper back: xmark is now the LRU victim. *)
  checkb "dblp still resident" true (use_ok reg "dblp" = `Resident);
  checkb "paper pages back in" true (use_ok reg "paper" = `Loaded);
  checks "xmark evicted" "dblp,paper"
    (String.concat "," (resident_names reg));
  checki "two evictions" 2 (Engine.Registry.evictions reg);
  checki "four page-ins" 4 (Engine.Registry.page_ins reg);
  Engine.Registry.close reg;
  checki "close evicts the rest" 0 (Engine.Registry.resident_count reg)

let test_memory_accounting () =
  let _dir, tenants = fixture_dir () in
  let budget = size_of tenants "dblp" + size_of tenants "xmark" + 1 in
  let reg = registry_of ~memory_budget:budget tenants in
  let audit () =
    let sum =
      List.fold_left
        (fun acc (_, size) -> acc + Option.value size ~default:0)
        0
        (Engine.Registry.tenants reg)
    in
    checki "resident_bytes = sum of resident sizes" sum
      (Engine.Registry.resident_bytes reg);
    checkb "within budget" true (Engine.Registry.resident_bytes reg <= budget)
  in
  List.iter
    (fun name ->
      ignore (use_ok reg name);
      audit ())
    [ "paper"; "dblp"; "xmark"; "paper"; "xmark"; "dblp" ];
  Engine.Registry.close reg;
  checki "empty after close" 0 (Engine.Registry.resident_bytes reg)

let test_oversized_tenant () =
  let _dir, tenants = fixture_dir () in
  let budget = size_of tenants "xmark" - 1 in
  let reg = registry_of ~memory_budget:budget tenants in
  (match Engine.Registry.use reg "xmark" with
   | Ok _ -> Alcotest.fail "oversized tenant paged in"
   | Error e ->
     checkb "limit-exceeded" true
       (Core.Error.kind e = Core.Error.Limit_exceeded);
     checkb "names the live limit" true
       (let marker = Printf.sprintf "limit=%d" budget in
        let msg = Core.Error.message e in
        let ml = String.length marker in
        let n = String.length msg in
        let rec scan i =
          i + ml <= n && (String.sub msg i ml = marker || scan (i + 1))
        in
        scan 0));
  checki "nothing resident" 0 (Engine.Registry.resident_count reg);
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* Eviction round trips preserve learned state via the journal *)

let test_journal_flush_and_replay () =
  let dir, tenants = fixture_dir () in
  let wal_dir = Filename.concat dir "wal" in
  Sys.mkdir wal_dir 0o700;
  (* Budget holds exactly one tenant at a time: every USE of another
     tenant evicts the current one. *)
  let budget =
    List.fold_left (fun acc (n, _, _) -> max acc (size_of tenants n)) 0 tenants
  in
  let reg =
    registry_of ~memory_budget:budget ~journal_dir:wal_dir tenants
  in
  let session = Engine.Registry.session reg in
  let server = Engine.Registry.server session in
  checks "USE dblp" "OK dblp loaded" (req session "USE dblp");
  (* A child-only absolute path: the one shape HET feedback refines, so
     the round trip has learned state to lose. *)
  let query = "/dblp/article/author" in
  let before =
    match estimate server query with
    | Ok r -> r.Engine.Serve.value
    | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
  in
  (match server.Engine.Serve.feedback query ~actual:999 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "feedback: %s" (Core.Error.to_string e));
  let after =
    match estimate server query with
    | Ok r -> r.Engine.Serve.value
    | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
  in
  (* Evict dblp by using another tenant; its journal must hit the disk
     before the engine is released. *)
  checks "USE xmark evicts dblp" "OK xmark loaded" (req session "USE xmark");
  checkb "dblp paged out" true
    (not (List.mem "dblp" (resident_names reg)));
  let wal = Filename.concat wal_dir "dblp.wal" in
  checkb "journal flushed to disk" true (Sys.file_exists wal);
  (match Engine.Journal.scan_file wal with
   | Ok scan ->
     checki "one durable feedback entry" 1 (List.length scan.Engine.Journal.entries);
     checkb "clean tail" true (scan.Engine.Journal.tail = Engine.Journal.Clean)
   | Error e -> Alcotest.failf "scan: %s" (Core.Error.to_string e));
  (* Page dblp back in: the journal replays through the feedback path, so
     the refined estimate survives the round trip bit-for-bit. *)
  checks "USE dblp reloads" "OK dblp loaded" (req session "USE dblp");
  checkb "journal replayed" true (Engine.Registry.journal_replayed reg >= 1);
  let reloaded =
    match estimate server query with
    | Ok r -> r.Engine.Serve.value
    | Error e -> Alcotest.failf "estimate: %s" (Core.Error.to_string e)
  in
  checkb "refinement survived the round trip" true (reloaded = after);
  checkb "feedback actually changed the estimate" true (before <> after);
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* Acceptance: registry estimates are bit-identical to dedicated engines *)

let dedicated_engine syn =
  let estimator =
    Core.Estimator.create
      ~card_threshold:(Core.Synopsis.card_threshold syn)
      ?het:(Core.Synopsis.het syn)
      ?values:(Core.Synopsis.values syn)
      (Core.Synopsis.kernel syn)
  in
  Engine.Pool.create ~workers:1 estimator

let queries_of = function
  | "paper" -> [ "/A/B"; "//B"; "/A//C" ]
  | "dblp" -> [ "//article"; "//article/author"; "/dblp/article/title" ]
  | _ -> [ "//item"; "//person"; "//item/name" ]

let test_differential_vs_dedicated () =
  let _dir, tenants = fixture_dir () in
  let total =
    List.fold_left
      (fun acc (_, _, syn) -> acc + Core.Synopsis.size_in_bytes syn)
      0 tenants
  in
  (* The acceptance bar: one process hosts all three tenants under a
     budget smaller than the sum of the synopses, interleaving USEs so
     evictions actually happen mid-workload. *)
  let reg = registry_of ~memory_budget:(total - 1) tenants in
  let session = Engine.Registry.session reg in
  let server = Engine.Registry.server session in
  let dedicated =
    List.map (fun (name, _, syn) -> (name, dedicated_engine syn)) tenants
  in
  for _round = 1 to 2 do
    List.iter
      (fun (name, _, _) ->
        checkb "USE ok" true
          (let r = req session ("USE " ^ name) in
           String.length r >= 2 && String.sub r 0 2 = "OK");
        let engine = List.assoc name dedicated in
        List.iter
          (fun q ->
            let via_registry =
              match estimate server q with
              | Ok r -> r.Engine.Serve.value
              | Error e ->
                Alcotest.failf "registry %s %s: %s" name q
                  (Core.Error.to_string e)
            in
            let via_dedicated =
              match Engine.Pool.estimate engine q with
              | Ok r -> r.Engine.Serve.value
              | Error e ->
                Alcotest.failf "dedicated %s %s: %s" name q
                  (Core.Error.to_string e)
            in
            checkb
              (Printf.sprintf "%s %s bit-identical" name q)
              true
              (via_registry = via_dedicated))
          (queries_of name))
      tenants
  done;
  checkb "evictions happened mid-workload" true
    (Engine.Registry.evictions reg > 0);
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* USE racing eviction across domains *)

let test_concurrent_use_during_evict () =
  let _dir, tenants = fixture_dir () in
  (* Budget fits roughly one tenant, so every domain's USE keeps evicting
     the others' residents while they serve. The registry lock must make
     each USE+estimate atomic: no half-released engine is ever observed. *)
  let budget =
    List.fold_left (fun acc (n, _, _) -> max acc (size_of tenants n)) 0 tenants
  in
  let reg = registry_of ~memory_budget:budget tenants in
  let failures = Atomic.make 0 in
  (* Start barrier: all domains begin hammering together so USEs really do
     race evictions instead of running back to back. *)
  let start = Atomic.make 0 in
  let n_domains = List.length tenants in
  let domains =
    List.map
      (fun (name, _, _) ->
        Domain.spawn (fun () ->
            Atomic.incr start;
            while Atomic.get start < n_domains do
              Domain.cpu_relax ()
            done;
            let session = Engine.Registry.session reg in
            let server = Engine.Registry.server session in
            let q = List.hd (queries_of name) in
            let expected = ref None in
            for _i = 1 to 30 do
              (match Engine.Registry.use reg name with
               | Ok _ -> ()
               | Error _ -> Atomic.incr failures);
              ignore (req session ("USE " ^ name) : string);
              match estimate server q with
              | Ok r ->
                (match !expected with
                 | None -> expected := Some r.Engine.Serve.value
                 | Some v ->
                   if v <> r.Engine.Serve.value then Atomic.incr failures)
              | Error _ -> Atomic.incr failures
            done))
      tenants
  in
  List.iter Domain.join domains;
  checki "no failed or unstable ops" 0 (Atomic.get failures);
  checkb "budget still holds" true
    (Engine.Registry.resident_bytes reg <= budget);
  (* paper and dblp can coexist under the budget, so the floor is the
     xmark swaps — at least one eviction must have happened. *)
  checkb "evictions were exercised" true (Engine.Registry.evictions reg > 0);
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* Session protocol: USE / LOAD / TENANTS through the serve layer *)

let test_session_protocol () =
  let dir, tenants = fixture_dir () in
  let reg = registry_of tenants in
  let session = Engine.Registry.session reg in
  checks "PING works tenant-less" "OK pong" (req session "PING");
  checks "VERSION works tenant-less"
    (Printf.sprintf "OK xseed %s protocol %d" Engine.Serve.version
       Engine.Serve.protocol_version)
    (req session "VERSION");
  checks "no tenant selected"
    "ERR malformed-query no tenant selected (USE <tenant>)"
    (req session "ESTIMATE //article");
  checks "unknown tenant"
    "ERR malformed-query unknown tenant \"nope\" (LOAD <tenant> <path> first)"
    (req session "USE nope");
  checks "USE with junk"
    "ERR malformed-query USE expects exactly one tenant name"
    (req session "USE dblp extra");
  checks "TENANTS before loading" "OK 3\ndblp paged-out\npaper paged-out\nxmark paged-out"
    (req session "TENANTS");
  checks "USE loads" "OK dblp loaded" (req session "USE dblp");
  checks "USE again is resident" "OK dblp resident" (req session "USE dblp");
  checkb "active tenant tracked" true
    (Engine.Registry.active session = Some "dblp");
  (* LOAD registers + pages in but does not switch the session. *)
  let extra_path = Filename.concat dir "paper.syn" in
  checks "LOAD new tenant"
    (Printf.sprintf "OK extra loaded %d"
       (size_of tenants "paper"))
    (req session (Printf.sprintf "LOAD extra %s" extra_path));
  checkb "LOAD does not switch the session" true
    (Engine.Registry.active session = Some "dblp");
  checkb "estimate routes to the active tenant" true
    (let r = req session "ESTIMATE //article" in
     String.length r >= 2 && String.sub r 0 2 = "OK");
  (* Core verbs still work untouched behind the extra handler. *)
  checkb "unknown verb is one ERR" true
    (let r = req session "NONSENSE" in
     String.length r >= 3 && String.sub r 0 3 = "ERR");
  Engine.Registry.close reg

(* A LOAD whose synopsis header does not parse answers the serve layer's
   ERR line, position included. *)
let test_load_corrupt_synopsis () =
  let dir, tenants = fixture_dir () in
  let _, _, syn = List.hd tenants in
  let lines = String.split_on_char '\n' (Core.Synopsis.to_string syn) in
  let path = Filename.concat dir "corrupt.syn" in
  write_file path
    (String.concat "\n"
       (List.mapi
          (fun i l -> if i = 1 then "card_threshold bogus" else l)
          lines));
  let reg = registry_of tenants in
  let session = Engine.Registry.session reg in
  checks "LOAD of a corrupt v2 header"
    "ERR corrupt-synopsis bad card_threshold \"bogus\" (at 2)"
    (req session (Printf.sprintf "LOAD broken %s" path));
  Engine.Registry.close reg

(* A LOAD whose page-in fails leaves no tenant behind: the name is free
   for a LOAD of a good synopsis. *)
let test_failed_load_unregisters () =
  let dir, tenants = fixture_dir () in
  let _, good, _ = List.hd tenants in
  let corrupt = Filename.concat dir "corrupt.syn" in
  write_file corrupt "not a synopsis\n";
  let reg = registry_of tenants in
  let session = Engine.Registry.session reg in
  checkb "LOAD of a corrupt synopsis fails" true
    (String.starts_with ~prefix:"ERR corrupt-synopsis "
       (req session (Printf.sprintf "LOAD broken %s" corrupt)));
  checks "TENANTS does not list it"
    "OK 3\ndblp paged-out\npaper paged-out\nxmark paged-out"
    (req session "TENANTS");
  checks "the name loads a good synopsis"
    (Printf.sprintf "OK broken loaded %d" (size_of tenants "paper"))
    (req session (Printf.sprintf "LOAD broken %s" good));
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* Tenant-labeled metrics: deterministic scrapes *)

let contains ~needle hay =
  let nl = String.length needle and n = String.length hay in
  let rec scan i = i + nl <= n && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

let test_metrics_tenant_labels () =
  let _dir, tenants = fixture_dir () in
  let reg = registry_of tenants in
  let session = Engine.Registry.session reg in
  ignore (req session "USE dblp" : string);
  ignore (req session "ESTIMATE //article" : string);
  ignore (req session "USE xmark" : string);
  ignore (req session "ESTIMATE //item" : string);
  let scrape = Engine.Registry.metrics_text reg in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "scrape has %s" needle) true
        (contains ~needle scrape))
    [ "tenant=\"dblp\"";
      "tenant=\"xmark\"";
      "xseed_engine_cache_misses{tenant=\"dblp\"}";
      "xseed_registry_tenants_registered 3";
      "xseed_registry_tenants_resident 2";
      "xseed_registry_page_ins 2";
      "xseed_registry_evictions 0" ];
  (* A quiet registry scrapes byte-identically: publishes are idempotent
     and series render in sorted order. *)
  checks "quiet scrapes byte-identical" scrape
    (Engine.Registry.metrics_text reg);
  checks "and again via the session server" scrape
    ((Engine.Registry.server session).Engine.Serve.metrics_text ());
  (* Flight records carry the tenant that served them. *)
  (match (Engine.Registry.server session).Engine.Serve.recent None with
   | Ok (r :: _) ->
     checkb "flight record is tenant-stamped" true
       (r.Engine.Flight_recorder.tenant = Some "xmark")
   | Ok [] -> Alcotest.fail "no flight records"
   | Error e -> Alcotest.failf "recent: %s" (Core.Error.to_string e));
  (* ... and the RECENT protocol rendering carries it too. *)
  let recent = req session "RECENT 5" in
  checkb "RECENT reply is tenant-stamped" true
    (contains ~needle:"\"tenant\":\"xmark\"" recent);
  Engine.Registry.close reg

(* ------------------------------------------------------------------ *)
(* Shadow auditing through the registry: manifest doc= fields arm a
   per-tenant auditor at page-in; tenants without a document never audit;
   eviction shuts the auditor down and re-page-in re-arms it. *)

let test_manifest_doc_audit () =
  let dir, _tenants = fixture_dir () in
  (* Source documents beside the synopses, named by relative doc= paths. *)
  List.iter
    (fun (name, doc) ->
      write_file (Filename.concat dir (name ^ ".xml")) doc)
    (Lazy.force docs);
  let manifest = Filename.concat dir "manifest.txt" in
  write_file manifest
    "# audited and unaudited tenants\n\
     xmark xmark.syn doc=xmark.xml\n\
     dblp dblp.syn\n";
  let reg = Engine.Registry.create ~audit_rate:1.0 () in
  (match Engine.Registry.load_manifest reg manifest with
   | Ok n -> checki "two tenants" 2 n
   | Error e -> Alcotest.failf "manifest: %s" (Core.Error.to_string e));
  let session = Engine.Registry.session reg in
  ignore (req session "USE xmark" : string);
  ignore (req session "ESTIMATE //item" : string);
  ignore (req session "ESTIMATE /site/people/person" : string);
  let audit = req session "AUDIT" in
  checkb "AUDIT answers for a doc-backed tenant" true
    (String.length audit > 4 && String.sub audit 0 4 = "OK {");
  checkb "both estimates audited at rate 1.0" true
    (contains ~needle:"\"completed\":2" audit);
  (* The AUDIT verb drained, so the attribution records are visible in the
     tenant's RECENT stream, tenant-stamped. *)
  let recent = req session "RECENT 10" in
  checkb "audit record in RECENT" true
    (contains ~needle:"\"cache\":\"audit\"" recent);
  checkb "attribution payload in RECENT" true
    (contains ~needle:"\"audit\":{" recent);
  checkb "audit record is tenant-stamped" true
    (contains ~needle:"\"tenant\":\"xmark\"" recent);
  (* Audit series land in the tenant-labeled registry scrape. *)
  let scrape = Engine.Registry.metrics_text reg in
  checkb "audit counter scraped with the tenant label" true
    (contains ~needle:"xseed_engine_audit_completed{tenant=\"xmark\"} 2"
       scrape);
  (* A tenant without a doc= never audits. *)
  ignore (req session "USE dblp" : string);
  let disabled = req session "AUDIT" in
  checkb "AUDIT refused without a document" true
    (contains ~needle:"ERR internal auditing is disabled" disabled);
  (* Eviction shuts the auditor down; re-page-in arms a fresh one. *)
  checkb "evict xmark" true (Engine.Registry.evict reg "xmark");
  ignore (req session "USE xmark" : string);
  ignore (req session "ESTIMATE //item" : string);
  let audit2 = req session "AUDIT" in
  checkb "fresh auditor after re-page-in" true
    (contains ~needle:"\"completed\":1" audit2);
  Engine.Registry.close reg

let () =
  Alcotest.run "registry"
    [ ( "registration",
        [ Alcotest.test_case "name validation" `Quick test_register_validation;
          Alcotest.test_case "manifest" `Quick test_manifest ] );
      ( "paging",
        [ Alcotest.test_case "LRU eviction order" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
          Alcotest.test_case "oversized tenant refused" `Quick
            test_oversized_tenant ] );
      ( "durability",
        [ Alcotest.test_case "journal flush and replay" `Quick
            test_journal_flush_and_replay ] );
      ( "differential",
        [ Alcotest.test_case "bit-identical vs dedicated engines" `Quick
            test_differential_vs_dedicated ] );
      ( "concurrency",
        [ Alcotest.test_case "USE racing eviction" `Quick
            test_concurrent_use_during_evict ] );
      ( "protocol",
        [ Alcotest.test_case "USE/LOAD/TENANTS session" `Quick
            test_session_protocol;
          Alcotest.test_case "LOAD of a corrupt synopsis" `Quick
            test_load_corrupt_synopsis;
          Alcotest.test_case "failed LOAD leaves no tenant" `Quick
            test_failed_load_unregisters ] );
      ( "metrics",
        [ Alcotest.test_case "tenant labels, deterministic scrape" `Quick
            test_metrics_tenant_labels ] );
      ( "audit",
        [ Alcotest.test_case "manifest doc= arms per-tenant auditors" `Quick
            test_manifest_doc_audit ] )
    ]
