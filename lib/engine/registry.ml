(* The multi-tenant synopsis registry. One mutex serializes everything —
   registration, page-in/page-out, and the serving calls routed through a
   session — so an eviction can never race a USE into a half-released
   engine. That serialization is the point: the registry is the
   many-documents axis of scaling (millions of users across many corpora),
   while a multi-worker [Pool] is the many-cores axis for one hot synopsis.
   Each resident tenant is a one-worker pool, which serves on the calling
   thread and spawns no domain, so residency is not capped by the
   runtime's domain limit. *)

(* A resident tenant: its engine plus everything eviction must release. *)
type resident = {
  engine : Pool.t;
  syn_bytes : int;  (* Synopsis.size_in_bytes at page-in, charged to the budget *)
  auditor : Auditor.t option;
  journal : Journal.writer option;
  tenant_server : Serve.server;  (* engine server, journal-wrapped *)
}

type tenant = {
  name : string;
  path : string;
  doc : string option;
      (* the tenant's source document, from the manifest's doc= field;
         shadow auditing is only armed for tenants that declare one *)
  mutable state : resident option;
  mutable last_used : int;  (* registry tick at last touch; LRU order *)
  mutable page_ins : int;
}

type t = {
  mutex : Mutex.t;
  table : (string, tenant) Hashtbl.t;
  mutable tick : int;
  mutable resident_bytes : int;
  mutable evictions : int;
  mutable page_ins_total : int;
  mutable journal_replayed : int;
  memory_budget : int option;
  het_budget : int option;
  qerror_threshold : float;
  cache_capacity : int;
  drift_p90_threshold : float;
  journal_dir : string option;
  journal_fsync : Journal.fsync;
  audit_rate : float;
  audit_seed : int option;
  audit_feedback : bool;
  scrape : Scrape_meter.t;
  obs : Obs.t;  (* registry-level series; tenant registries live per tenant *)
}

let create ?memory_budget ?het_budget ?(qerror_threshold = 2.0)
    ?(cache_capacity = 1024) ?(drift_p90_threshold = 8.0)
    ?journal_dir ?(journal_fsync = `Always) ?(audit_rate = 0.0) ?audit_seed
    ?(audit_feedback = false) () =
  (match memory_budget with
   | Some b when b < 1 ->
     invalid_arg (Printf.sprintf "Registry.create: memory_budget %d < 1" b)
   | _ -> ());
  (match het_budget with
   | Some b when b < 1 ->
     invalid_arg (Printf.sprintf "Registry.create: het_budget %d < 1" b)
   | _ -> ());
  if not (Float.is_finite audit_rate) || audit_rate < 0.0 || audit_rate > 1.0
  then invalid_arg "Registry.create: audit_rate must be within [0, 1]";
  { mutex = Mutex.create ();
    table = Hashtbl.create 16;
    tick = 0;
    resident_bytes = 0;
    evictions = 0;
    page_ins_total = 0;
    journal_replayed = 0;
    memory_budget;
    het_budget;
    qerror_threshold;
    cache_capacity;
    drift_p90_threshold;
    journal_dir;
    journal_fsync;
    audit_rate;
    audit_seed;
    audit_feedback;
    scrape = Scrape_meter.create ();
    obs = Obs.create () }

(* Tenant names travel inside protocol lines (space-separated) and become
   journal file names, so the alphabet is deliberately narrow. *)
let valid_name name =
  name <> "" && name <> "." && name <> ".."
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name

let bad_name name =
  Core.Error.make Core.Error.Malformed_query
    (Printf.sprintf
       "invalid tenant name %S (allowed: letters, digits, '_', '.', '-')"
       name)

let unknown_tenant name =
  Core.Error.make Core.Error.Malformed_query
    (Printf.sprintf "unknown tenant %S (LOAD <tenant> <path> first)" name)

let no_tenant () =
  Core.Error.make Core.Error.Malformed_query "no tenant selected (USE <tenant>)"

let register_locked ?doc t ~name ~path =
  if not (valid_name name) then Error (bad_name name)
  else if Hashtbl.mem t.table name then
    Error
      (Core.Error.make Core.Error.Malformed_query
         (Printf.sprintf "tenant %S already registered" name))
  else begin
    Hashtbl.replace t.table name
      { name; path; doc; state = None; last_used = 0; page_ins = 0 };
    Ok ()
  end

let register ?doc t ~name ~path =
  Mutex.protect t.mutex (fun () -> register_locked ?doc t ~name ~path)

let load_manifest t manifest_path =
  match Core.Error.read_file manifest_path with
  | Error e -> Error e
  | Ok contents ->
    let dir = Filename.dirname manifest_path in
    let resolve p = if Filename.is_relative p then Filename.concat dir p else p in
    let lines = String.split_on_char '\n' contents in
    let rec go n lineno = function
      | [] -> Ok n
      | raw :: rest ->
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then go n (lineno + 1) rest
        else begin
          match String.index_opt line ' ' with
          | None ->
            Error
              (Core.Error.make ~position:lineno Core.Error.Malformed_query
                 (Printf.sprintf
                    "manifest %s line %d: expected '<tenant> <path>'"
                    manifest_path lineno))
          | Some i ->
            let name = String.sub line 0 i in
            let rest_of_line =
              String.sub line i (String.length line - i)
            in
            (* An optional trailing " doc=<path>" arms shadow auditing for
               this tenant; everything before it is the synopsis path. *)
            let path, doc =
              let marker = " doc=" in
              let mlen = String.length marker in
              let rec find j =
                if j + mlen > String.length rest_of_line then None
                else if String.sub rest_of_line j mlen = marker then Some j
                else find (j + 1)
              in
              match find 0 with
              | None -> (String.trim rest_of_line, None)
              | Some j ->
                let p = String.trim (String.sub rest_of_line 0 j) in
                let d =
                  String.trim
                    (String.sub rest_of_line (j + mlen)
                       (String.length rest_of_line - j - mlen))
                in
                (p, if d = "" then None else Some d)
            in
            (match
               Mutex.protect t.mutex (fun () ->
                   register_locked
                     ?doc:(Option.map resolve doc)
                     t ~name ~path:(resolve path))
             with
             | Ok () -> go (n + 1) (lineno + 1) rest
             | Error e -> Error e)
        end
    in
    go 0 1 lines

let touch_locked t tenant =
  t.tick <- t.tick + 1;
  tenant.last_used <- t.tick

(* Page-out: flush the journal (the ack contract says every acknowledged
   FEEDBACK is already framed on disk — close makes it durable), shut the
   engine and its auditor down, and release the synopsis. The tenant
   record survives so a later USE pages it back in. *)
let evict_locked t tenant =
  match tenant.state with
  | None -> false
  | Some r ->
    (match r.journal with Some w -> Journal.close w | None -> ());
    Pool.shutdown r.engine;
    Option.iter Auditor.shutdown r.auditor;
    tenant.state <- None;
    t.resident_bytes <- t.resident_bytes - r.syn_bytes;
    t.evictions <- t.evictions + 1;
    true

(* Evict least-recently-used residents (never [keep]) until [need] more
   bytes fit under the budget. Caller guarantees [need] alone fits. *)
let make_room_locked t ~keep ~need =
  match t.memory_budget with
  | None -> ()
  | Some budget ->
    while t.resident_bytes + need > budget do
      let victim =
        Hashtbl.fold
          (fun _ tenant acc ->
            if tenant.name = keep || tenant.state = None then acc
            else
              match acc with
              | Some best when best.last_used <= tenant.last_used -> acc
              | _ -> Some tenant)
          t.table None
      in
      match victim with
      | Some v -> ignore (evict_locked t v : bool)
      | None ->
        (* Nothing left to evict; the while condition cannot progress. *)
        raise Exit
    done

let journal_path t tenant =
  Option.map
    (fun dir -> Filename.concat dir (tenant.name ^ ".wal"))
    t.journal_dir

(* Wrap the engine's serve vtable with the per-tenant concerns: journal
   append-before-ack on feedback, the tenant= stamp on PROFILE replies,
   and STATS nesting. METRICS is rewired by the session (it is a
   registry-wide scrape, not a per-tenant one). *)
let tenant_server_of tenant ~journal base =
  let base =
    match journal with None -> base | Some w -> Journal.wrap_server w base
  in
  { base with
    Serve.profile =
      (fun qs ->
        match base.Serve.profile qs with
        | Ok p -> Ok { p with Serve.tenant = Some tenant.name }
        | Error e -> Error e) }

let page_in_locked t tenant =
  match Core.Error.read_file tenant.path with
  | Error e -> Error e
  | Ok contents ->
    (match Core.Synopsis.of_string_result contents with
     | Error e -> Error e
     | Ok syn ->
       let bytes = Core.Synopsis.size_in_bytes syn in
       (match t.memory_budget with
        | Some budget when bytes > budget ->
          Error
            (Core.Error.make Core.Error.Limit_exceeded
               (Printf.sprintf
                  "tenant %S synopsis is %d bytes, over the registry memory \
                   budget limit=%d (server --memory-budget)"
                  tenant.name bytes budget))
        | _ ->
          (match make_room_locked t ~keep:tenant.name ~need:bytes with
           | () -> ()
           | exception Exit -> ());
          (* Per-tenant HET learning budget: cap what feedback may grow. *)
          (match (t.het_budget, Core.Synopsis.het syn) with
           | Some b, Some het -> Core.Het.set_budget het ~bytes:b
           | _ -> ());
          (* The tenant estimator counts FEEDBACK/EXPLAIN pipeline work
             into a registry of its own, which the pool's merged metrics
             (the tenant's labeled METRICS series) include. *)
          let estimator =
            Core.Estimator.with_obs (Core.Synopsis.estimator syn) (Obs.create ())
          in
          (* Shadow auditing arms only for tenants that declared a source
             document, and only when the registry was given a sample rate.
             The auditor dies with the residency: eviction shuts it down,
             a later page-in builds a fresh one. *)
          let auditor =
            match (tenant.doc, t.audit_rate > 0.0) with
            | Some doc, true ->
              Some
                (Auditor.create ?seed:t.audit_seed ~feedback:t.audit_feedback
                   ~rate:t.audit_rate
                   (Auditor.Paths { synopsis = tenant.path; doc }))
            | _ -> None
          in
          let engine =
            Pool.create ~workers:1 ~qerror_threshold:t.qerror_threshold
              ~cache_capacity:t.cache_capacity
              ~drift_p90_threshold:t.drift_p90_threshold ?auditor estimator
          in
          Pool.set_tenant engine tenant.name;
          let base = Pool.server engine in
          (* The journal replays through the live feedback path, so the
             learned HET/feedback state of the evicted (or crashed) tenant
             is reproduced before the first request. *)
          let journal_result =
            match journal_path t tenant with
            | None -> Ok None
            | Some path ->
              Result.map
                (fun ((scan : Journal.scan), _failed, w) ->
                  t.journal_replayed <- t.journal_replayed + scan.frames;
                  Some w)
                (Journal.resume ~fsync:t.journal_fsync path base)
          in
          (match journal_result with
           | Error e ->
             Pool.shutdown engine;
             Option.iter Auditor.shutdown auditor;
             Error e
           | Ok journal ->
             let tenant_server = tenant_server_of tenant ~journal base in
             tenant.state <-
               Some { engine; syn_bytes = bytes; auditor; journal; tenant_server };
             tenant.page_ins <- tenant.page_ins + 1;
             t.page_ins_total <- t.page_ins_total + 1;
             t.resident_bytes <- t.resident_bytes + bytes;
             Ok ())))

let find_locked t name =
  match Hashtbl.find_opt t.table name with
  | None -> Error (unknown_tenant name)
  | Some tenant -> Ok tenant

let ensure_resident_locked t tenant =
  match tenant.state with
  | Some _ ->
    touch_locked t tenant;
    Ok `Resident
  | None ->
    (match page_in_locked t tenant with
     | Ok () ->
       touch_locked t tenant;
       Ok `Loaded
     | Error e -> Error e)

let use t name =
  Mutex.protect t.mutex (fun () ->
      match find_locked t name with
      | Error e -> Error e
      | Ok tenant -> ensure_resident_locked t tenant)

(* LOAD: register and page in under one hold of the mutex. A tenant whose
   first page-in fails is unregistered again, so the name stays free. *)
let load t ~name ~path =
  Mutex.protect t.mutex (fun () ->
      match register_locked t ~name ~path with
      | Error e -> Error e
      | Ok () ->
        let tenant = Hashtbl.find t.table name in
        (match ensure_resident_locked t tenant with
         | Error e ->
           Hashtbl.remove t.table name;
           Error e
         | Ok _ ->
           Ok (match tenant.state with Some r -> r.syn_bytes | None -> 0)))

let evict t name =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.table name with
      | None -> false
      | Some tenant -> evict_locked t tenant)

let tenants t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun name tenant acc ->
          (name, Option.map (fun r -> r.syn_bytes) tenant.state) :: acc)
        t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let registered_count t =
  Mutex.protect t.mutex (fun () -> Hashtbl.length t.table)

let resident_count t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun _ tenant n -> if tenant.state = None then n else n + 1)
        t.table 0)

let resident_bytes t = Mutex.protect t.mutex (fun () -> t.resident_bytes)
let evictions t = Mutex.protect t.mutex (fun () -> t.evictions)
let page_ins t = Mutex.protect t.mutex (fun () -> t.page_ins_total)
let journal_replayed t = Mutex.protect t.mutex (fun () -> t.journal_replayed)

(* Registry-level series, republished idempotently before every scrape so
   quiet re-scrapes render byte-identical. *)
let publish_locked t =
  let registered = Hashtbl.length t.table in
  let resident =
    Hashtbl.fold
      (fun _ tenant n -> if tenant.state = None then n else n + 1)
      t.table 0
  in
  Obs.gset (Obs.gauge t.obs "registry.tenants.registered")
    (float_of_int registered);
  Obs.gset (Obs.gauge t.obs "registry.tenants.resident") (float_of_int resident);
  Obs.gset (Obs.gauge t.obs "registry.bytes.resident")
    (float_of_int t.resident_bytes);
  Obs.gset (Obs.gauge t.obs "registry.bytes.budget")
    (float_of_int (Option.value t.memory_budget ~default:0));
  Obs.set_max (Obs.counter t.obs "registry.evictions") t.evictions;
  Obs.set_max (Obs.counter t.obs "registry.page_ins") t.page_ins_total;
  Obs.set_max (Obs.counter t.obs "registry.journal.replayed") t.journal_replayed

let metrics_text t =
  Mutex.protect t.mutex (fun () ->
      let t0 = Obs.now_mono () in
      (* The registry tick advances on every serving touch and never on a
         scrape, so it is the meter's served-traffic anchor. *)
      Scrape_meter.publish t.scrape ~obs:t.obs ~served:t.tick;
      publish_locked t;
      let parts =
        Hashtbl.fold
          (fun name tenant acc ->
            match tenant.state with
            | None -> acc
            | Some r ->
              ([ ("tenant", name) ], Pool.merged_metrics r.engine) :: acc)
          t.table
          [ ([], t.obs) ]
      in
      let text = Obs.prometheus ~prefix:"xseed_" (Obs.merged_labeled parts) in
      Scrape_meter.note t.scrape (Obs.now_mono () -. t0);
      text)

let stats_locked t =
  publish_locked t;
  let tenants =
    Hashtbl.fold
      (fun name tenant acc ->
        ( name,
          match tenant.state with
          | None -> Obs.Json.Null
          | Some r -> Obs.Json.Int r.syn_bytes )
        :: acc)
      t.table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Obs.Json.Obj
    [ ("registered", Obs.Json.Int (Hashtbl.length t.table));
      ( "resident",
        Obs.Json.Int
          (List.length (List.filter (fun (_, v) -> v <> Obs.Json.Null) tenants))
      );
      ("resident_bytes", Obs.Json.Int t.resident_bytes);
      ( "memory_budget",
        match t.memory_budget with
        | None -> Obs.Json.Null
        | Some b -> Obs.Json.Int b );
      ("evictions", Obs.Json.Int t.evictions);
      ("page_ins", Obs.Json.Int t.page_ins_total);
      ("journal_replayed", Obs.Json.Int t.journal_replayed);
      ("tenants", Obs.Json.Obj tenants) ]

let close t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.iter
        (fun _ tenant -> ignore (evict_locked t tenant : bool))
        t.table)

(* ------------------------------------------------------------------ *)
(* Sessions *)

type session = { registry : t; mutable current : string option }

let session registry = { registry; current = None }
let active s = s.current

(* Serve one request against the session's active tenant, holding the
   registry lock for the whole call so eviction cannot race it. The tenant
   may have been paged out since the USE — it silently pages back in. *)
let with_active s f =
  match s.current with
  | None -> Error (no_tenant ())
  | Some name ->
    Mutex.protect s.registry.mutex (fun () ->
        match find_locked s.registry name with
        | Error e -> Error e
        | Ok tenant ->
          (match ensure_resident_locked s.registry tenant with
           | Error e -> Error e
           | Ok (`Resident | `Loaded) ->
             (match tenant.state with
              | Some r -> Ok (f r.tenant_server)
              | None ->
                Error
                  (Core.Error.make Core.Error.Internal
                     "tenant resident state vanished under the lock"))))

let join = function Ok (Ok v) -> Ok v | Ok (Error e) -> Error e | Error e -> Error e

let server s =
  { Serve.estimate =
      (fun q -> join (with_active s (fun srv -> srv.Serve.estimate q)));
    estimate_batch =
      (fun qs ->
        match with_active s (fun srv -> srv.Serve.estimate_batch qs) with
        | Ok results -> results
        | Error e -> List.map (fun _ -> Error e) qs);
    feedback =
      (fun q ~actual ->
        join (with_active s (fun srv -> srv.Serve.feedback q ~actual)));
    explain = (fun q -> join (with_active s (fun srv -> srv.Serve.explain q)));
    stats_json =
      (fun () ->
        (* Tenant-less STATS still answers: the registry object alone. *)
        let registry_stats =
          Mutex.protect s.registry.mutex (fun () -> stats_locked s.registry)
        in
        match with_active s (fun srv -> srv.Serve.stats_json ()) with
        | Ok tenant_stats ->
          Obs.Json.Obj
            [ ( "tenant",
                Obs.Json.String (Option.value s.current ~default:"") );
              ("engine", tenant_stats);
              ("registry", registry_stats) ]
        | Error _ -> Obs.Json.Obj [ ("registry", registry_stats) ]);
    metrics_text = (fun () -> metrics_text s.registry);
    recent = (fun n -> join (with_active s (fun srv -> srv.Serve.recent n)));
    drift_json =
      (fun () -> join (with_active s (fun srv -> srv.Serve.drift_json ())));
    profile =
      (fun qs -> join (with_active s (fun srv -> srv.Serve.profile qs)));
    audit = (fun () -> join (with_active s (fun srv -> srv.Serve.audit ()))) }

let extra s verb rest =
  match verb with
  | "USE" ->
    Some
      (let name = String.trim rest in
       if name = "" || String.contains name ' ' then
         Serve.malformed "USE expects exactly one tenant name"
       else
         match use s.registry name with
         | Ok how ->
           s.current <- Some name;
           Printf.sprintf "OK %s %s" name
             (match how with `Resident -> "resident" | `Loaded -> "loaded")
         | Error e -> Serve.err e)
  | "LOAD" ->
    Some
      (match String.index_opt rest ' ' with
       | None ->
         Serve.malformed "LOAD expects '<tenant> <path>'"
       | Some i ->
         let name = String.sub rest 0 i in
         let path = String.trim (String.sub rest i (String.length rest - i)) in
         (match load s.registry ~name ~path with
          | Error e -> Serve.err e
          | Ok bytes -> Printf.sprintf "OK %s loaded %d" name bytes))
  | "TENANTS" ->
    Some
      (if String.trim rest <> "" then
         Serve.malformed "TENANTS takes no argument"
       else
         let listing = tenants s.registry in
         String.concat "\n"
           (Printf.sprintf "OK %d" (List.length listing)
           :: List.map
                (fun (name, size) ->
                  match size with
                  | Some bytes -> Printf.sprintf "%s resident %d" name bytes
                  | None -> Printf.sprintf "%s paged-out" name)
                listing))
  | _ -> None
