type simple_entry = {
  card : int;
  sbsel : float option;
  serror : float;
  spath : string option;  (* canonical path key; None on legacy v1 entries *)
}

type branching_entry = { bbsel : float; berror : float; bpath : string option }

type counters = {
  simple_lookups : int;
  simple_hits : int;
  branching_lookups : int;
  branching_hits : int;
  feedback_inserts : int;
  collisions : int;
}

(* Each 32-bit hash maps to a bucket of entries discriminated by their
   canonical path, so two colliding paths coexist instead of the later
   insert silently overwriting the earlier one. Buckets are almost always
   singletons; collisions only show up on 32-bit hash clashes. *)
type t = {
  simple_all : (int, simple_entry list) Hashtbl.t;
  branching_all : (int, branching_entry list) Hashtbl.t;
  simple_active : (int, simple_entry list) Hashtbl.t;
  branching_active : (int, branching_entry list) Hashtbl.t;
  mutable budget : int option;  (* None = unlimited *)
  (* Usage counters (monotonic over the table's lifetime; snapshot and diff
     for per-query numbers). Plain field bumps keep lookups cheap. *)
  mutable n_simple_lookups : int;
  mutable n_simple_hits : int;
  mutable n_branching_lookups : int;
  mutable n_branching_hits : int;
  mutable n_feedback_inserts : int;
  mutable n_collisions : int;
}

let simple_entry_bytes = 16
let branching_entry_bytes = 8

let create () =
  { simple_all = Hashtbl.create 256; branching_all = Hashtbl.create 256;
    simple_active = Hashtbl.create 256; branching_active = Hashtbl.create 256;
    budget = None; n_simple_lookups = 0; n_simple_hits = 0;
    n_branching_lookups = 0; n_branching_hits = 0; n_feedback_inserts = 0;
    n_collisions = 0 }

let counters t =
  { simple_lookups = t.n_simple_lookups; simple_hits = t.n_simple_hits;
    branching_lookups = t.n_branching_lookups;
    branching_hits = t.n_branching_hits;
    feedback_inserts = t.n_feedback_inserts; collisions = t.n_collisions }

let diff_counters ~before ~after =
  { simple_lookups = after.simple_lookups - before.simple_lookups;
    simple_hits = after.simple_hits - before.simple_hits;
    branching_lookups = after.branching_lookups - before.branching_lookups;
    branching_hits = after.branching_hits - before.branching_hits;
    feedback_inserts = after.feedback_inserts - before.feedback_inserts;
    collisions = after.collisions - before.collisions }

let publish_counters ?obs t =
  Obs.add_to ?obs "het.simple_lookups" t.n_simple_lookups;
  Obs.add_to ?obs "het.simple_hits" t.n_simple_hits;
  Obs.add_to ?obs "het.branching_lookups" t.n_branching_lookups;
  Obs.add_to ?obs "het.branching_hits" t.n_branching_hits;
  Obs.add_to ?obs "het.feedback_inserts" t.n_feedback_inserts;
  Obs.add_to ?obs "het.collisions" t.n_collisions

(* Bucket operations. Replacement matches on the canonical path, so the
   final table state does not depend on insertion order: inserting paths A
   then B under one hash leaves the same two bindings as B then A. *)

let bucket_put tbl hash path entry ~path_of =
  let bucket =
    match Hashtbl.find_opt tbl hash with Some b -> b | None -> []
  in
  let bucket = entry :: List.filter (fun e -> path_of e <> path) bucket in
  Hashtbl.replace tbl hash bucket

let bucket_remove tbl hash path ~path_of =
  match Hashtbl.find_opt tbl hash with
  | None -> ()
  | Some bucket ->
    (match List.filter (fun e -> path_of e <> path) bucket with
     | [] -> Hashtbl.remove tbl hash
     | rest -> Hashtbl.replace tbl hash rest)

(* Resolve a lookup against a bucket. A caller-supplied path only accepts
   its own entry or a legacy path-less one; a pathless lookup prefers the
   deterministically smallest path so the answer is insertion-order
   independent even under collision. *)
let bucket_find t bucket path ~path_of =
  let ambiguous = match bucket with _ :: _ :: _ -> true | _ -> false in
  let found =
    match path with
    | Some _ ->
      (match List.find_opt (fun e -> path_of e = path) bucket with
       | Some _ as hit -> hit
       | None ->
         (match List.find_opt (fun e -> path_of e = None) bucket with
          | Some _ as legacy -> legacy
          | None ->
            (* Only mismatching paths under this hash: a detected
               collision, not a hit. *)
            t.n_collisions <- t.n_collisions + 1;
            None))
    | None ->
      (match bucket with
       | [ e ] -> Some e
       | [] -> None
       | es ->
         Some
           (List.fold_left
              (fun best e -> if path_of e < path_of best then e else best)
              (List.hd es) (List.tl es)))
  in
  if ambiguous && found <> None then t.n_collisions <- t.n_collisions + 1;
  found

let spath e = e.spath
let bpath e = e.bpath

let add_simple ?path t ~hash ~card ~bsel ~error =
  let e = { card; sbsel = bsel; serror = error; spath = path } in
  bucket_put t.simple_all hash path e ~path_of:spath;
  if t.budget = None then bucket_put t.simple_active hash path e ~path_of:spath

let add_branching ?path t ~hash ~bsel ~error =
  let e = { bbsel = bsel; berror = error; bpath = path } in
  bucket_put t.branching_all hash path e ~path_of:bpath;
  if t.budget = None then
    bucket_put t.branching_active hash path e ~path_of:bpath

(* All entries, largest error first; simple before branching on ties since a
   simple-path miss also poisons every estimate passing through it. *)
let ranked t =
  let items = ref [] in
  Hashtbl.iter
    (fun h es ->
      List.iter (fun e -> items := (e.serror, 0, `Simple (h, e)) :: !items) es)
    t.simple_all;
  Hashtbl.iter
    (fun h es ->
      List.iter (fun e -> items := (e.berror, 1, `Branching (h, e)) :: !items) es)
    t.branching_all;
  List.sort
    (fun (e1, k1, _) (e2, k2, _) ->
      let c = Float.compare e2 e1 in
      if c <> 0 then c else Int.compare k1 k2)
    !items

let set_budget t ~bytes =
  t.budget <- Some bytes;
  Hashtbl.reset t.simple_active;
  Hashtbl.reset t.branching_active;
  let remaining = ref bytes in
  List.iter
    (fun (_, _, entry) ->
      match entry with
      | `Simple (h, e) ->
        if !remaining >= simple_entry_bytes then begin
          remaining := !remaining - simple_entry_bytes;
          bucket_put t.simple_active h e.spath e ~path_of:spath
        end
      | `Branching (h, e) ->
        if !remaining >= branching_entry_bytes then begin
          remaining := !remaining - branching_entry_bytes;
          bucket_put t.branching_active h e.bpath e ~path_of:bpath
        end)
    (ranked t)

let unlimited_budget t =
  t.budget <- None;
  Hashtbl.reset t.simple_active;
  Hashtbl.reset t.branching_active;
  Hashtbl.iter (fun h es -> Hashtbl.replace t.simple_active h es) t.simple_all;
  Hashtbl.iter
    (fun h es -> Hashtbl.replace t.branching_active h es)
    t.branching_all

let lookup_simple t ?path hash =
  t.n_simple_lookups <- t.n_simple_lookups + 1;
  match Hashtbl.find_opt t.simple_active hash with
  | None -> None
  | Some bucket ->
    (match bucket_find t bucket path ~path_of:spath with
     | Some e ->
       t.n_simple_hits <- t.n_simple_hits + 1;
       Some (e.card, e.sbsel)
     | None -> None)

let branching_hit t bucket path =
  match bucket_find t bucket path ~path_of:bpath with
  | Some e ->
    t.n_branching_hits <- t.n_branching_hits + 1;
    Some e.bbsel
  | None -> None

let lookup_branching t ?path hash =
  t.n_branching_lookups <- t.n_branching_lookups + 1;
  match Hashtbl.find_opt t.branching_active hash with
  | None -> None
  | Some bucket -> branching_hit t bucket path

(* The canonical key is spelled only when the hash's bucket exists: a miss,
   the common case, allocates nothing. *)
let lookup_branching_pattern t ~parent ~predicates ~next =
  t.n_branching_lookups <- t.n_branching_lookups + 1;
  match
    Hashtbl.find_opt t.branching_active
      (Path_hash.branching_of_sorted ~parent ~predicates ~next)
  with
  | None -> None
  | Some bucket ->
    branching_hit t bucket
      (Some (Path_hash.branching_key_of_sorted ~parent ~predicates ~next))

let active_entries tbl =
  Hashtbl.fold (fun _ es acc -> acc + List.length es) tbl 0

let size_in_bytes t =
  (simple_entry_bytes * active_entries t.simple_active)
  + (branching_entry_bytes * active_entries t.branching_active)

(* Shrink the active set back under [bytes] by dropping smallest-error
   entries, never touching [keep] (the entry whose insertion triggered the
   shrink — feedback always keeps its own observation). *)
let evict_to_fit t ~bytes ~keep =
  let rec evict () =
    if size_in_bytes t > bytes then begin
      let worst =
        ref
          (None
            : ([ `S of int * string option | `B of int * string option ]
              * float)
              option)
      in
      Hashtbl.iter
        (fun h es ->
          List.iter
            (fun e ->
              match !worst with
              | Some (_, we) when we <= e.serror -> ()
              | _ -> worst := Some (`S (h, e.spath), e.serror))
            es)
        t.simple_active;
      Hashtbl.iter
        (fun h es ->
          List.iter
            (fun e ->
              match !worst with
              | Some (_, we) when we <= e.berror -> ()
              | _ -> worst := Some (`B (h, e.bpath), e.berror))
            es)
        t.branching_active;
      match !worst with
      | None -> ()
      | Some (victim, _) when victim = keep ->
        ()  (* the new entry itself is the least useful: keep it *)
      | Some (`S (h, p), _) ->
        bucket_remove t.simple_active h p ~path_of:spath;
        evict ()
      | Some (`B (h, p), _) ->
        bucket_remove t.branching_active h p ~path_of:bpath;
        evict ()
    end
  in
  evict ()

let record_branching_feedback ?path t ~hash ~bsel ~error =
  t.n_feedback_inserts <- t.n_feedback_inserts + 1;
  let e = { bbsel = bsel; berror = error; bpath = path } in
  bucket_put t.branching_all hash path e ~path_of:bpath;
  bucket_put t.branching_active hash path e ~path_of:bpath;
  match t.budget with
  | None -> ()
  | Some bytes -> evict_to_fit t ~bytes ~keep:(`B (hash, path))

let record_feedback t ~hash ?path ~card ?bsel ~error () =
  t.n_feedback_inserts <- t.n_feedback_inserts + 1;
  let e = { card; sbsel = bsel; serror = error; spath = path } in
  bucket_put t.simple_all hash path e ~path_of:spath;
  bucket_put t.simple_active hash path e ~path_of:spath;
  match t.budget with
  | None -> ()
  | Some bytes -> evict_to_fit t ~bytes ~keep:(`S (hash, path))

let active_count t =
  active_entries t.simple_active + active_entries t.branching_active

let total_count t =
  active_entries t.simple_all + active_entries t.branching_all

(* v2 dump lines append the canonical path ("-" when absent). The v1 reader
   path below still accepts the shorter legacy lines, so pre-existing
   synopsis files load unchanged (their entries just carry no path). *)
let to_string t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "xseed-het v2\n";
  (match t.budget with
   | Some b -> Buffer.add_string buf (Printf.sprintf "budget %d\n" b)
   | None -> ());
  let path_str = function None -> "-" | Some p -> p in
  let simples =
    Hashtbl.fold
      (fun h es acc -> List.fold_left (fun acc e -> (h, e) :: acc) acc es)
      t.simple_all []
    |> List.sort (fun (a, ea) (b, eb) ->
           let c = Int.compare a b in
           if c <> 0 then c else Stdlib.compare ea.spath eb.spath)
  in
  List.iter
    (fun (h, e) ->
      Buffer.add_string buf
        (Printf.sprintf "simple %d %d %s %h %s\n" h e.card
           (match e.sbsel with None -> "-" | Some b -> Printf.sprintf "%h" b)
           e.serror (path_str e.spath)))
    simples;
  let branches =
    Hashtbl.fold
      (fun h es acc -> List.fold_left (fun acc e -> (h, e) :: acc) acc es)
      t.branching_all []
    |> List.sort (fun (a, ea) (b, eb) ->
           let c = Int.compare a b in
           if c <> 0 then c else Stdlib.compare ea.bpath eb.bpath)
  in
  List.iter
    (fun (h, e) ->
      Buffer.add_string buf
        (Printf.sprintf "branching %d %h %h %s\n" h e.bbsel e.berror
           (path_str e.bpath)))
    branches;
  Buffer.contents buf

let of_string_result s =
  Error.guard (fun () ->
      let t = create () in
      let budget = ref None in
      let malformed i line =
        Error.raisef ~position:(i + 1) ~section:"het" Error.Corrupt_synopsis
          "bad HET line: %s" (String.trim line)
      in
      (* Reject non-finite statistics outright: a NaN selectivity would
         silently poison every estimate that touches the entry. *)
      let finite i line x = if Float.is_finite x then x else malformed i line in
      let clamp01 x = Float.max 0.0 (Float.min 1.0 x) in
      let opt_path = function "-" -> None | p -> Some p in
      List.iteri
        (fun i line ->
          let simple h card bsel error path =
            match
              (int_of_string_opt h, int_of_string_opt card,
               float_of_string_opt error)
            with
            | Some h, Some card, Some error ->
              let error = finite i line error in
              let bsel =
                if bsel = "-" then None
                else
                  match float_of_string_opt bsel with
                  | Some b -> Some (clamp01 (finite i line b))
                  | None -> malformed i line
              in
              add_simple t ~hash:h ?path ~card:(max 0 card) ~bsel ~error
            | _ -> malformed i line
          in
          let branching h bsel error path =
            match
              (int_of_string_opt h, float_of_string_opt bsel,
               float_of_string_opt error)
            with
            | Some h, Some bsel, Some error ->
              add_branching t ~hash:h ?path ~bsel:(clamp01 (finite i line bsel))
                ~error:(finite i line error)
            | _ -> malformed i line
          in
          match String.split_on_char ' ' (String.trim line) with
          | [ "" ] -> ()
          | [ "xseed-het"; ("v1" | "v2") ] when i = 0 -> ()
          | [ "budget"; b ] ->
            (match int_of_string_opt b with
             | Some b -> budget := Some b
             | None -> malformed i line)
          | [ "simple"; h; card; bsel; error ] -> simple h card bsel error None
          | [ "simple"; h; card; bsel; error; path ] ->
            simple h card bsel error (opt_path path)
          | [ "branching"; h; bsel; error ] -> branching h bsel error None
          | [ "branching"; h; bsel; error; path ] ->
            branching h bsel error (opt_path path)
          | _ -> malformed i line)
        (String.split_on_char '\n' s);
      (match !budget with Some b -> set_budget t ~bytes:b | None -> ());
      t)

let of_string s =
  match of_string_result s with
  | Ok t -> t
  | Error e -> invalid_arg ("Het.of_string: " ^ Error.message e)

let pp ppf t =
  Format.fprintf ppf "HET: %d entries (%d active, %d bytes)" (total_count t)
    (active_count t) (size_in_bytes t)
