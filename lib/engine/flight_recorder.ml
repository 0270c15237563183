(* A fixed-size ring of per-query flight records. Recording is a handful of
   field writes plus one array store, so it can sit on the serving hot path;
   the ring overwrites oldest-first and never allocates after creation
   beyond the records themselves. *)

type cache_status = Hit | Miss | Bypass | Timed_out | Shed | Audited

let cache_status_name = function
  | Hit -> "hit"
  | Miss -> "miss"
  | Bypass -> "bypass"
  | Timed_out -> "timeout"
  | Shed -> "shed"
  | Audited -> "audit"

type audit = {
  audit_actual : int;
  audit_qerror : float;
  audit_worst_step : string;
  audit_worst_axis : string;
  audit_contribution : float;
}

type record = {
  seq : int;
  query : string;
  hash : int;
  cache : cache_status;
  estimate : float;
  canonicalize_s : float;
  ept_s : float;
  match_s : float;
  total_s : float;
  ept_nodes : int;
  frontier_peak : int;
  degenerate_clamps : int;
  het_hits : int;
  feedback_round : int;
  tenant : string option;
  audit : audit option;
}

type t = {
  ring : record option array;
  mutable next_seq : int;  (* total records ever written *)
  mutable ring_tenant : string option;
      (* stamped on every record this ring writes; the registry sets it so
         per-tenant flight streams stay attributable after a merge *)
}

let create ?(capacity = 256) () =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Flight_recorder.create: capacity %d < 1" capacity);
  { ring = Array.make capacity None; next_seq = 0; ring_tenant = None }

let set_tenant t name = t.ring_tenant <- Some name

let total t = t.next_seq

(* [?seq] overrides the record's sequence number with an externally issued
   one (the pool's global submission counter), so records scattered across
   per-shard rings can be merged back into submission order; the ring still
   advances by its own write count either way. *)
let record ?seq ?audit t ~query ~hash ~cache ~estimate ~canonicalize_s ~ept_s
    ~match_s ~ept_nodes ~frontier_peak ~degenerate_clamps ~het_hits
    ~feedback_round =
  let r =
    { seq = (match seq with Some s -> s | None -> t.next_seq);
      query; hash; cache; estimate; canonicalize_s; ept_s;
      match_s; total_s = canonicalize_s +. ept_s +. match_s; ept_nodes;
      frontier_peak; degenerate_clamps; het_hits; feedback_round;
      tenant = t.ring_tenant; audit }
  in
  t.ring.(t.next_seq mod Array.length t.ring) <- Some r;
  t.next_seq <- t.next_seq + 1;
  r

(* Newest first. [n] above the live count just returns everything. *)
let recent ?n t =
  let cap = Array.length t.ring in
  let live = if t.next_seq < cap then t.next_seq else cap in
  let want = match n with None -> live | Some n -> max 0 (min n live) in
  let out = ref [] in
  for i = 0 to want - 1 do
    match t.ring.((t.next_seq - 1 - i) mod cap) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  List.rev !out

let to_json (r : record) =
  let open Obs.Json in
  Obj
    ([ ("seq", Int r.seq);
      ("query", String r.query);
      ("hash", String (Printf.sprintf "%08x" (r.hash land 0xffffffff)));
      ("cache", String (cache_status_name r.cache));
      ("estimate", Float r.estimate);
      ( "wall_us",
        Obj
          [ ("total", Float (1e6 *. r.total_s));
            ("canonicalize", Float (1e6 *. r.canonicalize_s));
            ("ept", Float (1e6 *. r.ept_s));
            ("match", Float (1e6 *. r.match_s)) ] );
      ("ept_nodes", Int r.ept_nodes);
      ("frontier_peak", Int r.frontier_peak);
      ("degenerate_clamps", Int r.degenerate_clamps);
      ("het_hits", Int r.het_hits);
      ("feedback_round", Int r.feedback_round) ]
    @ (match r.tenant with
       | None -> []
       | Some name -> [ ("tenant", String name) ])
    @ (match r.audit with
       | None -> []
       | Some a ->
         [ ( "audit",
             Obj
               [ ("actual", Int a.audit_actual);
                 ("qerror", Float a.audit_qerror);
                 ("worst_step", String a.audit_worst_step);
                 ("worst_axis", String a.audit_worst_axis);
                 ("contribution", Float a.audit_contribution) ] ) ]))
