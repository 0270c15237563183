type open_info = {
  label : Xml.Label.t;
  dewey : Xml.Dewey.t;
  card : float;
  fsel : float;
  bsel : float;
}

type event =
  | Open of open_info
  | Close of { label : Xml.Label.t; dewey : Xml.Dewey.t }
  | Eos

(* A footprint (paper Algorithm 2): one frame per open vertex of the rooted
   synopsis path. *)
type footprint = {
  vertex : Xml.Label.t;
  card : float;
  fsel : float;
  bsel : float;
  hash : int;
  pkey : string;  (* canonical path key matching [hash], for HET lookups *)
  dewey : Xml.Dewey.t;
  edges : Kernel.edge array;  (* out-edges in deterministic order *)
  mutable child_idx : int;
  mutable opened : int;  (* children opened so far, for Dewey ranks *)
}

type state = Init | Running | Finished

type stats = {
  events : int;
  opened : int;
  pruned : int;
  max_recursion_level : int;
  max_depth_seen : int;
}

type t = {
  kernel : Kernel.t;
  het : Het.t option;
  threshold : float;
  recursion_aware : bool;
  max_depth : int;
  obs : Obs.t option;
  rl : Counter_stacks.t;
  mutable path : footprint list;
  mutable state : state;
  mutable emitted : int;
  mutable opened : int;
  mutable pruned : int;
  mutable max_rl : int;
  mutable max_depth_seen : int;
}

let create ?(card_threshold = 0.5) ?(recursion_aware = true) ?(max_depth = 60)
    ?het ?obs kernel =
  { kernel; het; threshold = card_threshold; recursion_aware; max_depth; obs;
    rl = Counter_stacks.create (); path = []; state = Init; emitted = 0;
    opened = 0; pruned = 0; max_rl = 0; max_depth_seen = 0 }

let stats t =
  { events = t.emitted; opened = t.opened; pruned = t.pruned;
    max_recursion_level = t.max_rl; max_depth_seen = t.max_depth_seen }

(* Publish once, on the transition to Finished. *)
let publish t =
  match t.obs with
  | None -> ()
  | Some _ as obs ->
    Obs.add_to ?obs "traveler.events" t.emitted;
    Obs.add_to ?obs "traveler.opened" t.opened;
    Obs.add_to ?obs "traveler.pruned" t.pruned;
    Obs.max_to ?obs "traveler.max_recursion_level" t.max_rl;
    Obs.max_to ?obs "traveler.max_depth" t.max_depth_seen

let out_edges_array kernel v = Array.of_list (Kernel.out_edges kernel v)

(* The paper's EST: estimate cardinality, fsel and bsel for extending the
   current path (whose top frame is [fp], recursion level [old_rl]) along
   edge [e], the new path having recursion level [rl]. *)
let est t fp (e : Kernel.edge) ~old_rl ~rl ~hash ~pkey =
  let card, bsel =
    let from_het =
      match t.het with
      | None -> None
      | Some het -> Het.lookup_simple het ~path:pkey hash
    in
    match from_het with
    | Some (card, Some bsel) -> (float_of_int card, bsel)
    | other ->
      let p_cnt, c_cnt = Kernel.edge_counts e rl in
      let approx_bsel =
        let s = Kernel.total_children t.kernel fp.vertex ~level:old_rl in
        if s = 0 then 0.0 else float_of_int p_cnt /. float_of_int s
      in
      (match other with
       | Some (card, None) -> (float_of_int card, approx_bsel)
       | _ -> (float_of_int c_cnt *. fp.fsel, approx_bsel))
  in
  let fsel =
    let s = Kernel.total_children t.kernel e.dst ~level:rl in
    if s = 0 then 0.0 else card /. float_of_int s
  in
  (card, fsel, bsel)

let open_root t =
  let root = Kernel.root t.kernel in
  ignore (Counter_stacks.push t.rl root : int);
  let fp =
    { vertex = root; card = 1.0; fsel = 1.0; bsel = 1.0;
      hash = Path_hash.extend Path_hash.empty root;
      pkey = string_of_int root; dewey = Xml.Dewey.root;
      edges = out_edges_array t.kernel root; child_idx = 0; opened = 0 }
  in
  t.path <- [ fp ];
  t.state <- Running;
  t.opened <- t.opened + 1;
  if t.max_depth_seen < 1 then t.max_depth_seen <- 1;
  Open { label = root; dewey = fp.dewey; card = 1.0; fsel = 1.0; bsel = 1.0 }

(* VISIT-NEXT-CHILD: advance depth-first from the top frame. *)
let rec visit_next t =
  match t.path with
  | [] ->
    t.state <- Finished;
    publish t;
    Eos
  | fp :: rest ->
    if fp.child_idx >= Array.length fp.edges then begin
      (* All children done: close this vertex. *)
      Counter_stacks.pop t.rl fp.vertex;
      t.path <- rest;
      Close { label = fp.vertex; dewey = fp.dewey }
    end
    else begin
      let e = fp.edges.(fp.child_idx) in
      fp.child_idx <- fp.child_idx + 1;
      let v = e.dst in
      let old_rl, rl =
        if t.recursion_aware then
          let old_rl = Counter_stacks.recursion_level t.rl in
          (old_rl, Counter_stacks.push t.rl v)
        else begin
          (* Ablation mode: level-0 statistics everywhere; the counter
             stacks still track the path for balanced pops. *)
          ignore (Counter_stacks.push t.rl v : int);
          (0, 0)
        end
      in
      let hash = Path_hash.extend fp.hash v in
      let pkey = fp.pkey ^ "/" ^ string_of_int v in
      let card, fsel, bsel = est t fp e ~old_rl ~rl ~hash ~pkey in
      if card <= t.threshold || Counter_stacks.depth t.rl > t.max_depth then begin
        (* END-TRAVELING: prune this branch. *)
        t.pruned <- t.pruned + 1;
        Counter_stacks.pop t.rl v;
        visit_next t
      end
      else begin
        t.opened <- t.opened + 1;
        if rl > t.max_rl then t.max_rl <- rl;
        let depth = Counter_stacks.depth t.rl in
        if depth > t.max_depth_seen then t.max_depth_seen <- depth;
        fp.opened <- fp.opened + 1;
        let child =
          { vertex = v; card; fsel; bsel; hash; pkey;
            dewey = Xml.Dewey.child fp.dewey fp.opened;
            edges = out_edges_array t.kernel v; child_idx = 0; opened = 0 }
        in
        t.path <- child :: t.path;
        Open { label = v; dewey = child.dewey; card; fsel; bsel }
      end
    end

let next t =
  let event =
    match t.state with
    | Init -> open_root t
    | Running -> visit_next t
    | Finished -> Eos
  in
  (match event with Eos -> () | _ -> t.emitted <- t.emitted + 1);
  event

let iter t ~f =
  let rec go () =
    match next t with
    | Eos -> ()
    | e ->
      f e;
      go ()
  in
  go ()

let ept_to_xml ?card_threshold ?het kernel =
  let t = create ?card_threshold ?het kernel in
  let buf = Buffer.create 1024 in
  let name l = Xml.Label.name (Kernel.table kernel) l in
  let num x =
    (* Paper style: integers without a decimal point, plain decimals else. *)
    if Float.is_integer x && Float.abs x < 1e15 then
      string_of_int (int_of_float x)
    else Printf.sprintf "%g" x
  in
  (* Render with matching open/close tags; self-closing when childless needs
     lookahead, so buffer the pending open tag. *)
  let pending : open_info option ref = ref None in
  let flush_pending ~selfclose =
    match !pending with
    | None -> ()
    | Some info ->
      Buffer.add_string buf
        (Printf.sprintf "<%s dID=\"%s\" card=\"%s\" fsel=\"%s\" bsel=\"%s\"%s>"
           (name info.label)
           (Xml.Dewey.to_string info.dewey)
           (num info.card) (num info.fsel) (num info.bsel)
           (if selfclose then "/" else ""));
      pending := None
  in
  iter t ~f:(fun event ->
      match event with
      | Open info ->
        flush_pending ~selfclose:false;
        pending := Some info
      | Close { label; _ } ->
        if !pending <> None then flush_pending ~selfclose:true
        else Buffer.add_string buf (Printf.sprintf "</%s>" (name label))
      | Eos -> ());
  Buffer.contents buf
