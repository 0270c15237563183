type cls = {
  label : int;
  mutable card : int;
  mutable out : (int, float) Hashtbl.t;  (* target class id (maybe stale) -> total *)
  mutable ins : int list;  (* source class ids (maybe stale) *)
  mutable alive : bool;
}

type t = {
  table : Xml.Label.table;
  classes : cls array;
  parent : int array;  (* union-find over class ids *)
  mutable root : int;
}

type build_stats = {
  initial_classes : int;
  merges : int;
  work : int;
  completed : bool;
}

let rec find t i =
  let p = t.parent.(i) in
  if p = i then i
  else begin
    let r = find t p in
    t.parent.(i) <- r;
    r
  end

(* Rebuild a class's out-table with canonical keys, coalescing totals. *)
let normalize_out t (c : cls) =
  let fresh = Hashtbl.create (Hashtbl.length c.out) in
  Hashtbl.iter
    (fun k v ->
      let k = find t k in
      Hashtbl.replace fresh k (v +. Option.value (Hashtbl.find_opt fresh k) ~default:0.0))
    c.out;
  c.out <- fresh

let normalize_ins t (c : cls) =
  c.ins <- List.sort_uniq Int.compare (List.map (find t) c.ins)

(* ------------------------------------------------------------------ *)
(* Perfect (count-stable) partition via bottom-up hash-consing. *)

let initial_partition (st : Nok.Storage.t) =
  let n = Nok.Storage.node_count st in
  let class_of = Array.make n 0 in
  let signatures = Hashtbl.create 1024 in
  let class_list = ref [] in
  let next_class = ref 0 in
  for i = n - 1 downto 0 do
    (* Multiset of child classes. *)
    let counts = Hashtbl.create 4 in
    let j = ref (i + 1) in
    while !j <= st.last.(i) do
      let c = class_of.(!j) in
      Hashtbl.replace counts c (1 + Option.value (Hashtbl.find_opt counts c) ~default:0);
      j := st.last.(!j) + 1
    done;
    let signature =
      ( st.labels.(i),
        List.sort compare (Hashtbl.fold (fun c k acc -> (c, k) :: acc) counts []) )
    in
    let cid =
      match Hashtbl.find_opt signatures signature with
      | Some cid -> cid
      | None ->
        let cid = !next_class in
        incr next_class;
        Hashtbl.add signatures signature cid;
        class_list := (cid, st.labels.(i)) :: !class_list;
        cid
    in
    class_of.(i) <- cid
  done;
  let classes =
    Array.make !next_class
      { label = 0; card = 0; out = Hashtbl.create 0; ins = []; alive = false }
  in
  List.iter
    (fun (cid, label) ->
      classes.(cid) <-
        { label; card = 0; out = Hashtbl.create 4; ins = []; alive = true })
    !class_list;
  (* Cardinalities and edge totals. *)
  for i = 0 to n - 1 do
    let u = classes.(class_of.(i)) in
    u.card <- u.card + 1;
    let j = ref (i + 1) in
    while !j <= st.last.(i) do
      let c = class_of.(!j) in
      Hashtbl.replace u.out c
        (1.0 +. Option.value (Hashtbl.find_opt u.out c) ~default:0.0);
      j := st.last.(!j) + 1
    done
  done;
  Array.iteri
    (fun uid u ->
      Hashtbl.iter (fun vid _ -> classes.(vid).ins <- uid :: classes.(vid).ins) u.out)
    classes;
  Array.iter (fun c -> c.ins <- List.sort_uniq Int.compare c.ins) classes;
  (classes, class_of.(0))

(* ------------------------------------------------------------------ *)

let class_count t =
  Array.fold_left (fun acc c -> if c.alive then acc + 1 else acc) 0 t.classes

let edge_count t =
  let count = ref 0 in
  Array.iter
    (fun c ->
      if c.alive then begin
        normalize_out t c;
        count := !count + Hashtbl.length c.out
      end)
    t.classes;
  !count

let size_in_bytes t = (8 * class_count t) + (8 * edge_count t)

(* Squared-error cost of merging same-label classes a and b. *)
let merge_cost t a b =
  let ca = float_of_int a.card and cb = float_of_int b.card in
  let union = Hashtbl.create 8 in
  let add tbl side =
    Hashtbl.iter
      (fun k v ->
        let k = find t k in
        let l, r = Option.value (Hashtbl.find_opt union k) ~default:(0.0, 0.0) in
        Hashtbl.replace union k (if side = 0 then (l +. v, r) else (l, r +. v)))
      tbl
  in
  add a.out 0;
  add b.out 1;
  let cost = ref 0.0 in
  Hashtbl.iter
    (fun _ (ta, tb) ->
      let avg_a = ta /. ca and avg_b = tb /. cb in
      let avg_m = (ta +. tb) /. (ca +. cb) in
      cost :=
        !cost
        +. (ca *. (avg_a -. avg_m) *. (avg_a -. avg_m))
        +. (cb *. (avg_b -. avg_m) *. (avg_b -. avg_m)))
    union;
  (!cost, Hashtbl.length union)

let merge t aid bid =
  let a = t.classes.(aid) and b = t.classes.(bid) in
  a.card <- a.card + b.card;
  Hashtbl.iter
    (fun k v ->
      let k = find t k in
      Hashtbl.replace a.out k (v +. Option.value (Hashtbl.find_opt a.out k) ~default:0.0))
    b.out;
  normalize_out t a;
  (* Redirect in-edges pointing at b. *)
  normalize_ins t b;
  List.iter
    (fun pid ->
      let p = t.classes.(pid) in
      if p.alive then begin
        match Hashtbl.find_opt p.out bid with
        | None -> normalize_out t p  (* stale key; rebuild *)
        | Some v ->
          Hashtbl.remove p.out bid;
          Hashtbl.replace p.out aid
            (v +. Option.value (Hashtbl.find_opt p.out aid) ~default:0.0)
      end)
    b.ins;
  a.ins <- List.rev_append b.ins a.ins;
  b.alive <- false;
  t.parent.(bid) <- aid;
  normalize_ins t a;
  if find t t.root = aid then t.root <- aid

(* Same-label pair evaluation cap per sweep: keeps a sweep polynomial while
   preserving the overall quadratic trend the paper reports. *)
let per_label_limit = 32

let alive_groups t =
  let groups = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      if c.alive then
        Hashtbl.replace groups c.label
          (i :: Option.value (Hashtbl.find_opt groups c.label) ~default:[]))
    t.classes;
  groups

let build ?budget_bytes ?(max_work = 50_000_000) storage =
  let classes, root = initial_partition storage in
  let t =
    { table = storage.Nok.Storage.table; classes;
      parent = Array.init (Array.length classes) Fun.id; root }
  in
  let initial = Array.length classes in
  let merges = ref 0 and work = ref 0 and completed = ref true in
  (match budget_bytes with
   | None -> ()
   | Some budget ->
     let over_work () = !work > max_work in
     (* Phase 1 — bulk coarsening: while the population is far above the
        budget, halve each label group by merging cardinality-adjacent
        pairs without cost evaluation. *)
     let target_classes = max (Xml.Label.count t.table) (budget / 16) in
     let bulk_done = ref false in
     while (not !bulk_done) && (not (over_work ()))
           && class_count t > 4 * target_classes do
       let before = class_count t in
       Hashtbl.iter
         (fun _ ids ->
           let sorted =
             List.sort
               (fun i j -> Int.compare t.classes.(i).card t.classes.(j).card)
               ids
           in
           let rec pairwise = function
             | a :: b :: rest ->
               merge t a b;
               incr merges;
               work := !work + 1;
               pairwise rest
             | _ -> ()
           in
           pairwise sorted)
         (alive_groups t);
       if class_count t >= before then bulk_done := true
     done;
     (* Phase 2 — greedy: per sweep, merge the least-cost same-label pair of
        each label group until the synopsis fits. The budget is re-measured
        once per sweep (size_in_bytes is a full normalization scan), so a
        sweep may overshoot below the budget by at most one merge per label
        group — harmless, and it keeps the loop out of O(sweeps x edges). *)
     let continue_ = ref true in
     while !continue_ && size_in_bytes t > budget do
       let merged_this_sweep = ref false in
       Hashtbl.iter
         (fun _ ids ->
           if !continue_ then begin
             let ids =
               let sorted =
                 List.sort
                   (fun i j -> Int.compare t.classes.(i).card t.classes.(j).card)
                   ids
               in
               List.filteri (fun k _ -> k < per_label_limit) sorted
             in
             let arr = Array.of_list ids in
             let best = ref None in
             for i = 0 to Array.length arr - 1 do
               for j = i + 1 to Array.length arr - 1 do
                 let cost, ops =
                   merge_cost t t.classes.(arr.(i)) t.classes.(arr.(j))
                 in
                 work := !work + ops + 1;
                 match !best with
                 | Some (bc, _, _) when bc <= cost -> ()
                 | _ -> best := Some (cost, arr.(i), arr.(j))
               done
             done;
             (match !best with
              | Some (_, a, b) ->
                merge t a b;
                incr merges;
                merged_this_sweep := true
              | None -> ());
             if over_work () then begin
               completed := false;
               continue_ := false
             end
           end)
         (alive_groups t);
       if not !merged_this_sweep then continue_ := false
     done);
  (t, { initial_classes = initial; merges = !merges; work = !work;
        completed = !completed })

let table t = t.table

(* ------------------------------------------------------------------ *)
(* Estimation: expand into a synthetic EPT and reuse the shared matcher. *)

let expand ?(card_threshold = 0.5) ?(max_depth = 40) ?(max_nodes = 500_000) t
    ~node =
  Array.iter (fun c -> if c.alive then normalize_out t c) t.classes;
  let nodes = ref 0 in
  let rec expand cid card depth ~bsel =
    let c = t.classes.(cid) in
    incr nodes;
    let children =
      if depth >= max_depth || !nodes > max_nodes then []
      else
        Hashtbl.fold (fun k total acc -> (find t k, total) :: acc) c.out []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        |> List.filter_map (fun (kid, total) ->
               let avg = total /. float_of_int c.card in
               let child_card = card *. avg in
               if child_card <= card_threshold then None
               else Some (expand kid child_card (depth + 1) ~bsel:(Float.min 1.0 avg)))
    in
    node ~label:c.label ~card ~bsel ~children
  in
  let root = find t t.root in
  expand root (float_of_int t.classes.(root).card) 0 ~bsel:1.0

let estimate ?card_threshold ?max_depth ?max_nodes t path =
  let root =
    expand ?card_threshold ?max_depth ?max_nodes t
      ~node:Core.Matcher.synthetic_node
  in
  Core.Matcher.estimate ~table:t.table (Core.Matcher.of_synthetic root)
    (Xpath.Query_tree.of_path path)
