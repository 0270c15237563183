type stats = {
  simple_entries : int;
  zero_entries : int;
  branching_entries : int;
  branching_candidates : int;
  nok_evaluations : int;
}

(* Estimated cardinality of every rooted simple path in one EPT pass: each
   EPT node is a distinct rooted label path, so its card IS the kernel
   estimate of that path. Returns hash -> (estimated card, canonical path). *)
let ept_estimates ~card_threshold kernel =
  let estimates = Hashtbl.create 1024 in
  let traveler = Traveler.create ~card_threshold kernel in
  let stack = ref [] in
  Traveler.iter traveler ~f:(fun event ->
      match event with
      | Traveler.Open info ->
        let h, key =
          match !stack with
          | [] ->
            (Path_hash.extend Path_hash.empty info.label,
             string_of_int info.label)
          | (ph, pkey) :: _ ->
            (Path_hash.extend ph info.label,
             pkey ^ "/" ^ string_of_int info.label)
        in
        stack := (h, key) :: !stack;
        Hashtbl.replace estimates h (info.card, key)
      | Traveler.Close _ ->
        (match !stack with [] -> () | _ :: rest -> stack := rest)
      | Traveler.Eos -> ());
  estimates

(* The kernel-only estimate of a branching pattern is matched against
   the EPT as the query //p[q1]..[qk]/r (or //p[q1]..[qk]), built directly
   as an AST. *)
let pattern_query table ~parent ~predicates ~next =
  let name l = Xpath.Ast.Name (Xml.Label.name table l) in
  let step axis test predicates =
    { Xpath.Ast.axis; test; predicates; value_predicates = [] }
  in
  let preds =
    List.map (fun q -> [ step Xpath.Ast.Child (name q) [] ]) predicates
  in
  let p = step Xpath.Ast.Descendant (name parent) preds in
  match next with
  | Some r -> [ p; step Xpath.Ast.Child (name r) [] ]
  | None -> [ p ]

(* The actual counts of every pattern come from one pre-order pass over the
   storage. A pattern's count depends on a p-labelled node only through
   which labels its children carry and how many children carry each, so the
   pass groups each candidate parent label's nodes by their set of child
   labels; a pattern count is then a sum over its parent label's groups. *)
type group = {
  parent : int;
  set : int array;  (* the child labels, ascending *)
  kids : int array;  (* kids.(k): the group's children labelled set.(k) *)
  mutable nodes : int;  (* nodes with exactly this set of child labels *)
}

(* A label's share of a set's hash. Shares are summed, so a node's hash
   does not depend on the order of its children and covers all of them. *)
let mix l =
  let x = (l + 1) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let rec counted counts set k =
  k < 0 || (counts.(set.(k)) > 0 && counted counts set (k - 1))

(* The group of parent [p]'s nodes whose set is the [n] labels counted in
   [counts]: as many labels, each one counted. *)
let rec find counts p n = function
  | [] -> raise Not_found
  | g :: rest ->
    if g.parent = p && Array.length g.set = n && counted counts g.set (n - 1)
    then g
    else find counts p n rest

(* Groups by kernel label. [of_storage] maps each storage label to the
   kernel label of the same name (-1 when the kernel has none), so a count
   finds the nodes NoK finds by resolving the pattern's names in the
   storage's own table; [parents.(l)] marks the labels heading a candidate.
   A node's children are counted in [counts] and its distinct labels listed
   in [seen]; only a set not grouped before allocates. *)
let tally (storage : Nok.Storage.t) ~of_storage ~parents =
  let n_labels = Array.length parents in
  let labels = storage.labels and last = storage.last in
  let groups = Array.make n_labels [] in
  let by_hash = Hashtbl.create 64 in
  let counts = Array.make n_labels 0 and seen = Array.make n_labels 0 in
  for i = 0 to Array.length labels - 1 do
    let p = of_storage.(labels.(i)) in
    if p >= 0 && parents.(p) then begin
      let n = ref 0 and h = ref (mix p) and j = ref (i + 1) in
      while !j <= last.(i) do
        let l = of_storage.(labels.(!j)) in
        if l >= 0 then begin
          if counts.(l) = 0 then begin
            seen.(!n) <- l;
            incr n;
            h := !h + mix l
          end;
          counts.(l) <- counts.(l) + 1
        end;
        j := last.(!j) + 1
      done;
      let bucket = try Hashtbl.find by_hash !h with Not_found -> [] in
      let g =
        try find counts p !n bucket
        with Not_found ->
          let set = Array.sub seen 0 !n in
          Array.sort Int.compare set;
          let g = { parent = p; set; kids = Array.make !n 0; nodes = 0 } in
          Hashtbl.replace by_hash !h (g :: bucket);
          groups.(p) <- g :: groups.(p);
          g
      in
      g.nodes <- g.nodes + 1;
      for k = 0 to !n - 1 do
        g.kids.(k) <- g.kids.(k) + counts.(g.set.(k))
      done;
      for k = 0 to !n - 1 do
        counts.(seen.(k)) <- 0
      done
    end
  done;
  groups

(* Where [l] sits in [set.(lo)..set.(hi - 1)], ascending, or -1. *)
let rec index (set : int array) l lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let m = set.(mid) in
    if m = l then mid
    else if m < l then index set l (mid + 1) hi
    else index set l lo mid

let rec holds set = function
  | [] -> true
  | q :: rest -> index set q 0 (Array.length set) >= 0 && holds set rest

(* |//p[q1]..[qk]/r|: the r-labelled children of every p node that has a
   child labelled each qi; |//p[q1]..[qk]| counts those p nodes. A label
   the storage lacks heads no group and labels no child, so counts 0. *)
let count groups ~parent ~preds ~next =
  List.fold_left
    (fun acc g ->
      if not (holds g.set preds) then acc
      else
        match next with
        | None -> acc + g.nodes
        | Some r ->
          let k = index g.set r 0 (Array.length g.set) in
          if k < 0 then acc else acc + g.kids.(k))
    0 groups.(parent)

(* Path-tree nodes with a low-bsel child head the candidates: their
   low-bsel children become predicates, siblings the next step. *)
let candidate_heads ~bsel_threshold path_tree =
  let heads = ref [] in
  Pathtree.Path_tree.iter_paths path_tree ~f:(fun _labels ~parent:_ node ->
      let low =
        List.filter
          (fun (k : Pathtree.Path_tree.node) ->
            Pathtree.Path_tree.bsel path_tree ~parent:(Some node) k
            < bsel_threshold)
          node.children
      in
      if low <> [] then heads := (node, low) :: !heads);
  List.rev !heads

(* Pre-order walk of the path tree handing [f] each node with its parent
   and its rooted path's hash and key, each extended from the parent's as
   [ept_estimates] extends the EPT's, so no path is spelled from the
   root. *)
let iter_keyed (path_tree : Pathtree.Path_tree.t) ~f =
  let rec go ~parent ~hash ~key (node : Pathtree.Path_tree.node) =
    let hash = Path_hash.extend hash node.label in
    let key =
      match parent with
      | None -> string_of_int node.label
      | Some _ -> key ^ "/" ^ string_of_int node.label
    in
    f ~parent ~hash ~key node;
    List.iter (go ~parent:(Some node) ~hash ~key) node.children
  in
  go ~parent:None ~hash:Path_hash.empty ~key:"" path_tree.root

(* Raised by [consider] once [max_branching_candidates] are taken, leaving
   the enumeration loops: every later pattern would be skipped anyway. *)
exception Capped

let build ?(mbp = 1) ?(bsel_threshold = 0.1) ?(card_threshold = 0.5)
    ?(max_branching_candidates = 50_000) ?(zero_entries = true) ~kernel
    ~path_tree ?storage () =
  let het = Het.create () in
  let table = Kernel.table kernel in
  let estimates = ept_estimates ~card_threshold kernel in
  let simple = ref 0 and zero = ref 0 and branching = ref 0 in
  let candidates = ref 0 and counts_taken = ref 0 in

  (* Simple-path entries: actual card and bsel from the path tree, error
     against the kernel estimate read off the EPT. *)
  iter_keyed path_tree ~f:(fun ~parent ~hash ~key:path node ->
      let est =
        match Hashtbl.find_opt estimates hash with
        | Some (e, key) when key = path ->
          Hashtbl.remove estimates hash;
          e
        | _ -> 0.0
      in
      let actual = node.cardinality in
      let bsel = Pathtree.Path_tree.bsel path_tree ~parent node in
      let error = Float.abs (est -. float_of_int actual) in
      incr simple;
      Het.add_simple het ~hash ~path ~card:actual ~bsel:(Some bsel) ~error);

  (* What remains in [estimates] are false-positive paths: derivable from
     the kernel but absent from the document. A zero-cardinality entry both
     fixes their estimate and stops the traveler from expanding them. *)
  if zero_entries then
    Hashtbl.iter
      (fun hash (est, path) ->
        if est > 0.0 then begin
          incr zero;
          Het.add_simple het ~hash ~path ~card:0 ~bsel:(Some 0.0) ~error:est
        end)
      estimates;

  (* Branching entries need actual counts: one scan of the storage, made
     only when some path-tree node heads a candidate. *)
  let heads =
    if mbp >= 1 && Option.is_some storage then
      candidate_heads ~bsel_threshold path_tree
    else []
  in
  (match storage with
   | Some storage when heads <> [] ->
     let storage_table = storage.Nok.Storage.table in
     let of_storage =
       Array.init (Xml.Label.count storage_table) (fun l ->
           match Xml.Label.find_opt table (Xml.Label.name storage_table l) with
           | Some k -> k
           | None -> -1)
     in
     let parents = Array.make (Xml.Label.count table) false in
     List.iter
       (fun ((node : Pathtree.Path_tree.node), _) -> parents.(node.label) <- true)
       heads;
     let groups = tally storage ~of_storage ~parents in
     let actual ~parent ~preds ~next =
       incr counts_taken;
       count groups ~parent ~preds ~next
     in
     let ept =
       Matcher.materialize (Traveler.create ~card_threshold kernel)
     in
     let estimate path =
       Matcher.estimate ~table ept (Xpath.Query_tree.of_path path)
     in
     let seen = Hashtbl.create 256 in
     let consider ~parent_label ~preds ~next =
       if !candidates >= max_branching_candidates then raise_notrace Capped
       else begin
         let next_label = match next with Some r -> r | None -> -1 in
         let hash =
           Path_hash.branching ~parent:parent_label ~predicates:preds
             ~next:next_label
         in
         if not (Hashtbl.mem seen hash) then begin
           Hashtbl.add seen hash ();
           incr candidates;
           (* Correlated bsel: P(p has all predicate children | p has r). *)
           let denom = actual ~parent:parent_label ~preds:[] ~next in
           if denom > 0 then begin
             (* [joint] counts p (or r) nodes under the predicates; both
                counts are of the same node kind, so the ratio is the
                conditional selectivity. *)
             let joint = actual ~parent:parent_label ~preds ~next in
             let bsel = float_of_int joint /. float_of_int denom in
             let q = pattern_query table ~parent:parent_label ~predicates:preds ~next in
             let err = Float.abs (estimate q -. float_of_int joint) in
             let path =
               Path_hash.branching_key ~parent:parent_label ~predicates:preds
                 ~next:next_label
             in
             incr branching;
             Het.add_branching het ~hash ~path ~bsel ~error:err
           end
         end
       end
     in
     (try
        List.iter
          (fun ((node : Pathtree.Path_tree.node), low) ->
            let kids = node.children in
            List.iter
              (fun (q : Pathtree.Path_tree.node) ->
                List.iter
                  (fun (r : Pathtree.Path_tree.node) ->
                    if r.label <> q.label then
                      consider ~parent_label:node.label ~preds:[ q.label ]
                        ~next:(Some r.label))
                  kids;
                consider ~parent_label:node.label ~preds:[ q.label ] ~next:None;
                if mbp >= 2 then
                  List.iter
                    (fun (q2 : Pathtree.Path_tree.node) ->
                      if q2.label <> q.label then begin
                        let preds = [ q.label; q2.label ] in
                        List.iter
                          (fun (r : Pathtree.Path_tree.node) ->
                            if r.label <> q.label && r.label <> q2.label then
                              consider ~parent_label:node.label ~preds
                                ~next:(Some r.label))
                          kids;
                        consider ~parent_label:node.label ~preds ~next:None;
                        if mbp >= 3 then
                          List.iter
                            (fun (q3 : Pathtree.Path_tree.node) ->
                              if q3.label <> q.label && q3.label <> q2.label then
                                List.iter
                                  (fun (r : Pathtree.Path_tree.node) ->
                                    if
                                      r.label <> q.label && r.label <> q2.label
                                      && r.label <> q3.label
                                    then
                                      consider ~parent_label:node.label
                                        ~preds:[ q.label; q2.label; q3.label ]
                                        ~next:(Some r.label))
                                  kids)
                            kids
                      end)
                    kids)
              low)
          heads
      with Capped -> ())
   | _ -> ());
  ( het,
    { simple_entries = !simple; zero_entries = !zero;
      branching_entries = !branching; branching_candidates = !candidates;
      nok_evaluations = !counts_taken } )

let pp_stats ppf s =
  Format.fprintf ppf
    "HET build: %d simple (+%d zero), %d branching of %d candidates, %d \
     pattern counts"
    s.simple_entries s.zero_entries s.branching_entries s.branching_candidates
    s.nok_evaluations
