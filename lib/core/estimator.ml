type t = {
  kernel : Kernel.t;
  het : Het.t option;
  values : Value_synopsis.t option;
  card_threshold : float;
  max_ept_nodes : int;
  recursion_aware : bool;
  obs : Obs.t option;
}

let create ?(card_threshold = 0.5) ?(max_ept_nodes = 2_000_000)
    ?(recursion_aware = true) ?het ?values ?obs kernel =
  { kernel; het; values; card_threshold; max_ept_nodes; recursion_aware; obs }

let kernel t = t.kernel
let het t = t.het
let values t = t.values
let card_threshold t = t.card_threshold
let max_ept_nodes t = t.max_ept_nodes
let recursion_aware t = t.recursion_aware
let obs t = t.obs
let with_obs t obs = { t with obs = Some obs }

let ept t =
  let traveler =
    Traveler.create ~card_threshold:t.card_threshold
      ~recursion_aware:t.recursion_aware ?het:t.het ?obs:t.obs t.kernel
  in
  Matcher.materialize ~max_nodes:t.max_ept_nodes ?obs:t.obs traveler

(* A corrupt-but-loadable synopsis (or a pathological query shape) can push
   the arithmetic into NaN/inf territory; an estimate is only useful to an
   optimizer as a finite non-negative number, so degenerate values are
   clamped and counted rather than propagated. *)
let clamp_estimate ?obs x =
  let value, clamped =
    if Float.is_nan x then (0.0, 1)
    else if x = Float.infinity then (Float.max_float, 1)
    else if x < 0.0 then (0.0, 1)
    else (x, 0)
  in
  if clamped > 0 then Obs.add_to ?obs "estimator.degenerate_clamps" 1;
  (value, clamped)

let estimate_on t ept path =
  Matcher.estimate ?het:t.het ?values:t.values ?obs:t.obs
    ~table:(Kernel.table t.kernel) ept
    (Xpath.Query_tree.of_path path)
  |> clamp_estimate ?obs:t.obs |> fst

let estimate t path = estimate_on t (ept t) path

let estimate_string t query = estimate t (Xpath.Parser.parse query)

(* Name tests absent from the kernel's label table. They are never interned
   (lookups use [find_opt]), so estimating an unknown name cannot grow the
   synopsis; it just contributes zero matches. *)
let unknown_labels t path =
  let table = Kernel.table t.kernel in
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let note n =
    if Xml.Label.find_opt table n = None && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      out := n :: !out
    end
  in
  let rec go path =
    List.iter
      (fun (s : Xpath.Ast.step) ->
        (match s.test with Xpath.Ast.Name n -> note n | Xpath.Ast.Wildcard -> ());
        List.iter go s.predicates)
      path
  in
  go path;
  List.rev !out

type outcome = { value : float; clamped : int; unknown_labels : string list }

(* The one guard of every checked estimate (and of the pool's EXPLAIN):
   refuse what the matcher cannot take, then run [f] on the query tree
   with an EPT blow-up turned into a typed error. *)
let guarded path f =
  Error.guard (fun () ->
      if path = [] then Error.raisef Error.Malformed_query "empty query";
      let qt = Xpath.Query_tree.of_path path in
      if qt.Xpath.Query_tree.size > 62 then
        Error.raisef Error.Malformed_query
          "query tree has %d nodes; the matcher's bitset encoding supports 62"
          qt.Xpath.Query_tree.size;
      match f qt with
      | v -> v
      | exception Matcher.Ept_too_large n ->
        Error.raisef Error.Limit_exceeded
          "EPT exceeded max_ept_nodes while materializing (%d nodes)" n)

let estimate_result_stats_on t ept path =
  guarded path (fun qt ->
      let raw, ms =
        Matcher.estimate_with_stats ?het:t.het ?values:t.values
          ~table:(Kernel.table t.kernel) (Lazy.force ept) qt
      in
      Matcher.publish_stats ?obs:t.obs ms;
      let value, clamped = clamp_estimate ?obs:t.obs raw in
      ({ value; clamped; unknown_labels = unknown_labels t path }, ms))

let estimate_result_on t ept path =
  Result.map fst (estimate_result_stats_on t ept path)

let estimate_result t path = estimate_result_on t (lazy (ept t)) path

let estimate_string_result t query =
  match Xpath.Parser.parse_result query with
  | Result.Error { position; message } ->
    Result.Error (Error.make ~position Error.Malformed_query message)
  | Ok path -> estimate_result t path

(* A rooted simple path: child axes, name tests, no predicates. *)
let simple_labels table path =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | ({ axis = Xpath.Ast.Child; test = Xpath.Ast.Name n; predicates = [];
         value_predicates = [] }
       : Xpath.Ast.step)
      :: rest ->
      (match Xml.Label.find_opt table n with
       | Some l -> go (l :: acc) rest
       | None -> None)
    | _ :: _ -> None
  in
  go [] path

(* A path whose last step is .../p[q1]..[qk]/r with single-label child-axis
   predicates on p only: returns (pattern hash, predicate-free path). *)
let branching_pattern table path =
  let rec split prefix = function
    | [ penultimate; last ] -> Some (List.rev prefix, penultimate, last)
    | step :: rest -> split (step :: prefix) rest
    | [] -> None
  in
  match split [] path with
  | None -> None
  | Some (prefix, (p : Xpath.Ast.step), (r : Xpath.Ast.step)) ->
    if p.predicates = [] || r.predicates <> [] then None
    else
      let simple_pred = function
        | [ ({ axis = Xpath.Ast.Child; test = Xpath.Ast.Name n; predicates = [];
               value_predicates = [] }
             : Xpath.Ast.step) ] ->
          Xml.Label.find_opt table n
        | _ -> None
      in
      let pred_labels = List.map simple_pred p.predicates in
      if List.exists Option.is_none pred_labels then None
      else
        match (p.test, r.test) with
        | Xpath.Ast.Name pn, Xpath.Ast.Name rn ->
          (match (Xml.Label.find_opt table pn, Xml.Label.find_opt table rn) with
           | Some pl, Some rl ->
             let predicates = List.map Option.get pred_labels in
             let hash = Path_hash.branching ~parent:pl ~predicates ~next:rl in
             let key =
               Path_hash.branching_key ~parent:pl ~predicates ~next:rl
             in
             let stripped = prefix @ [ { p with predicates = [] }; r ] in
             Some (hash, key, stripped)
           | _ -> None)
        | _ -> None

let record_feedback ?ept:shared_ept t path ~actual =
  match t.het with
  | None -> false
  | Some het ->
    let estimate path =
      match shared_ept with
      | Some e -> estimate_on t e path
      | None -> estimate t path
    in
    let table = Kernel.table t.kernel in
    (match simple_labels table path with
     | Some labels ->
       let est = estimate path in
       let error = Float.abs (est -. float_of_int actual) in
       Het.record_feedback het ~hash:(Path_hash.of_labels labels)
         ~path:(Path_hash.key_of_labels labels) ~card:actual ~error ();
       true
     | None ->
       (match branching_pattern table path with
        | None -> false
        | Some (hash, pattern_key, stripped) ->
          let est = estimate path in
          let error = Float.abs (est -. float_of_int actual) in
          let denom = estimate stripped in
          if denom > 0.0 then begin
            let bsel = Float.min 1.0 (float_of_int actual /. denom) in
            Het.record_branching_feedback het ~hash ~path:pattern_key ~bsel
              ~error;
            true
          end
          else false))

let size_in_bytes t =
  Kernel.size_in_bytes t.kernel
  + (match t.het with None -> 0 | Some h -> Het.size_in_bytes h)
  + (match t.values with None -> 0 | Some v -> Value_synopsis.size_in_bytes v)
