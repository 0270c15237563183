(* The benchmark's inputs. Each workload serves fixed data sets — corpora
   and distinct query sets (with NoK ground truth) generated with a fixed
   data seed, as the paper's data sets are fixed — so accuracy and synopsis
   size belong to the code under test, not to the run. The run's --seed
   drives the traffic: query order and batch composition, which queries
   are hot, the estimate/feedback mix. The server only ever sees the
   generated files and request frames. *)

type workload = Batch_miss | Point_hot | Feedback_tenants

let workload_of_name = function
  | "batch-miss" -> Some Batch_miss
  | "point-hot" -> Some Point_hot
  | "feedback-tenants" -> Some Feedback_tenants
  | _ -> None

(* Server shape per workload. [workers] and client connections are capped
   at the host's core count by the caller. *)
let batch_size = 32
let batch_cache_capacity = 256
let point_cache_capacity = 1024

(* Offered rate of point-hot-open (point-hot's inputs sent on a schedule),
   requests per second over both connections: about a third of the
   closed-loop point-hot capacity (~25.7k/s) measured on a 2-core host. *)
let point_rate = 8000.0

let feedback_share = 0.2
let switch_every = 4096

type query = { text : string; ast : Xpath.Ast.t; truth : int }

type corpus = {
  tenant : string;
  doc : string;
  card_threshold : float option;  (* passed to [xseed build] *)
  mutable queries : query array;  (* distinct, canonical spelling *)
}

let corpus_specs = function
  | Batch_miss -> [ ("treebank", `Treebank 1500, Some 20.0, 2048) ]
  | Point_hot -> [ ("xmark", `Xmark 600, None, 300) ]
  | Feedback_tenants ->
    [ ("dblp", `Dblp 2000, None, 150);
      ("xmark", `Xmark 300, None, 150);
      ("treebank", `Treebank 500, Some 20.0, 150) ]

let data_seed = 42

let corpora wl =
  List.mapi
    (fun i (tenant, gen, card_threshold, _) ->
      let seed = data_seed + i in
      let doc =
        match gen with
        | `Treebank sentences -> Datagen.Treebank.generate ~seed ~sentences ()
        | `Xmark items -> Datagen.Xmark.generate ~seed ~items ()
        | `Dblp records -> Datagen.Dblp.generate ~seed ~records ()
      in
      { tenant; doc; card_threshold; queries = [||] })
    (corpus_specs wl)

let wanted wl tenant =
  List.fold_left
    (fun acc (t, _, _, n) -> if t = tenant then n else acc)
    0 (corpus_specs wl)

(* Draw BP and CP queries from the document's path tree until [want]
   distinct canonical spellings that the served estimator answers without
   error; each gets its NoK true cardinality. *)
let fill_queries wl corpus ~estimator ~ept =
  let want = wanted wl corpus.tenant in
  let rng = Datagen.Rng.create ~seed:(data_seed + Hashtbl.hash corpus.tenant) in
  let pt = Pathtree.Path_tree.of_string corpus.doc in
  let storage = Nok.Storage.of_string corpus.doc in
  let seen = Hashtbl.create 4096 in
  let out = ref [] and n = ref 0 and rounds = ref 0 in
  while !n < want && !rounds < 64 do
    incr rounds;
    let candidates =
      Datagen.Workload.branching pt ~rng ~count:128 ~mbp:2 ()
      @ Datagen.Workload.complex pt ~rng ~count:128 ~mbp:2 ()
    in
    List.iter
      (fun ast ->
        let text = (Engine.Canonical.of_ast ast).Engine.Canonical.text in
        if !n < want && not (Hashtbl.mem seen text) then begin
          Hashtbl.add seen text ();
          match Xpath.Parser.parse_result text with
          | Error _ -> ()
          | Ok ast ->
            (match Core.Estimator.estimate_result_on estimator ept ast with
             | Error _ -> ()
             | Ok _ ->
               out := { text; ast; truth = Nok.Eval.cardinality storage ast } :: !out;
               incr n)
        end)
      candidates
  done;
  if !n < want then
    failwith
      (Printf.sprintf "%s: only %d distinct answerable queries (wanted %d)"
         corpus.tenant !n want);
  corpus.queries <- Array.of_list (List.rev !out)

(* Zipf(1.0) sampler over ranks 0..n-1. *)
let zipf rng n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun () ->
    let x = Datagen.Rng.float rng *. total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

(* One request as the load generator sends it: the frame payload plus
   what the reply is checked against. *)
type request =
  | Batch of query array
  | Estimate of string * query  (* tenant *)
  | Feedback of string * query
  | Use of string

let payload = function
  | Batch qs ->
    Printf.sprintf "BATCH %d\n%s" (Array.length qs)
      (String.concat "\n" (Array.to_list (Array.map (fun q -> q.text) qs)))
  | Estimate (_, q) -> "ESTIMATE " ^ q.text
  | Feedback (_, q) -> Printf.sprintf "FEEDBACK %s %d" q.text q.truth
  | Use t -> "USE " ^ t

(* Per-connection request generators. Batch-miss shares one cursor across
   connections so the cycle through the distinct set stays global: every
   query's reuse distance is the whole set, far past the caches. *)
let shuffled rng qs =
  let a = Array.copy qs in
  Datagen.Rng.shuffle rng a;
  a

let streams wl ~seed ~conns corpora =
  let rng = Datagen.Rng.create ~seed in
  match wl with
  | Batch_miss ->
    let qs = shuffled rng (List.hd corpora).queries in
    let n = Array.length qs in
    let cursor = ref 0 in
    let next () =
      let b = Array.init batch_size (fun i -> qs.((!cursor + i) mod n)) in
      cursor := (!cursor + batch_size) mod n;
      Batch b
    in
    Array.make conns next
  | Point_hot ->
    let c = List.hd corpora in
    let by_rank = shuffled rng c.queries in
    let draw = zipf rng (Array.length by_rank) in
    let next () = Estimate (c.tenant, by_rank.(draw ())) in
    Array.make conns next
  | Feedback_tenants ->
    (* Connection 0 alternates between the first two tenants, connection 1
       owns the third; with one connection every tenant rotates through
       connection 0. Each tenant is driven by exactly one connection. *)
    let tenants = Array.of_list corpora in
    let owned =
      if conns >= 2 then [| [| tenants.(0); tenants.(1) |]; [| tenants.(2) |] |]
      else [| tenants |]
    in
    Array.mapi
      (fun i mine ->
        let rng = Datagen.Rng.create ~seed:(seed + 101 + (7919 * i)) in
        let sent = ref 0 in
        fun () ->
          let k = !sent in
          incr sent;
          let c = mine.((k / switch_every) mod Array.length mine) in
          if k mod switch_every = 0 then Use c.tenant
          else begin
            let q = c.queries.(Datagen.Rng.int rng (Array.length c.queries)) in
            if Datagen.Rng.float rng < feedback_share then Feedback (c.tenant, q)
            else Estimate (c.tenant, q)
          end)
      owned

let is_recursive q = Xpath.Ast.has_descendant q.ast
