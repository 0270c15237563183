(* Observability: counters, gauges, histograms, sliding windows, spans,
   pluggable sinks, JSON snapshots and Prometheus text exposition. Depends
   only on the stdlib and the unix library shipped with the compiler. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let float_repr f =
    (* Shortest rendering that round-trips; JSON has no NaN/infinity, so
       non-finite values are emitted as null (see the .mli convention). *)
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s -> escape_to buf s
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    to_buffer buf t;
    Buffer.contents buf

  (* A small recursive-descent parser, enough to round-trip the sink's own
     output and to let tests validate JSON-lines files. *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = invalid_arg (Printf.sprintf "Json.of_string: %s at %d" msg !pos) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
            incr pos;
            (if !pos >= n then fail "dangling escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; incr pos
               | '\\' -> Buffer.add_char buf '\\'; incr pos
               | '/' -> Buffer.add_char buf '/'; incr pos
               | 'n' -> Buffer.add_char buf '\n'; incr pos
               | 't' -> Buffer.add_char buf '\t'; incr pos
               | 'r' -> Buffer.add_char buf '\r'; incr pos
               | 'b' -> Buffer.add_char buf '\b'; incr pos
               | 'f' -> Buffer.add_char buf '\012'; incr pos
               | 'u' ->
                 if !pos + 4 >= n then fail "short \\u escape";
                 let hex = String.sub s (!pos + 1) 4 in
                 let cp =
                   try int_of_string ("0x" ^ hex)
                   with Failure _ -> fail "bad \\u escape"
                 in
                 pos := !pos + 5;
                 if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                 else if cp < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                   Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                 end
               | c -> fail (Printf.sprintf "bad escape \\%c" c));
            go ()
          | c -> Buffer.add_char buf c; incr pos; go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && num_char s.[!pos] do incr pos done;
      let body = String.sub s start (!pos - start) in
      let is_float =
        String.exists (function '.' | 'e' | 'E' -> true | _ -> false) body
      in
      if is_float then
        match float_of_string_opt body with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt body with
        | Some i -> Int i
        | None -> (
          match float_of_string_opt body with
          | Some f -> Float f
          | None -> fail "bad number")
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin incr pos; List [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; items (v :: acc)
            | Some ']' -> incr pos; List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin incr pos; Obj [] end
        else
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let kv = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos; fields (kv :: acc)
            | Some '}' -> incr pos; Obj (List.rev (kv :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          fields []
      | Some _ -> parse_number ()
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  (* [to_string] emits non-finite floats as null, so [Float nan] and [Null]
     are the same value on the wire — [equal] honours that, making
     [of_string (to_string v)] an identity for everything we can emit. *)
  let rec equal a b =
    match (a, b) with
    | Null, Null -> true
    | (Null, Float f | Float f, Null) when not (Float.is_finite f) -> true
    | Bool a, Bool b -> a = b
    | Int a, Int b -> a = b
    | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
    | Int a, Float b | Float b, Int a -> float_of_int a = b
    | String a, String b -> String.equal a b
    | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
    | Obj a, Obj b ->
      let sort = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) in
      let a = sort a and b = sort b in
      List.length a = List.length b
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
           a b
    | _ -> false

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)

(* Monotonic clock (CLOCK_MONOTONIC) for every duration this layer
   measures: spans, window rotation, trace events. Wall clock jumps under
   NTP skew; durations must not. The external is noalloc with an unboxed
   float return so reading it costs a plain C call. *)
external now_mono : unit -> (float[@unboxed])
  = "xseed_obs_monotonic_s" "xseed_obs_monotonic_s_unboxed"
[@@noalloc]

external minor_collections : unit -> int = "xseed_obs_minor_collections"
[@@noalloc]

external major_collections : unit -> int = "xseed_obs_major_collections"
[@@noalloc]

external major_words : unit -> (float[@unboxed])
  = "xseed_obs_major_words" "xseed_obs_major_words_unboxed"
[@@noalloc]

type sink = Noop | Stderr | Jsonl of out_channel

type labels = (string * string) list

(* Canonical (sorted) label rendering; doubles as the registry-key suffix so
   label order never creates duplicate series. *)
let render_labels labels =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) labels in
  let buf = Buffer.create 32 in
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf k;
      Buffer.add_string buf "=\"";
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string buf "\\\\"
          | '"' -> Buffer.add_string buf "\\\""
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        v;
      Buffer.add_char buf '"')
    sorted;
  Buffer.contents buf

let series_key name labels =
  if labels = [] then name else name ^ "{" ^ render_labels labels ^ "}"

(* [peak]: fed by [set_max], so a high-water mark (or a republished
   total), which merges by max rather than by sum. *)
type counter = {
  cname : string;
  clabels : labels;
  mutable n : int;
  mutable peak : bool;
}
type gauge = { gname : string; glabels : labels; mutable g : float }

(* Base-2 log buckets over non-negative samples: bucket 0 is [0, 1), bucket
   i >= 1 is [2^(i-1), 2^i). Exact count/sum/max ride along so mean and max
   are not approximated. *)
let hbuckets = 64

type histogram = {
  hname : string;
  hlabels : labels;
  mutable count : int;
  mutable sum : float;
  mutable max : float;
  buckets : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  mutable sink : sink;
  registry : (string, metric) Hashtbl.t;
  mutable order : string list;  (* reverse registration order of series keys *)
  depth : int Atomic.t;
      (* current span nesting, for the pretty sink; atomic because pool
         workers may emit through one shared context concurrently *)
  lock : Mutex.t;  (* guards registry/order shape, not metric bumps *)
}

(* Bumping a resolved handle stays a plain mutable-field update (memory-safe
   under the OCaml 5 model; concurrent bumps may lose increments, which the
   engine avoids by giving each domain its own registry). The mutex ([lock],
   taken with [Mutex.protect]) only serializes registry *shape* changes
   against iteration, so one domain can keep registering new series while
   another renders a scrape without either tripping over a resizing
   Hashtbl. *)

let create ?(sink = Noop) () =
  { sink;
    registry = Hashtbl.create 32;
    order = [];
    depth = Atomic.make 0;
    lock = Mutex.create () }

let sink t = t.sink

let jsonl_file path = Jsonl (open_out path)

let close t =
  (match t.sink with
   | Jsonl oc -> flush oc; close_out oc
   | Stderr | Noop -> ());
  t.sink <- Noop

let register t key metric =
  Hashtbl.replace t.registry key metric;
  t.order <- key :: t.order

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let wrong_kind what key m =
  invalid_arg (Printf.sprintf "Obs.%s: %s is a %s" what key (kind_name m))

let counter_with t name labels =
  let key = series_key name labels in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.registry key with
      | Some (Counter c) -> c
      | Some m -> wrong_kind "counter" key m
      | None ->
        let c = { cname = name; clabels = labels; n = 0; peak = false } in
        register t key (Counter c);
        c)

let counter t name = counter_with t name []

let incr c = c.n <- c.n + 1
let add c k = c.n <- c.n + k
let raise_to c v = if v > c.n then c.n <- v

let set_max c v =
  c.peak <- true;
  raise_to c v

let value c = c.n

let gauge_with t name labels =
  let key = series_key name labels in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.registry key with
      | Some (Gauge g) -> g
      | Some m -> wrong_kind "gauge" key m
      | None ->
        let g = { gname = name; glabels = labels; g = 0.0 } in
        register t key (Gauge g);
        g)

let gauge t name = gauge_with t name []

let gset g v = g.g <- v
let gvalue g = g.g

let histogram_with t name labels =
  let key = series_key name labels in
  Mutex.protect t.lock (fun () ->
      match Hashtbl.find_opt t.registry key with
      | Some (Histogram h) -> h
      | Some m -> wrong_kind "histogram" key m
      | None ->
        let h =
          { hname = name; hlabels = labels; count = 0; sum = 0.0;
            max = neg_infinity; buckets = Array.make hbuckets 0 }
        in
        register t key (Histogram h);
        h)

let histogram t name = histogram_with t name []

let bucket_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (Float.log2 v) in
    if i >= hbuckets then hbuckets - 1 else i

let hobserve h v =
  let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v > h.max then h.max <- v;
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1

let hcount h = h.count
let hsum h = h.sum
let hmean h = if h.count = 0 then Float.nan else h.sum /. float_of_int h.count
let hmax h = if h.count = 0 then Float.nan else h.max

(* Rank selection over log buckets, shared by plain histograms and merged
   windows: exact bucket choice, geometric interpolation inside it. *)
let percentile_over ~count ~maxv buckets p =
  if count = 0 then Float.nan
  else begin
    let p = Float.min 1.0 (Float.max 0.0 p) in
    let rank = p *. float_of_int count in
    let rank = if rank < 1.0 then 1.0 else rank in
    let cum = ref 0 and result = ref maxv in
    (try
       for i = 0 to hbuckets - 1 do
         let c = buckets i in
         if c > 0 then begin
           let before = !cum in
           cum := !cum + c;
           if float_of_int !cum >= rank then begin
             (* Linear interpolation inside the bucket's range. *)
             let lo = if i = 0 then 0.0 else Float.pow 2.0 (float_of_int (i - 1)) in
             let hi = if i = 0 then 1.0 else lo *. 2.0 in
             let hi = Float.min hi maxv in
             let frac = (rank -. float_of_int before) /. float_of_int c in
             result := lo +. ((hi -. lo) *. frac);
             raise Exit
           end
         end
       done
     with Exit -> ());
    Float.min !result maxv
  end

let hpercentile h p =
  percentile_over ~count:h.count ~maxv:h.max (Array.get h.buckets) p

(* ------------------------------------------------------------------ *)
(* Sliding windows: a ring of sub-histograms the owner rotates; reads
   merge the live slots. *)

module Window = struct
  type slot = {
    mutable scount : int;
    mutable smax : float;
    sbuckets : int array;
  }

  type t = {
    slots : slot array;
    mutable idx : int;  (* slot receiving observations *)
  }

  let fresh_slot () =
    { scount = 0; smax = neg_infinity; sbuckets = Array.make hbuckets 0 }

  let create ?(slots = 6) () =
    if slots < 1 then
      invalid_arg (Printf.sprintf "Obs.Window.create: slots %d < 1" slots);
    { slots = Array.init slots (fun _ -> fresh_slot ()); idx = 0 }

  let clear_slot s =
    s.scount <- 0;
    s.smax <- neg_infinity;
    Array.fill s.sbuckets 0 hbuckets 0

  let rotate t =
    t.idx <- (t.idx + 1) mod Array.length t.slots;
    clear_slot t.slots.(t.idx)

  let observe t v =
    let v = if Float.is_nan v || v < 0.0 then 0.0 else v in
    let s = t.slots.(t.idx) in
    s.scount <- s.scount + 1;
    if v > s.smax then s.smax <- v;
    s.sbuckets.(bucket_of v) <- s.sbuckets.(bucket_of v) + 1

  let count t = Array.fold_left (fun acc s -> acc + s.scount) 0 t.slots

  let max t =
    if count t = 0 then Float.nan
    else
      Array.fold_left
        (fun acc s -> if s.scount > 0 && s.smax > acc then s.smax else acc)
        neg_infinity t.slots

  let percentile t p =
    let c = count t in
    if c = 0 then Float.nan
    else
      let maxv = max t in
      percentile_over ~count:c ~maxv
        (fun i ->
          Array.fold_left (fun acc s -> acc + s.sbuckets.(i)) 0 t.slots)
        p
end

(* ------------------------------------------------------------------ *)
(* Optional-context helpers: no-ops without a context. *)

let add_to ?obs name k =
  match obs with None -> () | Some t -> add (counter t name) k

let max_to ?obs name v =
  match obs with None -> () | Some t -> set_max (counter t name) v

let set_to ?obs name v =
  match obs with None -> () | Some t -> gset (gauge t name) v

let observe ?obs name v =
  match obs with None -> () | Some t -> hobserve (histogram t name) v

(* ------------------------------------------------------------------ *)
(* Events and spans. *)

let now () = Unix.gettimeofday ()

let emit t name fields =
  match t.sink with
  | Noop -> ()
  | Stderr ->
    let b = Buffer.create 80 in
    Buffer.add_string b "[obs] ";
    for _ = 1 to Atomic.get t.depth do Buffer.add_string b "  " done;
    Buffer.add_string b name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char b ' ';
        Buffer.add_string b k;
        Buffer.add_char b '=';
        Buffer.add_string b
          (match v with Json.String s -> s | v -> Json.to_string v))
      fields;
    Buffer.add_char b '\n';
    prerr_string (Buffer.contents b)
  | Jsonl oc ->
    (* Event timestamps are the one place wall time belongs: they key sink
       lines to real-world time; every duration is monotonic. *)
    let b = Buffer.create 120 in
    Json.to_buffer b
      (Json.Obj
         (("event", Json.String name)
         :: ("ts", Json.Float (now ()))
         :: fields));
    Buffer.add_char b '\n';
    output_string oc (Buffer.contents b)

let event ?obs ?(fields = []) name =
  match obs with None -> () | Some t -> emit t name fields

let span ?obs name f =
  match obs with
  | None -> f ()
  | Some t when t.sink = Noop -> f ()
  | Some t ->
    emit t "span_begin" [ ("name", Json.String name) ];
    Atomic.incr t.depth;
    let t0 = now_mono () in
    let finish () =
      let ms = 1000.0 *. (now_mono () -. t0) in
      Atomic.decr t.depth;
      hobserve (histogram t (name ^ ".ms")) ms;
      emit t "span_end" [ ("name", Json.String name); ("dur_ms", Json.Float ms) ]
    in
    (match f () with
     | result -> finish (); result
     | exception e -> finish (); raise e)

(* ------------------------------------------------------------------ *)
(* Snapshots. *)

let histogram_json h =
  Json.Obj
    [ ("count", Json.Int h.count);
      ("sum", Json.Float h.sum);
      ("mean", Json.Float (hmean h));
      ("max", Json.Float (hmax h));
      ("p50", Json.Float (hpercentile h 0.5));
      ("p90", Json.Float (hpercentile h 0.9));
      ("p99", Json.Float (hpercentile h 0.99)) ]

let snapshot t =
  let fields =
    Mutex.protect t.lock (fun () ->
        List.rev_map
          (fun key ->
            match Hashtbl.find t.registry key with
            | Counter c -> (key, Json.Int c.n)
            | Gauge g -> (key, Json.Float g.g)
            | Histogram h -> (key, histogram_json h))
          t.order)
  in
  Json.Obj fields

let emit_snapshot t =
  match t.sink with
  | Noop -> ()
  | _ ->
    (match snapshot t with
     | Json.Obj fields -> emit t "snapshot" fields
     | _ -> ())

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format version 0.0.4). *)

let sanitize_metric_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

(* Prometheus, unlike JSON, has spellings for non-finite values. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Json.float_repr f

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prometheus ?(prefix = "") t =
  Mutex.protect t.lock @@ fun () ->
  let buf = Buffer.create 1024 in
  (* Group series into families (by exported name) so each family gets
     exactly one HELP/TYPE pair with all its samples beneath — grouping by
     the sanitized name also keeps two dotted names that collapse to the
     same exported spelling from emitting duplicate headers. *)
  let families = Hashtbl.create 16 in
  let fam_order = ref [] in
  List.iter
    (fun key ->
      let m = Hashtbl.find t.registry key in
      let base =
        match m with
        | Counter c -> c.cname
        | Gauge g -> g.gname
        | Histogram h -> h.hname
      in
      let fam = sanitize_metric_name (prefix ^ base) in
      match Hashtbl.find_opt families fam with
      | None ->
        Hashtbl.add families fam (base, [ m ]);
        fam_order := fam :: !fam_order
      | Some (b0, ms) -> Hashtbl.replace families fam (b0, m :: ms))
    (List.rev t.order);
  let sample name labels value =
    Buffer.add_string buf name;
    if labels <> [] then begin
      Buffer.add_char buf '{';
      Buffer.add_string buf (render_labels labels);
      Buffer.add_char buf '}'
    end;
    Buffer.add_char buf ' ';
    Buffer.add_string buf value;
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun fam ->
      let base, rev_members = Hashtbl.find families fam in
      let members = List.rev rev_members in
      let kind =
        match members with
        | Counter _ :: _ -> "counter"
        | Gauge _ :: _ -> "gauge"
        | Histogram _ :: _ -> "histogram"
        | [] -> "untyped"
      in
      Buffer.add_string buf
        (Printf.sprintf "# HELP %s %s\n" fam (escape_help base));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" fam kind);
      List.iter
        (fun m ->
          match m with
          | Counter c -> sample fam c.clabels (string_of_int c.n)
          | Gauge g -> sample fam g.glabels (prom_float g.g)
          | Histogram h ->
            (* Cumulative counts on the base-2 bucket bounds, up to the
               highest occupied bucket, then the mandatory +Inf bucket. *)
            let top = ref (-1) in
            Array.iteri (fun i c -> if c > 0 then top := i) h.buckets;
            let cum = ref 0 in
            for i = 0 to !top do
              cum := !cum + h.buckets.(i);
              let le =
                if i = 0 then 1.0 else Float.pow 2.0 (float_of_int i)
              in
              sample (fam ^ "_bucket")
                (("le", prom_float le) :: h.hlabels)
                (string_of_int !cum)
            done;
            sample (fam ^ "_bucket")
              (("le", "+Inf") :: h.hlabels)
              (string_of_int h.count);
            sample (fam ^ "_sum") h.hlabels (prom_float h.sum);
            sample (fam ^ "_count") h.hlabels (string_of_int h.count))
        members)
    (List.rev !fam_order);
  Buffer.contents buf

let reset t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.iter
        (fun _ metric ->
          match metric with
          | Counter c -> c.n <- 0
          | Gauge g -> g.g <- 0.0
          | Histogram h ->
            h.count <- 0;
            h.sum <- 0.0;
            h.max <- neg_infinity;
            Array.fill h.buckets 0 hbuckets 0)
        t.registry)

(* Merge several registries into a fresh one with a canonical series order.
   Values are copied under each input's lock (shape-stable), then combined:
   counters add, except that a series any input fed by [set_max] takes the
   largest input (two shards' frontier peaks are one peak, not a sum);
   gauges add; histograms merge bucket-wise with [count]
   recomputed from the merged buckets so the rendered cumulative series
   stays self-consistent even if an input was being bumped mid-copy. The
   result's series are ordered by key, so snapshots and Prometheus output
   are deterministic regardless of per-input registration order. *)
let merged_labeled lts =
  let out = create () in
  let copies =
    List.map
      (fun (extra, t) ->
        (* Extra labels append after the series' own (series keys sort the
           set, so the rendered order is canonical either way); the serving
           registry uses this to stamp tenant="…" on a whole registry. *)
        let widen labels = labels @ extra in
        Mutex.protect t.lock (fun () ->
            List.rev_map
              (fun key ->
                match Hashtbl.find t.registry key with
                | Counter c -> `C (c.cname, widen c.clabels, c.n, c.peak)
                | Gauge g -> `G (g.gname, widen g.glabels, g.g)
                | Histogram h ->
                  `H (h.hname, widen h.hlabels, h.sum, h.max, Array.copy h.buckets))
              t.order))
      lts
  in
  let peaks = Hashtbl.create 8 in
  List.iter
    (List.iter (function
      | `C (name, labels, _, true) ->
        Hashtbl.replace peaks (series_key name labels) ()
      | _ -> ()))
    copies;
  List.iter
    (List.iter (fun m ->
         match m with
         | `C (name, labels, n, _) ->
           let c = counter_with out name labels in
           if Hashtbl.mem peaks (series_key name labels) then set_max c n
           else add c n
         | `G (name, labels, v) ->
           let g = gauge_with out name labels in
           gset g (gvalue g +. v)
         | `H (name, labels, sum, mx, buckets) ->
           let h = histogram_with out name labels in
           h.sum <- h.sum +. sum;
           if mx > h.max then h.max <- mx;
           Array.iteri (fun i c -> h.buckets.(i) <- h.buckets.(i) + c) buckets;
           h.count <- Array.fold_left ( + ) 0 h.buckets))
    copies;
  (* [order] is kept in reverse registration order; storing the keys sorted
     descending makes every reader (which reverses) see ascending key order. *)
  out.order <- List.sort (fun a b -> String.compare b a) out.order;
  out

let merged ts = merged_labeled (List.map (fun t -> ([], t)) ts)

(* Copy [src]'s current values into [into], series by series, so that
   republishing a growing source before every snapshot is idempotent:
   counters only rise (a source total never shrinks) and keep the source's
   merge kind, gauges and histograms are overwritten with the source's
   state. *)
let mirror ~into src =
  let copies =
    Mutex.protect src.lock (fun () ->
        List.rev_map
          (fun key ->
            match Hashtbl.find src.registry key with
            | Counter c -> `C (c.cname, c.clabels, c.n, c.peak)
            | Gauge g -> `G (g.gname, g.glabels, g.g)
            | Histogram h ->
              `H (h.hname, h.hlabels, h.count, h.sum, h.max, Array.copy h.buckets))
          src.order)
  in
  List.iter
    (function
      | `C (name, labels, n, peak) ->
        let c = counter_with into name labels in
        if peak then c.peak <- true;
        raise_to c n
      | `G (name, labels, v) -> gset (gauge_with into name labels) v
      | `H (name, labels, count, sum, mx, buckets) ->
        let h = histogram_with into name labels in
        h.count <- count;
        h.sum <- sum;
        h.max <- mx;
        Array.blit buckets 0 h.buckets 0 hbuckets)
    copies

(* ------------------------------------------------------------------ *)
(* Causal tracing: per-domain ring buffers of timestamped events merged
   into one Chrome-trace-event / Perfetto JSON file.

   Design constraints, in order:
   - the record path must be safe to call from a worker domain's hot loop:
     each buffer is written by exactly one domain (no lock, no atomics) and
     a recorded event touches only preallocated arrays — structure-of-arrays
     rather than a record per slot, because OCaml boxes a float written into
     a mixed mutable record;
   - names are interned once at setup time, so the record path handles
     integer ids only;
   - timestamps come from the monotonic clock, as seconds relative to the
     trace's origin [t0]; the wall clock at [t0] is carried in the export
     header so tools can anchor the trace in real time. *)

module Trace = struct
  (* Slot op codes; each maps to one Chrome trace-event phase. *)
  let op_complete = 0 (* X *)
  let op_begin = 1 (* B *)
  let op_end = 2 (* E *)
  let op_instant = 3 (* i *)
  let op_counter = 4 (* C *)
  let op_flow_start = 5 (* s *)
  let op_flow_step = 6 (* t *)
  let op_flow_end = 7 (* f *)
  let op_async_begin = 8 (* b *)
  let op_async_end = 9 (* e *)

  type buf = {
    btrace : trace;
    tid : int;
    tid_name : string;
    bcap : int;
    mutable total : int;  (* lifetime events; slot = total mod bcap *)
    ops : int array;
    names : int array;  (* interned name ids *)
    tss : float array;  (* seconds since t0 *)
    durs : float array;  (* X only *)
    ids : int array;  (* flow/async/seq id; -1 = none *)
    args : float array;  (* C only *)
  }

  and trace = {
    mutable interned : string array;
    mutable n_interned : int;
    itbl : (string, int) Hashtbl.t;
    mutable bufs : buf list;  (* reverse registration order *)
    tlock : Mutex.t;  (* guards interning and buffer registration *)
    t0 : float;  (* monotonic origin *)
    wall0 : float;  (* wall clock read at the same instant as t0 *)
    pid : int;
    default_capacity : int;
  }

  type t = trace

  let with_tlock t f =
    Mutex.lock t.tlock;
    match f () with
    | v ->
      Mutex.unlock t.tlock;
      v
    | exception e ->
      Mutex.unlock t.tlock;
      raise e

  let create ?(capacity = 65536) () =
    if capacity < 1 then
      invalid_arg (Printf.sprintf "Obs.Trace.create: capacity %d < 1" capacity);
    { interned = Array.make 16 "";
      n_interned = 0;
      itbl = Hashtbl.create 16;
      bufs = [];
      tlock = Mutex.create ();
      t0 = now_mono ();
      wall0 = Unix.gettimeofday ();
      pid = Unix.getpid ();
      default_capacity = capacity }

  let intern t name =
    with_tlock t (fun () ->
        match Hashtbl.find_opt t.itbl name with
        | Some id -> id
        | None ->
          let id = t.n_interned in
          if id = Array.length t.interned then begin
            let grown = Array.make (2 * id) "" in
            Array.blit t.interned 0 grown 0 id;
            t.interned <- grown
          end;
          t.interned.(id) <- name;
          t.n_interned <- id + 1;
          Hashtbl.add t.itbl name id;
          id)

  let register ?capacity t ~tid ~name =
    let cap = Option.value capacity ~default:t.default_capacity in
    if cap < 1 then
      invalid_arg (Printf.sprintf "Obs.Trace.register: capacity %d < 1" cap);
    let b =
      { btrace = t;
        tid;
        tid_name = name;
        bcap = cap;
        total = 0;
        ops = Array.make cap 0;
        names = Array.make cap 0;
        tss = Array.make cap 0.0;
        durs = Array.make cap 0.0;
        ids = Array.make cap (-1);
        args = Array.make cap 0.0 }
    in
    with_tlock t (fun () -> t.bufs <- b :: t.bufs);
    b

  let now t = now_mono () -. t.t0
  let rel t mono = mono -. t.t0
  let total b = b.total
  let trace b = b.btrace

  (* The record path: one slot write, no lock (a buf has one writer). *)
  let record b op name ts dur id arg =
    let i = b.total mod b.bcap in
    b.total <- b.total + 1;
    b.ops.(i) <- op;
    b.names.(i) <- name;
    b.tss.(i) <- ts;
    b.durs.(i) <- dur;
    b.ids.(i) <- id;
    b.args.(i) <- arg

  let complete b ~name ~ts ~dur = record b op_complete name ts dur (-1) 0.0

  let complete_seq b ~name ~ts ~dur ~seq = record b op_complete name ts dur seq 0.0

  let begin_span b ~name ~ts = record b op_begin name ts 0.0 (-1) 0.0
  let end_span b ~name ~ts = record b op_end name ts 0.0 (-1) 0.0
  let instant b ~name ~ts = record b op_instant name ts 0.0 (-1) 0.0
  let counter b ~name ~ts ~value = record b op_counter name ts 0.0 (-1) value
  let flow_start b ~name ~ts ~id = record b op_flow_start name ts 0.0 id 0.0
  let flow_step b ~name ~ts ~id = record b op_flow_step name ts 0.0 id 0.0
  let flow_end b ~name ~ts ~id = record b op_flow_end name ts 0.0 id 0.0
  let async_begin b ~name ~ts ~id = record b op_async_begin name ts 0.0 id 0.0
  let async_end b ~name ~ts ~id = record b op_async_end name ts 0.0 id 0.0

  (* ---------------- export ---------------- *)

  let us s = s *. 1e6

  (* The ring holds the newest [min total bcap] events in write order
     starting at [total mod bcap] once wrapped. Write order is not
     timestamp order (an X slice is recorded when it *ends*, stamped with
     its start time), so the exporter stable-sorts each thread's events by
     [ts] — Perfetto requires per-track monotonicity, and stability keeps
     same-stamp events (a B and its nested sibling) in record order. *)
  let live_slots b =
    let n = min b.total b.bcap in
    let start = if b.total <= b.bcap then 0 else b.total mod b.bcap in
    List.init n (fun k -> (start + k) mod b.bcap)

  let event_json t b i =
    let name = t.interned.(b.names.(i)) in
    let base =
      [ ("name", Json.String name);
        ("pid", Json.Int t.pid);
        ("tid", Json.Int b.tid);
        ("ts", Json.Float (us b.tss.(i))) ]
    in
    let ph p = ("ph", Json.String p) in
    let id () = ("id", Json.Int b.ids.(i)) in
    let op = b.ops.(i) in
    if op = op_complete then
      Json.Obj
        (ph "X" :: base
        @ [ ("dur", Json.Float (us b.durs.(i))) ]
        @
        if b.ids.(i) >= 0 then
          [ ("args", Json.Obj [ ("seq", Json.Int b.ids.(i)) ]) ]
        else [])
    else if op = op_begin then Json.Obj (ph "B" :: base)
    else if op = op_end then Json.Obj (ph "E" :: base)
    else if op = op_instant then
      Json.Obj ((ph "i" :: base) @ [ ("s", Json.String "t") ])
    else if op = op_counter then
      Json.Obj
        ((ph "C" :: base)
        @ [ ("args", Json.Obj [ ("value", Json.Float b.args.(i)) ]) ])
    else if op = op_flow_start then
      Json.Obj ((ph "s" :: base) @ [ ("cat", Json.String "flow"); id () ])
    else if op = op_flow_step then
      Json.Obj ((ph "t" :: base) @ [ ("cat", Json.String "flow"); id () ])
    else if op = op_flow_end then
      Json.Obj
        ((ph "f" :: base)
        @ [ ("cat", Json.String "flow"); id (); ("bp", Json.String "e") ])
    else if op = op_async_begin then
      Json.Obj ((ph "b" :: base) @ [ ("cat", Json.String "async"); id () ])
    else Json.Obj ((ph "e" :: base) @ [ ("cat", Json.String "async"); id () ])

  let metadata_json t b =
    Json.Obj
      [ ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int t.pid);
        ("tid", Json.Int b.tid);
        ("args", Json.Obj [ ("name", Json.String b.tid_name) ]) ]

  let to_json t =
    let bufs = with_tlock t (fun () -> List.rev t.bufs) in
    let process_meta =
      Json.Obj
        [ ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int t.pid);
          ("tid", Json.Int 0);
          ("args", Json.Obj [ ("name", Json.String "xseed") ]) ]
    in
    let per_buf b =
      let slots = live_slots b in
      let sorted =
        List.stable_sort (fun i j -> Float.compare b.tss.(i) b.tss.(j)) slots
      in
      metadata_json t b :: List.map (event_json t b) sorted
    in
    Json.Obj
      [ ("traceEvents", Json.List (process_meta :: List.concat_map per_buf bufs));
        ("displayTimeUnit", Json.String "ms");
        ("otherData", Json.Obj [ ("wall_origin_s", Json.Float t.wall0) ]) ]

  let write t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let buf = Buffer.create 4096 in
        Json.to_buffer buf (to_json t);
        Buffer.add_char buf '\n';
        output_string oc (Buffer.contents buf))

  (* ---------------- linter ---------------- *)

  (* Structural validation of a (parsed) trace file; the list of violations
     is empty iff the file is well-formed. Shared by the exporter's tests,
     [xseed trace-lint] and the trace-smoke CI target, and deliberately
     checks properties Perfetto is strict about: per-track timestamp
     monotonicity, matched B/E nesting, flow ids that resolve, balanced
     async begin/end pairs. *)
  let lint json =
    let errors = ref [] in
    let errf fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
    let num = function
      | Json.Int i -> Some (float_of_int i)
      | Json.Float f -> Some f
      | _ -> None
    in
    (match Json.member "traceEvents" json with
     | None -> errf "missing traceEvents array"
     | Some (Json.List events) ->
       let last_ts = Hashtbl.create 16 in (* (pid,tid) -> ts *)
       let be_stack = Hashtbl.create 16 in (* (pid,tid) -> name list *)
       let flow_start = Hashtbl.create 16 in
       let flow_used = Hashtbl.create 16 in
       let flow_finished = Hashtbl.create 16 in
       let async_open = Hashtbl.create 16 in (* id -> open count *)
       List.iteri
         (fun idx ev ->
           let ctx = Printf.sprintf "event %d" idx in
           match ev with
           | Json.Obj _ ->
             let str k =
               match Json.member k ev with
               | Some (Json.String s) -> Some s
               | _ -> None
             in
             let numf k = Option.bind (Json.member k ev) num in
             (match str "ph" with
              | None -> errf "%s: missing ph" ctx
              | Some "M" -> () (* metadata carries no timestamp contract *)
              | Some ph ->
                let name = str "name" in
                if name = None then errf "%s: missing name" ctx;
                (match (numf "pid", numf "tid", numf "ts") with
                 | Some pid, Some tid, Some ts ->
                   let track = (pid, tid) in
                   (match Hashtbl.find_opt last_ts track with
                    | Some prev when ts < prev ->
                      errf "%s: ts %.3f decreases on tid %g (prev %.3f)" ctx ts
                        tid prev
                    | _ -> ());
                   Hashtbl.replace last_ts track ts;
                   let id_of () =
                     match numf "id" with
                     | Some id -> Some (int_of_float id)
                     | None ->
                       errf "%s: ph %s requires an id" ctx ph;
                       None
                   in
                   (match ph with
                    | "X" ->
                      (match numf "dur" with
                       | Some d when d >= 0.0 -> ()
                       | Some _ -> errf "%s: negative dur" ctx
                       | None -> errf "%s: X event without dur" ctx)
                    | "B" ->
                      let stack =
                        Option.value ~default:[]
                          (Hashtbl.find_opt be_stack track)
                      in
                      Hashtbl.replace be_stack track
                        (Option.value ~default:"?" name :: stack)
                    | "E" ->
                      (match Hashtbl.find_opt be_stack track with
                       | Some (open_name :: rest) ->
                         let this = Option.value ~default:"?" name in
                         if this <> open_name then
                           errf "%s: E %S closes B %S" ctx this open_name;
                         Hashtbl.replace be_stack track rest
                       | Some [] | None -> errf "%s: E without matching B" ctx)
                    | "i" | "C" -> ()
                    | "s" ->
                      Option.iter
                        (fun id -> Hashtbl.replace flow_start id ())
                        (id_of ())
                    | "t" ->
                      Option.iter
                        (fun id -> Hashtbl.replace flow_used id ())
                        (id_of ())
                    | "f" ->
                      Option.iter
                        (fun id -> Hashtbl.replace flow_finished id ())
                        (id_of ())
                    | "b" ->
                      Option.iter
                        (fun id ->
                          let n =
                            Option.value ~default:0
                              (Hashtbl.find_opt async_open id)
                          in
                          Hashtbl.replace async_open id (n + 1))
                        (id_of ())
                    | "e" ->
                      Option.iter
                        (fun id ->
                          match Hashtbl.find_opt async_open id with
                          | Some n when n > 0 ->
                            Hashtbl.replace async_open id (n - 1)
                          | _ -> errf "%s: async end without begin (id %d)" ctx id)
                        (id_of ())
                    | ph -> errf "%s: unknown phase %S" ctx ph)
                 | _ -> errf "%s: missing pid/tid/ts" ctx))
           | _ -> errf "%s: not an object" ctx)
         events;
       Hashtbl.iter
         (fun (pid, tid) stack ->
           if stack <> [] then
             errf "unclosed B span(s) %s on pid %g tid %g"
               (String.concat "," stack) pid tid)
         be_stack;
       Hashtbl.iter
         (fun id () ->
           if not (Hashtbl.mem flow_start id) then
             errf "flow step id %d has no flow start" id)
         flow_used;
       Hashtbl.iter
         (fun id () ->
           if not (Hashtbl.mem flow_start id) then
             errf "flow end id %d has no flow start" id)
         flow_finished;
       Hashtbl.iter
         (fun id () ->
           if not (Hashtbl.mem flow_finished id) then
             errf "flow id %d never reaches a flow end" id)
         flow_start;
       Hashtbl.iter
         (fun id n ->
           if n > 0 then errf "async id %d left %d begin(s) unended" id n)
         async_open
     | Some _ -> errf "traceEvents is not an array");
    List.rev !errors
end
