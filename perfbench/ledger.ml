(* The per-layer ledger: one span per call into a layer's public function,
   recorded from outside the library (start, duration, minor words
   allocated on the calling domain). Spans stay in memory and are written
   out as Chrome trace JSON at the end of a traced run. *)

let now = Obs.now_mono

type op = {
  name : string;
  starts : Stat.vec;
  durs : Stat.vec;
  words : Stat.vec;
}

let ops : op list ref = ref []

let op name =
  match List.find_opt (fun o -> o.name = name) !ops with
  | Some o -> o
  | None ->
    let o = { name; starts = Stat.vec (); durs = Stat.vec (); words = Stat.vec () } in
    ops := o :: !ops;
    o

let record o ~t0 ~t1 ~w0 ~w1 =
  Stat.push o.starts t0;
  Stat.push o.durs (t1 -. t0);
  Stat.push o.words (w1 -. w0)

(* One span per call of [f]; the layer name may depend on the outcome (a
   registry USE that turned out to be a page-in). *)
let span_classified f classify =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  record (op (classify r)) ~t0 ~t1 ~w0 ~w1;
  r

let span name f = span_classified f (fun _ -> name)

(* A span measured elsewhere (no call made here, so no allocation). *)
let observe name ~start ~dur =
  record (op name) ~t0:start ~t1:(start +. dur) ~w0:0.0 ~w1:0.0

(* Tracing overhead: the same stateless calls timed as a bare loop (best
   of three) and as a loop of spans; summed over every [measure]d op. *)
let bare_s = ref 0.0
let traced_s = ref 0.0

let measure name xs f =
  let pass () =
    let t0 = now () in
    Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
    now () -. t0
  in
  ignore (pass () : float);
  let bare = Float.min (pass ()) (Float.min (pass ()) (pass ())) in
  let t0 = now () in
  Array.iter (fun x -> ignore (Sys.opaque_identity (span name (fun () -> f x)))) xs;
  bare_s := !bare_s +. bare;
  traced_s := !traced_s +. (now () -. t0)

let overhead_ratio () =
  if !bare_s > 0.0 then (!traced_s /. !bare_s) -. 1.0 else 0.0

let calls name = (op name).durs.Stat.len
let p50_us name = 1e6 *. Stat.median (Stat.to_array (op name).durs)

let metrics names =
  List.concat_map
    (fun name ->
      let o = op name in
      let d = Stat.to_array o.durs in
      [ (name ^ ".calls", float_of_int (Array.length d), "count");
        (name ^ ".p50_us", 1e6 *. Stat.median d, "us");
        (name ^ ".p99_us", 1e6 *. Stat.percentile d 0.99, "us");
        (name ^ ".minor_words", Stat.mean (Stat.to_array o.words), "words") ])
    names

let write_trace path =
  let b = Buffer.create (1 lsl 20) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  List.iteri
    (fun tid o ->
      for i = 0 to o.durs.Stat.len - 1 do
        if not !first then Buffer.add_char b ',';
        first := false;
        Printf.bprintf b
          "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"minor_words\":%.0f}}"
          o.name tid
          (1e6 *. o.starts.Stat.data.(i))
          (1e6 *. o.durs.Stat.data.(i))
          o.words.Stat.data.(i)
      done)
    (List.rev !ops);
  Buffer.add_string b "]}\n";
  Proc.write_file path (Buffer.contents b)
