(* Growable float vectors and exact rank statistics over them. *)

type vec = { mutable data : float array; mutable len : int }

let vec () = { data = Array.make 1024 0.0; len = 0 }

let push v x =
  if v.len = Array.length v.data then begin
    let bigger = Array.make (2 * v.len) 0.0 in
    Array.blit v.data 0 bigger 0 v.len;
    v.data <- bigger
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let to_array v = Array.sub v.data 0 v.len

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile of an already sorted array; 0 when empty. *)
let rank s p =
  let n = Array.length s in
  if n = 0 then 0.0
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let percentile a p = rank (sorted a) p
let median a = percentile a 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
