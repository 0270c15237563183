type summary = {
  count : int;
  rmse : float;
  nrmse : float;
  r_squared : float;
  opd : float;
  mean_actual : float;
  max_abs_error : float;
  q_error_median : float;
  q_error_p90 : float;
  q_error_max : float;
}

(* q-error with the field-standard +1 smoothing so zero estimates / actuals
   stay finite: max((e+1)/(a+1), (a+1)/(e+1)). Negative inputs are clamped
   to zero (cardinalities cannot be negative; clamping keeps the metric
   defined on noisy estimators). *)
let q_error e a =
  let e = Float.max 0.0 e +. 1.0 and a = Float.max 0.0 a +. 1.0 in
  Float.max (e /. a) (a /. e)

(* kth smallest (0-based) via sorting; workloads are small enough. *)
let percentile_of_sorted arr p =
  let n = Array.length arr in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
    arr.(Int.max 0 (Int.min (n - 1) rank))
  end

(* Above this many pairs OPD samples ordered pairs instead of enumerating
   all O(n²) of them, so summarize stays usable on multi-thousand-query
   workloads (compare --count 5000). *)
let opd_exact_cutoff = 2000
let opd_samples = 200_000

let summarize pairs =
  let n = List.length pairs in
  if n = 0 then invalid_arg "Metrics.summarize: empty workload";
  let nf = float_of_int n in
  let sum_sq_err = ref 0.0 and sum_actual = ref 0.0 and max_err = ref 0.0 in
  List.iter
    (fun (e, a) ->
      let d = e -. a in
      sum_sq_err := !sum_sq_err +. (d *. d);
      sum_actual := !sum_actual +. a;
      if Float.abs d > !max_err then max_err := Float.abs d)
    pairs;
  let mean_actual = !sum_actual /. nf in
  let rmse = sqrt (!sum_sq_err /. nf) in
  (* NRMSE is only meaningful against a positive mean result size; a zero or
     negative mean (degenerate workloads) reports infinity rather than a
     zero division or a sign-flipped ratio. *)
  let nrmse = if mean_actual <= 0.0 then Float.infinity else rmse /. mean_actual in
  let ss_tot =
    List.fold_left
      (fun acc (_, a) -> acc +. ((a -. mean_actual) *. (a -. mean_actual)))
      0.0 pairs
  in
  let r_squared =
    if ss_tot = 0.0 then if !sum_sq_err = 0.0 then 1.0 else 0.0
    else 1.0 -. (!sum_sq_err /. ss_tot)
  in
  let arr = Array.of_list pairs in
  let ordered = ref 0 and preserved = ref 0.0 in
  let score (ei, ai) (ej, aj) =
    if ai < aj then begin
      incr ordered;
      if ei < ej then preserved := !preserved +. 1.0
      else if ei = ej then preserved := !preserved +. 0.5
    end
    else if aj < ai then begin
      incr ordered;
      if ej < ei then preserved := !preserved +. 1.0
      else if ej = ei then preserved := !preserved +. 0.5
    end
  in
  if n <= opd_exact_cutoff then
    Array.iteri
      (fun i pi ->
        for j = i + 1 to n - 1 do
          score pi arr.(j)
        done)
      arr
  else begin
    (* Deterministic LCG pair sampling: same workload, same answer. *)
    let state = ref 0x9E3779B97F4A7C1 in
    let rand_below bound =
      state := (!state * 1442695040888963) + 40692;
      (!state lsr 33) mod bound
    in
    for _ = 1 to opd_samples do
      let i = rand_below n and j = rand_below n in
      if i <> j then score arr.(i) arr.(j)
    done
  end;
  let opd = if !ordered = 0 then 1.0 else !preserved /. float_of_int !ordered in
  let q_errors = Array.map (fun (e, a) -> q_error e a) arr in
  Array.sort Float.compare q_errors;
  { count = n; rmse; nrmse; r_squared; opd; mean_actual; max_abs_error = !max_err;
    q_error_median = percentile_of_sorted q_errors 0.5;
    q_error_p90 = percentile_of_sorted q_errors 0.9;
    q_error_max = q_errors.(n - 1) }

let rmse pairs = (summarize pairs).rmse
let nrmse pairs = (summarize pairs).nrmse

let pp ppf s =
  Format.fprintf ppf
    "n=%d RMSE=%.4g NRMSE=%.2f%% R2=%.4f OPD=%.4f q50=%.2f q90=%.2f qmax=%.3g \
     mean|a|=%.4g maxerr=%.4g"
    s.count s.rmse (100.0 *. s.nrmse) s.r_squared s.opd s.q_error_median
    s.q_error_p90 s.q_error_max s.mean_actual s.max_abs_error
