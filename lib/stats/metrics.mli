(** Error metrics from the paper's Section 6.3.

    Given (estimate, actual) pairs over a workload:
    - RMSE: sqrt(mean of squared errors) — average error per query;
    - NRMSE: RMSE divided by the mean actual result size — error per unit of
      accurate result (adopted from Zhang et al., VLDB 2005);
    - R² (coefficient of determination) and OPD (order-preserving degree) —
      computed but mostly reported as sanity values, as in the paper;
    - q-error: [max((est+1)/(act+1), (act+1)/(est+1))] — the field-standard
      multiplicative error, with +1 smoothing so empty results stay finite;
      reported as median / p90 / max over the workload. *)

type summary = {
  count : int;
  rmse : float;
  nrmse : float;
      (** RMSE / mean actual; infinite when the mean actual is zero or
          negative (degenerate workloads) *)
  r_squared : float;
  opd : float;
      (** fraction of strictly-ordered actual pairs whose estimates preserve
          the order (ties in estimates count as preserved halfway); exact up
          to 2000 queries, estimated from 200k deterministically sampled
          pairs above that so large workloads stay O(n log n) *)
  mean_actual : float;
  max_abs_error : float;
  q_error_median : float;
  q_error_p90 : float;
  q_error_max : float;
}

val summarize : (float * float) list -> summary
(** [(estimate, actual)] pairs. @raise Invalid_argument on an empty list. *)

val q_error : float -> float -> float
(** [q_error est act] with +1 smoothing; inputs are clamped at zero. *)

val rmse : (float * float) list -> float
val nrmse : (float * float) list -> float

val pp : Format.formatter -> summary -> unit
