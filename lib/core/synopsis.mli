(** One-call construction of a complete XSEED synopsis from a document:
    kernel + (optionally) HET, fitted to a memory budget.

    This is the API a DBMS optimizer integration would use; the pieces
    ({!Builder}, {!Het_builder}, {!Estimator}) remain available for finer
    control. *)

type t

val build :
  ?budget_bytes:int ->
  ?with_het:bool ->
  ?with_values:bool ->
  ?mbp:int ->
  ?bsel_threshold:float ->
  ?card_threshold:float ->
  ?obs:Obs.t ->
  string ->
  t
(** [build doc] parses [doc] once, and that one event stream feeds every
    structure the build needs: the kernel's {!Builder.sink}, and when
    [with_het] (default true) the path tree's and NoK storage's sinks for
    HET precomputation. [with_values] (default false) also needs the
    storage, with values, and additionally builds the value synopsis so
    value predicates are estimated rather than ignored. Labels are interned
    in document order, as a lone kernel parse interns them, so the bytes
    {!to_string} writes do not depend on which structures were built.
    When [budget_bytes] is given, the HET keeps only the top entries such
    that kernel + HET fit the budget; the kernel itself is never reduced
    (it is the irreducible part of the design). [obs] instruments the whole
    build (a [synopsis.parse] span around the one parse, then
    [synopsis.het_build] and [synopsis.value_build]; builder, SAX and HET
    counters) and is kept by the returned estimator. *)

val build_result :
  ?budget_bytes:int ->
  ?with_het:bool ->
  ?with_values:bool ->
  ?mbp:int ->
  ?bsel_threshold:float ->
  ?card_threshold:float ->
  ?obs:Obs.t ->
  string ->
  (t, Error.t) result
(** {!build}, but an ill-formed document or a fired resource limit comes
    back as [Error] instead of an exception. *)

val kernel : t -> Kernel.t
val het : t -> Het.t option
val values : t -> Value_synopsis.t option
val estimator : t -> Estimator.t

val card_threshold : t -> float
(** The HET precomputation threshold the synopsis was built with. Persisted
    by the v2 file format; v1 files load with the default (0.5). *)

val estimate : t -> string -> float
(** Parse and estimate a query. *)

val set_budget : t -> bytes:int -> unit
(** Re-fit the HET to a new total budget (dynamic reconfiguration). *)

val size_in_bytes : t -> int
val kernel_size_in_bytes : t -> int

val to_string : ?version:[ `V1 | `V2 ] -> t -> string
(** Persist kernel + HET + values, including the label table: HET hashes
    are computed over label ids, so interning order must survive the round
    trip.

    [`V2] (the default) writes a header with the [card_threshold] and a
    per-section byte length and CRC-32 checksum, so truncation and byte
    corruption are detected on load. [`V1] writes the legacy
    marker-delimited format (which cannot store the threshold and is
    confused by section payloads that contain a marker line). *)

val of_string : string -> t
(** @raise Invalid_argument on a malformed dump. *)

val of_string_result : string -> (t, Error.t) result
(** Version-negotiating loader: reads both v1 and v2 dumps, returning a
    [Corrupt_synopsis] error (with section name, and line number where
    meaningful) on any truncated, checksum-mismatched or unparseable
    input. A loaded synopsis always has a non-empty kernel, so estimation
    over it cannot raise. *)

val pp : Format.formatter -> t -> unit
