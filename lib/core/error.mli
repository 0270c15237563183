(** Structured errors for every untrusted input boundary of the library:
    XML documents, XPath queries, synopsis files, and the filesystem.

    All [*_result] entry points ({!Synopsis.of_string_result},
    {!Kernel.of_string_result}, {!Estimator.estimate_string_result}, ...)
    return [(_, Error.t) result] instead of raising, so a host system (a
    query optimizer, a server) can treat any bad input as data, not as a
    crash. The legacy raising APIs remain as thin wrappers. *)

type kind =
  | Malformed_xml  (** ill-formed document (SAX parse error) *)
  | Malformed_query  (** XPath syntax error, or an unsupported query shape *)
  | Corrupt_synopsis
      (** truncated, checksum-mismatched or unparseable synopsis file *)
  | Limit_exceeded  (** a configured resource guard fired (see {!Xml.Sax.limits}) *)
  | Missing_file  (** input path does not exist *)
  | Io_error  (** the OS refused a read or write *)
  | Internal  (** an invariant violation surfaced as an exception *)
  | Timeout  (** a per-request deadline expired before the answer was ready *)
  | Overloaded
      (** admission control shed the request instead of queueing it *)

type t = {
  kind : kind;
  position : int option;
      (** byte offset for XML/XPath input; line number within a synopsis
          section for deserializers *)
  section : string option;
      (** synopsis section name: ["header"], ["labels"], ["kernel"],
          ["het"], ["values"] *)
  message : string;
}

exception Xseed of t
(** The single exception the raising wrappers and the CLI funnel through. *)

val make : ?position:int -> ?section:string -> kind -> string -> t

val raisef :
  ?position:int ->
  ?section:string ->
  kind ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Format a message and raise {!Xseed}. *)

val kind : t -> kind
val position : t -> int option
val section : t -> string option
val message : t -> string

val exit_code : t -> int
(** The CLI exit-code contract (sysexits.h): 65 for malformed data of any
    kind (XML, query, synopsis, limit), 66 for a missing file, 74 for an
    I/O error, 70 for internal errors, 75 (EX_TEMPFAIL) for the transient
    serving failures ({!Timeout}, {!Overloaded}). 64 (usage) is produced
    by the command-line layer itself. *)

val kind_name : kind -> string
(** Stable kebab-case identifier, used in JSON output and tests. *)

val pp : Format.formatter -> t -> unit
(** One-line human diagnostic: kind, position/section, message. *)

val to_string : t -> string
val to_json : t -> Obs.Json.t

val of_exn : exn -> t option
(** Map a known exception ({!Xseed}, {!Xml.Sax.Malformed},
    {!Xml.Sax.Limit}, {!Xpath.Parser.Error}, [Sys_error], [End_of_file],
    [Invalid_argument], [Failure]) to a structured error; [None] for
    anything else. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run [f], converting any {!of_exn}-known exception to [Error]. Unknown
    exceptions propagate. *)

val read_file : string -> (string, t) result
(** The whole file: {!Missing_file} when [path] does not exist, {!Io_error}
    when the OS refuses the read. *)
