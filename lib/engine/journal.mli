(** Crash-safe feedback journal: an append-only write-ahead log of the
    serving engine's FEEDBACK observations, so learned HET entries survive
    a process death (including [kill -9]) instead of living exactly one
    process lifetime.

    {b File format} (DESIGN.md §13). A journal is the 8-byte magic
    ["XSEEDJ1\n"] followed by one {!Core.Frame} per entry — the TCP wire
    codec: u32-BE length, u32-BE CRC-32 of the payload, payload — whose
    payload is the text ["F <actual> <query>"]. The writer appends a
    complete frame per feedback and (per {!fsync} policy) fsyncs, so after
    a crash the file is a valid prefix plus at most one torn frame.

    {b Truncation rule.} Readers stop at the first bad frame. A frame that
    runs past end-of-file (incomplete header or payload) is a {e torn
    tail} — the expected residue of a crash mid-append, silently
    recoverable by truncating to the last good frame. A frame that is
    fully present but fails its CRC or does not parse is {e corruption}
    ([xseed journal-dump] exits 74 on it; the serving path still recovers
    by truncating, losing everything after the bad frame). *)

type entry = { query : string; actual : int }
(** One FEEDBACK observation: the raw query text as received by the
    protocol, and the observed true cardinality. Replaying entries in
    order through the feedback path reproduces the learned HET state. *)

type tail =
  | Clean  (** every byte belongs to a valid frame *)
  | Torn of int
      (** the frame starting at this byte offset runs past end-of-file *)
  | Corrupt of int
      (** the frame starting at this byte offset is fully present but
          fails its CRC or does not parse *)

type scan = {
  entries : entry list;  (** decoded frames, oldest first *)
  frames : int;  (** [List.length entries] *)
  valid_bytes : int;
      (** length of the valid prefix (magic + good frames); the
          truncation point when [tail] is not {!Clean} *)
  tail : tail;
}

val magic : string
(** The 8-byte file header, ["XSEEDJ1\n"]. *)

val frame : entry -> string
(** Encode one entry as a complete frame (header + payload). *)

val to_string : entry list -> string
(** A whole journal image in memory: {!magic} plus one {!frame} per
    entry. The writer produces byte-identical files. *)

val scan_string : string -> (scan, Core.Error.t) result
(** Decode a journal image, stopping at the first bad frame per the
    truncation rule; never raises on arbitrary bytes. [Error] only when
    the magic itself is missing or wrong (the bytes are not a journal) —
    an empty string is a valid empty journal. *)

val scan_file : string -> (scan, Core.Error.t) result
(** {!scan_string} over a file's contents. [Error] additionally on a
    missing file or an unreadable one. A zero-length file is a valid
    empty journal (the state a crash before the first append leaves). *)

val recover : string -> (scan, Core.Error.t) result
(** {!scan_file}, then — when the tail is torn or corrupt — truncate the
    file to [valid_bytes] so subsequent appends extend a clean journal.
    A missing file is returned as an empty clean scan (nothing to
    recover), so serving can start with [--journal] pointing at a file
    that does not exist yet. *)

(** {1 Writing} *)

type fsync = [ `Always | `Every of int | `Never ]
(** Durability policy: [`Always] fsyncs after every append (a crash loses
    at most the frame being written), [`Every n] after every [n]th append
    (a crash loses at most the last [n-1] observations), [`Never] leaves
    flushing to the OS. *)

type writer

val open_append : ?fsync:fsync -> string -> (writer, Core.Error.t) result
(** Open (creating if absent) for appending, writing the magic when the
    file is empty. Reads only the file's first 8 bytes: refuses a
    non-empty file whose magic is wrong. Run
    {!recover} first if the file may carry a torn or corrupt tail —
    [open_append] itself never truncates. [fsync] defaults to [`Always]. *)

val append : writer -> entry -> (unit, Core.Error.t) result
(** Append one complete frame and apply the durability policy.
    [Error Io_error] if the OS refused the write — the caller decides
    whether to surface lost durability to the client. *)

val appended : writer -> int
(** Entries appended through this writer (excludes replayed history). *)

val close : writer -> unit
(** Flush, fsync (best-effort) and close. Idempotent. *)

(** {1 Serving} *)

val resume :
  ?fsync:fsync ->
  string ->
  Serve.server ->
  (scan * int * writer, Core.Error.t) result
(** Start serving from a journal: {!recover} the file (truncating a dirty
    tail), replay every surviving entry, in order, through the server's
    feedback path so the learned HET state matches the engine that wrote
    it, then {!open_append}. Returns the recovery scan, how many entries
    failed to apply, and the writer. [xseed serve --journal] and registry
    page-in both start this way. *)

val wrap_server : writer -> Serve.server -> Serve.server
(** Interpose on the feedback path of a {!Serve.server}: a successful
    FEEDBACK is appended to the journal before the reply is sent, so the
    reply acknowledges durability (under the writer's fsync policy). If
    the append fails, the client receives the I/O error even though the
    in-memory refinement already happened — the estimate is live but not
    durable. All other verbs pass through untouched. The serve protocol
    loop is single-threaded, so this is the single-writer path. *)
