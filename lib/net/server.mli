(** The TCP edge of [xseed serve]: a single-threaded, non-blocking
    accept/select loop speaking {!Frame}s over loopback or LAN sockets.

    The loop runs on the calling (main) domain and owns every socket; a
    request frame is answered by routing its payload lines through the
    generic {!Engine.Serve} layer — when the session fronts an
    {!Engine.Pool}, the estimate work is thereby fed to the pool's worker
    domains, and when it fronts a {!Engine.Registry} session the registry
    verbs ([USE]/[LOAD]/[TENANTS]) resolve per connection. Each accepted
    connection gets a fresh session from [make_session], so tenant
    selection is per-client state exactly as a connection expects.

    {b Failure model} (DESIGN.md §14). The frame length field is validated
    against [max_frame_bytes] before any allocation; an oversized or
    CRC-failing frame is answered with one [ERR] frame naming the limit in
    the [limit=<n>] form and the connection is closed (a byte stream that
    lied about its framing cannot be resynced). A connection beyond
    [max_connections] is refused the same way ([ERR overloaded …
    limit=<n>]) at accept. A connection idle past [idle_timeout_s] is sent
    [ERR timeout … limit=<n>] and closed. Partial reads and partial writes
    (slow-loris clients) never block the loop: per-connection read/write
    buffers carry the incomplete bytes across select rounds, and a closing
    connection that cannot drain its write buffer within a grace period is
    dropped. Replies are written in the select round that answered them;
    only bytes the socket refused wait for a writable round. A client that
    sends without reading cannot grow the server: while more than
    [max_frame_bytes] of its replies are unwritten, its connection is
    neither read nor answered, and it resumes once the socket takes them
    (write progress also counts as activity for the idle timeout). The
    loop itself never raises on client misbehaviour —
    malformed payload text is the {!Engine.Serve} layer's [ERR] line,
    malformed framing is this module's. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral; read the bound port with {!port} *)
  max_connections : int;
  idle_timeout_s : float option;  (** [None] = never time out *)
  max_frame_bytes : int;
      (** per-frame payload cap; also the unwritten-reply bytes past which
          a connection is paused *)
}

val default_config : config
(** loopback, port 0, 64 connections, 60 s idle timeout, 1 MiB frames. *)

type t

val create : config -> (t, Core.Error.t) result
(** Bind and listen (non-blocking). [Error Io_error] when the address is
    unavailable. *)

val port : t -> int
(** The bound port — the OS's pick when the config said 0. *)

val stop : t -> unit
(** Ask {!run} to exit after the current select round. Domain-safe; the
    fault-injection harness calls it from another domain. *)

val run :
  ?on_request:(unit -> unit) ->
  ?max_batch:int ->
  t ->
  make_session:
    (unit -> Engine.Serve.server * (string -> string -> string option)) ->
  unit ->
  unit
(** Serve until {!stop} (or an exception — the CLI's drain signal unwinds
    through here). Every exit path first flushes pending response bytes
    best-effort and closes every connection plus the listener, so a
    SIGTERM drain closes connections cleanly rather than leaking them.
    [make_session] is called once per accepted connection and returns the
    serve vtable plus the extra-verb handler ({!Engine.Serve.run}'s
    [?extra]); [on_request]/[max_batch] as in {!Engine.Serve.run}. *)

val connections_accepted : t -> int
val connections_refused : t -> int
(** Accept-time refusals under the connection cap. *)

val frames_served : t -> int
(** Response frames produced (handshakes included), written or still
    waiting for the socket. *)
