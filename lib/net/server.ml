(* Single-domain TCP front end. One select loop owns the listener and every
   connection; sockets are non-blocking and each connection carries its own
   read/write buffers, so a slow or hostile client can stall only itself.
   Request payloads route through Serve.handle_request — the same verb
   table the stdin transport uses — so the two transports cannot drift. *)

type config = {
  host : string;
  port : int;
  max_connections : int;
  idle_timeout_s : float option;
  max_frame_bytes : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    idle_timeout_s = Some 60.0;
    max_frame_bytes = Frame.default_max_payload;
  }

type conn = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable wbuf : Bytes.t;  (* encoded response frames awaiting the socket *)
  mutable woff : int;  (* bytes of [wbuf] already written *)
  mutable wlen : int;  (* bytes of [wbuf] filled *)
  mutable last_activity : float;
  mutable greeted : bool;  (* HELLO accepted; requests allowed *)
  mutable closing : bool;  (* drain [wbuf], then close *)
  mutable closed : bool;  (* fd closed, dropped from [conns] *)
  mutable close_deadline : float;  (* give up draining after this *)
  server : Engine.Serve.server;
  extra : string -> string -> string option;
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  config : config;
  stop_flag : bool Atomic.t;
  mutable conns : conn list;
  accepted : int Atomic.t;
  refused : int Atomic.t;
  served : int Atomic.t;
  frame : Buffer.t;  (* scratch: one response frame being encoded *)
}

(* How long a closing connection gets to drain its final ERR/response
   bytes before being dropped, and the select granularity (which bounds
   how quickly [stop] is noticed). *)
let drain_grace_s = 2.0
let select_interval_s = 0.05

let err kind fmt =
  Format.kasprintf (fun m -> Engine.Serve.err (Core.Error.make kind m)) fmt

(* A peer that disappears mid-write must surface as EPIPE (handled per
   connection), not kill the process: both endpoints of this transport
   ignore SIGPIPE. *)
let ignore_sigpipe () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let create config =
  match
    ignore_sigpipe ();
    let addr = Unix.inet_addr_of_string config.host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       Unix.bind fd (Unix.ADDR_INET (addr, config.port));
       Unix.listen fd 128;
       Unix.set_nonblock fd
     with e ->
       Unix.close fd;
       raise e);
    let bound_port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> config.port
    in
    {
      listen_fd = fd;
      bound_port;
      config;
      stop_flag = Atomic.make false;
      conns = [];
      accepted = Atomic.make 0;
      refused = Atomic.make 0;
      served = Atomic.make 0;
      frame = Buffer.create 4096;
    }
  with
  | t -> Ok t
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Core.Error.make Core.Error.Io_error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message e)))
  | exception Failure _ ->
    Error
      (Core.Error.make Core.Error.Io_error
         (Printf.sprintf "invalid bind address %S" config.host))

let port t = t.bound_port
let stop t = Atomic.set t.stop_flag true
let connections_accepted t = Atomic.get t.accepted
let connections_refused t = Atomic.get t.refused
let frames_served t = Atomic.get t.served

let pending_bytes conn = conn.wlen - conn.woff

(* Reading pauses while more than a frame's worth of replies waits for the
   socket: a client that sends and never reads cannot grow the server. *)
let paused t conn = pending_bytes conn > t.config.max_frame_bytes

(* Append one encoded frame to the write buffer. Room comes first from
   moving the unwritten tail to the front, when at least half the buffer
   is already written, else from doubling, so each byte is moved a bounded
   number of times. *)
let enqueue t conn payload =
  Buffer.clear t.frame;
  Frame.encode t.frame payload;
  let n = Buffer.length t.frame in
  let cap = Bytes.length conn.wbuf in
  if conn.wlen + n > cap then begin
    let pending = pending_bytes conn in
    let dst =
      if pending + n <= cap && conn.woff >= cap / 2 then conn.wbuf
      else Bytes.create (max (2 * cap) (pending + n))
    in
    Bytes.blit conn.wbuf conn.woff dst 0 pending;
    conn.wbuf <- dst;
    conn.woff <- 0;
    conn.wlen <- pending
  end;
  Buffer.blit t.frame 0 conn.wbuf conn.wlen n;
  conn.wlen <- conn.wlen + n;
  Atomic.incr t.served

let begin_close conn now =
  if not conn.closing then begin
    conn.closing <- true;
    conn.close_deadline <- now +. drain_grace_s
  end

let close_conn t conn =
  if not conn.closed then begin
    conn.closed <- true;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c -> c != conn) t.conns
  end

(* Write what the socket takes now, straight from the write buffer. Write
   progress counts as activity: a paused connection whose client is
   reading is not idle. *)
let flush t conn now =
  let n = pending_bytes conn in
  if n > 0 && not conn.closed then
    match Unix.write conn.fd conn.wbuf conn.woff n with
    | written ->
      if written > 0 then conn.last_activity <- now;
      conn.woff <- conn.woff + written;
      if conn.woff = conn.wlen then begin
        conn.woff <- 0;
        conn.wlen <- 0
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      ()
    | exception Unix.Unix_error (_, _, _) -> close_conn t conn

(* One request frame -> one response payload. The frame's own lines feed
   BATCH/PROFILE payload pulls; anything left after the request answered is
   a client framing bug and is named rather than silently dropped. *)
let respond ?max_batch conn payload =
  let lines = ref (String.split_on_char '\n' payload) in
  let read_line () =
    match !lines with
    | [] -> None
    | l :: tl ->
      lines := tl;
      Some l
  in
  let rec first_request () =
    match read_line () with
    | None -> None
    | Some l when String.trim l = "" -> first_request ()
    | Some l -> Some l
  in
  match first_request () with
  | None -> err Core.Error.Malformed_query "empty request frame"
  | Some req ->
    let response =
      Engine.Serve.handle_request ?max_batch ~extra:conn.extra conn.server
        ~read_line req
    in
    let leftover =
      List.length (List.filter (fun l -> String.trim l <> "") !lines)
    in
    if leftover > 0 then
      err Core.Error.Malformed_query
        "frame carries %d line(s) after the request (one request per frame)"
        leftover
    else
      (match response with
       | Some r -> r
       | None -> err Core.Error.Internal "request line vanished")

(* Answer the complete frames in the read buffer, then write the replies
   in the same turn. Framing violations (oversized length field, CRC
   failure) poison the byte stream — there is no resync point — so they
   answer once and close. Frames stop being answered while more than
   [max_frame_bytes] of replies are unwritten; they wait in the read buffer
   until the socket takes enough, in this turn or a later writable one. *)
let rec serve_buffered ?max_batch ?on_request t conn now =
  let off = ref 0 in
  let more = ref true in  (* the buffer may still hold a complete frame *)
  while !more && not (conn.closing || paused t conn) do
    match
      Frame.decode ~max_payload:t.config.max_frame_bytes conn.rbuf ~off:!off
        ~len:(conn.rlen - !off)
    with
    | Frame.Need_more -> more := false
    | Frame.Too_large n ->
      enqueue t conn
        (err Core.Error.Limit_exceeded
           "frame length %d exceeds limit=%d (server --max-frame)" n
           t.config.max_frame_bytes);
      begin_close conn now
    | Frame.Crc_mismatch ->
      enqueue t conn
        (err Core.Error.Malformed_query
           "frame CRC-32 mismatch; closing connection");
      begin_close conn now
    | Frame.Frame { payload; consumed } ->
      off := !off + consumed;
      if not conn.greeted then
        (match Frame.parse_hello payload with
         | Ok _ ->
           conn.greeted <- true;
           enqueue t conn Frame.hello_ok
         | Error msg ->
           enqueue t conn msg;
           begin_close conn now)
      else begin
        enqueue t conn (respond ?max_batch conn payload);
        match on_request with None -> () | Some f -> f ()
      end
  done;
  if !off > 0 then begin
    Bytes.blit conn.rbuf !off conn.rbuf 0 (conn.rlen - !off);
    conn.rlen <- conn.rlen - !off
  end;
  flush t conn now;
  if !more && not (conn.closed || conn.closing || paused t conn) then
    serve_buffered ?max_batch ?on_request t conn now

let handle_readable ?max_batch ?on_request t conn now =
  (* Grow the read buffer as needed; [decode] rejects oversized length
     fields before the payload accumulates, so residency is bounded by
     max_frame_bytes + one read chunk. *)
  let chunk = 65536 in
  if Bytes.length conn.rbuf - conn.rlen < chunk then begin
    let bigger = Bytes.create ((2 * Bytes.length conn.rbuf) + chunk) in
    Bytes.blit conn.rbuf 0 bigger 0 conn.rlen;
    conn.rbuf <- bigger
  end;
  match Unix.read conn.fd conn.rbuf conn.rlen chunk with
  | 0 -> close_conn t conn (* peer EOF *)
  | n ->
    conn.rlen <- conn.rlen + n;
    conn.last_activity <- now;
    serve_buffered ?max_batch ?on_request t conn now
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t conn

let accept_pending t ~make_session now =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _addr ->
      if List.length t.conns >= t.config.max_connections then begin
        (* Refuse at the door: one best-effort ERR frame naming the cap,
           then close. The fd is still blocking here; a peer that will not
           read a 100-byte frame forfeits its diagnostic. *)
        Atomic.incr t.refused;
        let payload =
          err Core.Error.Overloaded
            "connection count %d exceeds limit=%d (server --max-conns)"
            (List.length t.conns + 1)
            t.config.max_connections
        in
        let framed = Frame.encode_string payload in
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        (try
           ignore
             (Unix.write_substring fd framed 0 (String.length framed))
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        Atomic.incr t.accepted;
        Unix.set_nonblock fd;
        let server, extra = make_session () in
        t.conns <-
          {
            fd;
            rbuf = Bytes.create 65536;
            rlen = 0;
            wbuf = Bytes.create 4096;
            woff = 0;
            wlen = 0;
            last_activity = now;
            greeted = false;
            closing = false;
            closed = false;
            close_deadline = 0.0;
            server;
            extra;
          }
          :: t.conns
      end
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error (_, _, _) -> continue := false
  done

let sweep_timeouts t now =
  match t.config.idle_timeout_s with
  | None -> ()
  | Some limit ->
    List.iter
      (fun conn ->
        if (not conn.closing) && now -. conn.last_activity > limit then begin
          enqueue t conn
            (err Core.Error.Timeout
               "connection idle past limit=%d ms (server --idle-timeout-ms)"
               (int_of_float (limit *. 1000.0)));
          begin_close conn now;
          flush t conn now
        end)
      t.conns

let sweep_closing t now =
  List.iter
    (fun conn ->
      if conn.closing && (pending_bytes conn = 0 || now > conn.close_deadline)
      then close_conn t conn)
    t.conns

let shutdown t =
  (* Best-effort final flush so a drain signal still delivers queued
     responses, then close everything: no leaked fds across restarts. *)
  let now = Unix.gettimeofday () in
  List.iter
    (fun conn ->
      (try flush t conn now with _ -> ());
      try Unix.close conn.fd with Unix.Unix_error _ -> ())
    t.conns;
  t.conns <- [];
  try Unix.close t.listen_fd with Unix.Unix_error _ -> ()

let run ?on_request ?max_batch t ~make_session () =
  Fun.protect ~finally:(fun () -> shutdown t) @@ fun () ->
  while not (Atomic.get t.stop_flag) do
    (* Replies are written in the turn that made them, so the write set
       holds only connections the socket left bytes on; a paused or
       closing connection is not read. *)
    let reads =
      t.listen_fd
      :: List.filter_map
           (fun c -> if c.closing || paused t c then None else Some c.fd)
           t.conns
    in
    let writes =
      List.filter_map
        (fun c -> if pending_bytes c > 0 then Some c.fd else None)
        t.conns
    in
    match Unix.select reads writes [] select_interval_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
      let now = Unix.gettimeofday () in
      if List.memq t.listen_fd readable then
        accept_pending t ~make_session now;
      (* Snapshot: handlers mutate [t.conns] as they close peers. *)
      let snapshot = t.conns in
      (* The socket takes bytes again: write more, and once the backlog is
         back under the bound answer the frames that waited. *)
      List.iter
        (fun conn ->
          if List.memq conn.fd writable && not conn.closed then
            serve_buffered ?max_batch ?on_request t conn now)
        snapshot;
      List.iter
        (fun conn ->
          if
            List.memq conn.fd readable
            && not (conn.closed || conn.closing || paused t conn)
          then handle_readable ?max_batch ?on_request t conn now)
        snapshot;
      sweep_timeouts t now;
      sweep_closing t now
  done
