(** The TCP wire format: {!Core.Frame}'s length-prefixed, checksummed
    frames (the feedback journal frames with the same codec). A frame's
    payload is serve-protocol text: the request line, plus — for
    [BATCH n] — the [n] payload lines, newline-separated, all in one
    frame. One request frame yields exactly one response frame (whose
    payload may be multi-line, e.g. a METRICS scrape). On the wire the
    length field is attacker-controlled, so the server decodes with a
    [max_payload] cap.

    {b Handshake.} The first frame a client sends must carry
    [HELLO xseed <protocol>] ({!hello}); the server answers
    [OK xseed <version> protocol <n>] ({!hello_ok}) and only then accepts
    requests. A wrong magic word or unsupported protocol revision is
    answered with one [ERR] frame and the connection is closed — the
    version gate runs before any synopsis is touched. *)

include module type of struct
  include Core.Frame
end

val hello : string
(** The client's first payload: [HELLO xseed <protocol_version>]. *)

val hello_ok : string
(** The server's handshake reply:
    [OK xseed <version> protocol <protocol_version>]. *)

val parse_hello : string -> (int, string) result
(** The protocol revision out of a [HELLO xseed <n>] payload; [Error]
    carries the one-line diagnostic to send back before closing. *)
