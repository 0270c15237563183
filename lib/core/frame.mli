(** Length-prefixed, checksummed frames: the one codec of the TCP wire
    format ({!Net.Frame}) and the feedback journal.

    {v
    +-----------------+------------------+------------------+
    | length (u32 BE) | CRC-32 (u32 BE)  | payload (length) |
    +-----------------+------------------+------------------+
    v}

    [length] counts payload bytes only; the CRC (IEEE 802.3, {!Crc32} —
    the same polynomial as the synopsis v2 format) covers the payload. *)

val header_bytes : int
(** 8: the two big-endian u32 fields. *)

val default_max_payload : int
(** 1 MiB. A frame claiming more is refused before its payload is read —
    on the wire the length field is attacker-controlled, so it must never
    size an allocation unchecked. *)

val encode : Buffer.t -> string -> unit
(** Append one complete frame ([payload] under header) to the buffer. *)

val encode_string : string -> string
(** One frame as a string. *)

type decode_result =
  | Frame of { payload : string; consumed : int }
      (** a complete, CRC-valid frame; [consumed] bytes were used *)
  | Need_more  (** incomplete header or payload — read more bytes *)
  | Too_large of int
      (** the header claims this payload length, over [max_payload];
          unrecoverable (the stream cannot be resynced) *)
  | Crc_mismatch
      (** the payload is fully present but fails its checksum;
          unrecoverable *)

val decode : ?max_payload:int -> Bytes.t -> off:int -> len:int -> decode_result
(** Decode the first frame of [len] bytes starting at [off]. Never raises
    on arbitrary bytes; [max_payload] defaults to {!default_max_payload}. *)
