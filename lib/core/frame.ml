(* The one length-prefixed, checksummed frame codec: the TCP transport
   ({!Net.Frame}) and the feedback journal both frame with it. It is pure
   (bytes in, decision out) so the fault-injection harness can hammer it
   without a socket or a file. *)

let header_bytes = 8
let default_max_payload = 1 lsl 20

let put_u32_be buf v =
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let get_u32_be b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let encode buf payload =
  put_u32_be buf (String.length payload);
  put_u32_be buf (Crc32.digest payload);
  Buffer.add_string buf payload

let encode_string payload =
  let buf = Buffer.create (header_bytes + String.length payload) in
  encode buf payload;
  Buffer.contents buf

type decode_result =
  | Frame of { payload : string; consumed : int }
  | Need_more
  | Too_large of int
  | Crc_mismatch

let decode ?(max_payload = default_max_payload) b ~off ~len =
  if len < header_bytes then Need_more
  else begin
    let plen = get_u32_be b off in
    (* The length field is attacker-controlled: reject before sizing any
       read or allocation by it. *)
    if plen > max_payload then Too_large plen
    else if len < header_bytes + plen then Need_more
    else begin
      let crc = get_u32_be b (off + 4) in
      let payload = Bytes.sub_string b (off + header_bytes) plen in
      if Crc32.digest payload <> crc then Crc_mismatch
      else Frame { payload; consumed = header_bytes + plen }
    end
  end
