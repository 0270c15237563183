(* Wire framing for the TCP transport: the shared {!Core.Frame} codec plus
   the HELLO handshake. The server and client share it byte for byte. *)

include Core.Frame

let hello = Printf.sprintf "HELLO xseed %d" Engine.Serve.protocol_version

let hello_ok =
  Printf.sprintf "OK xseed %s protocol %d" Engine.Serve.version
    Engine.Serve.protocol_version

let parse_hello payload =
  match String.split_on_char ' ' (String.trim payload) with
  | [ "HELLO"; "xseed"; v ] ->
    (match int_of_string_opt v with
     | Some p when p = Engine.Serve.protocol_version -> Ok p
     | Some p ->
       Error
         (Printf.sprintf
            "ERR malformed-query unsupported protocol %d (server speaks %d)" p
            Engine.Serve.protocol_version)
     | None ->
       Error "ERR malformed-query HELLO expects 'HELLO xseed <protocol>'")
  | _ ->
    Error
      "ERR malformed-query expected 'HELLO xseed <protocol>' as the first \
       frame"
