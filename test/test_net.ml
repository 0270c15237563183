(* The TCP transport: frame codec invariants, the HELLO handshake, and a
   live loopback server driven through Net.Client — including the two
   accept-time refusals (connection cap, idle timeout) whose ERR payloads
   must name the active limit. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let contains ~needle hay =
  let nl = String.length needle and n = String.length hay in
  let rec scan i = i + nl <= n && (String.sub hay i nl = needle || scan (i + 1)) in
  scan 0

(* ------------------------------------------------------------------ *)
(* Frame codec (pure) *)

let decode ?max_payload s =
  Net.Frame.decode ?max_payload (Bytes.of_string s) ~off:0 ~len:(String.length s)

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let encoded = Net.Frame.encode_string payload in
      checki "length header + payload"
        (Net.Frame.header_bytes + String.length payload)
        (String.length encoded);
      match decode encoded with
      | Net.Frame.Frame { payload = got; consumed } ->
        checks "payload survives" payload got;
        checki "everything consumed" (String.length encoded) consumed
      | _ -> Alcotest.failf "round trip failed for %S" payload)
    [ ""; "PING"; "BATCH 2\n//a\n//b"; String.make 4096 'x'; "caf\xc3\xa9 \x00" ]

let test_frame_streaming () =
  (* Two frames back to back decode one at a time; a split anywhere inside
     the first is Need_more, never an error. *)
  let a = Net.Frame.encode_string "first" in
  let b = Net.Frame.encode_string "second payload" in
  let stream = a ^ b in
  (match decode stream with
   | Net.Frame.Frame { payload; consumed } ->
     checks "first frame" "first" payload;
     checki "consumed only the first" (String.length a) consumed
   | _ -> Alcotest.fail "first frame did not decode");
  for cut = 0 to String.length a - 1 do
    match decode (String.sub stream 0 cut) with
    | Net.Frame.Need_more -> ()
    | _ -> Alcotest.failf "cut at %d was not Need_more" cut
  done

let test_frame_limits () =
  (* The length field is attacker-controlled: over the cap it must refuse
     before any payload is read. *)
  let encoded = Net.Frame.encode_string (String.make 100 'x') in
  (match decode ~max_payload:99 encoded with
   | Net.Frame.Too_large n -> checki "claims 100" 100 n
   | _ -> Alcotest.fail "oversized frame accepted");
  (* A header alone claiming 2^31-ish bytes refuses without the payload. *)
  let header = String.sub (Net.Frame.encode_string "") 0 4 in
  let huge = "\x7f\xff\xff\xff" ^ String.sub header 0 0 in
  (match decode ("\x7f\xff\xff\xff" ^ "\x00\x00\x00\x00") with
   | Net.Frame.Too_large _ -> ()
   | _ -> Alcotest.fail "huge header accepted");
  ignore huge

let test_frame_crc () =
  let encoded = Bytes.of_string (Net.Frame.encode_string "payload") in
  (* Flip one payload bit: the frame is fully present but fails its CRC. *)
  let i = Net.Frame.header_bytes + 2 in
  Bytes.set encoded i (Char.chr (Char.code (Bytes.get encoded i) lxor 1));
  match decode (Bytes.to_string encoded) with
  | Net.Frame.Crc_mismatch -> ()
  | _ -> Alcotest.fail "corrupt payload accepted"

let test_hello () =
  (match Net.Frame.parse_hello Net.Frame.hello with
   | Ok p -> checki "negotiated protocol" Engine.Serve.protocol_version p
   | Error e -> Alcotest.failf "own hello refused: %s" e);
  (match Net.Frame.parse_hello "HELLO xseed 999" with
   | Ok _ -> Alcotest.fail "future protocol accepted"
   | Error e -> checkb "names both revisions" true (contains ~needle:"999" e));
  List.iter
    (fun bad ->
      match Net.Frame.parse_hello bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error e -> checkb "ERR line" true (contains ~needle:"ERR" e))
    [ ""; "HELLO"; "HELLO other 1"; "ESTIMATE //a" ]

(* ------------------------------------------------------------------ *)
(* Live loopback server *)

let paper_server () =
  let syn = Core.Synopsis.build Datagen.Paper_example.document in
  let estimator =
    Core.Estimator.create
      ~card_threshold:(Core.Synopsis.card_threshold syn)
      ?het:(Core.Synopsis.het syn)
      (Core.Synopsis.kernel syn)
  in
  Engine.Pool.server (Engine.Pool.create ~workers:1 estimator)

(* Start a loopback server on an ephemeral port, run [f port], always stop
   and join the serving domain. *)
let with_server ?(config = Net.Server.default_config) f =
  let server = paper_server () in
  let srv =
    match Net.Server.create { config with Net.Server.port = 0 } with
    | Ok s -> s
    | Error e -> Alcotest.failf "listen: %s" (Core.Error.to_string e)
  in
  let domain =
    Domain.spawn (fun () ->
        Net.Server.run srv
          ~make_session:(fun () -> (server, fun _ _ -> None))
          ())
  in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.stop srv;
      Domain.join domain)
    (fun () -> f srv (Net.Server.port srv))

let connect_ok port =
  match Net.Client.connect ~port () with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Core.Error.to_string e)

let request_ok c payload =
  match Net.Client.request c payload with
  | Ok r -> r
  | Error e -> Alcotest.failf "request %S: %s" payload (Core.Error.to_string e)

let test_live_roundtrip () =
  with_server @@ fun srv port ->
  let c = connect_ok port in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  checks "handshake greeting" Net.Frame.hello_ok (Net.Client.greeting c);
  checks "PING" "OK pong" (request_ok c "PING");
  checks "VERSION"
    (Printf.sprintf "OK xseed %s protocol %d" Engine.Serve.version
       Engine.Serve.protocol_version)
    (request_ok c "VERSION");
  (* One estimate, then the same spelling again must hit the cache — the
     TCP layer is in front of the same engine the stdin transport serves. *)
  checkb "estimate miss" true
    (contains ~needle:"miss" (request_ok c "ESTIMATE /A/B"));
  checkb "estimate hit" true
    (contains ~needle:"hit" (request_ok c "ESTIMATE /A/B"));
  (* A BATCH travels with its payload lines in one frame and answers all
     slots in one frame. *)
  (match String.split_on_char '\n' (request_ok c "BATCH 2\n/A/B\n//C") with
   | header :: replies ->
     checks "batch header" "OK 2" header;
     checki "both slots answered" 2 (List.length replies)
   | [] -> Alcotest.fail "empty batch reply");
  (* Multi-line responses survive framing. *)
  checkb "METRICS is multi-line" true
    (contains ~needle:"\n" (request_ok c "METRICS"));
  (* Protocol-level garbage is the serve layer's one-line ERR; the
     connection stays usable. *)
  checkb "unknown verb is ERR" true
    (contains ~needle:"ERR malformed-query" (request_ok c "NONSENSE"));
  checkb "trailing junk after request" true
    (contains ~needle:"one request per frame" (request_ok c "PING\ngarbage"));
  checks "still serving" "OK pong" (request_ok c "PING");
  checki "accepted one connection" 1 (Net.Server.connections_accepted srv)

let test_connection_cap () =
  let config =
    { Net.Server.default_config with Net.Server.max_connections = 1 }
  in
  with_server ~config @@ fun srv port ->
  let c1 = connect_ok port in
  Fun.protect ~finally:(fun () -> Net.Client.close c1) @@ fun () ->
  (* The second connection is refused at the door with one ERR frame
     naming the cap, before any handshake. *)
  (match Net.Client.connect ~port () with
   | Ok c2 ->
     Net.Client.close c2;
     Alcotest.fail "second connection accepted over the cap"
   | Error e ->
     checkb "refusal is overloaded and names the limit" true
       (contains ~needle:"ERR overloaded" (Core.Error.message e)
       && contains ~needle:"limit=1" (Core.Error.message e)));
  checki "one refusal counted" 1 (Net.Server.connections_refused srv);
  checks "first connection unaffected" "OK pong" (request_ok c1 "PING")

let test_idle_timeout () =
  let config =
    { Net.Server.default_config with Net.Server.idle_timeout_s = Some 0.15 }
  in
  with_server ~config @@ fun _srv port ->
  let c = connect_ok port in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  checks "alive before the deadline" "OK pong" (request_ok c "PING");
  Unix.sleepf 0.5;
  (* The server has sent ERR timeout and closed; the queued frame is the
     next thing the client reads. *)
  (match Net.Client.request c "PING" with
   | Ok reply ->
     checkb "timeout names the limit" true
       (contains ~needle:"ERR timeout" reply
       && contains ~needle:"limit=150" reply)
   | Error _ -> () (* the close can also win the race — equally correct *));
  match Net.Client.request c "PING" with
  | Ok reply -> Alcotest.failf "zombie connection answered %S" reply
  | Error _ -> ()

let test_framing_violations_close () =
  with_server @@ fun _srv port ->
  (* Raw socket, no client: send a valid HELLO then a corrupt frame; the
     server must answer one ERR frame and close — never hang, never leak
     the violation into the next request. *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let send s = ignore (Unix.write_substring fd s 0 (String.length s)) in
  let recv_all () =
    let buf = Bytes.create 65536 in
    let total = ref 0 in
    (try
       let rec loop () =
         let n = Unix.read fd buf !total (Bytes.length buf - !total) in
         if n > 0 then begin
           total := !total + n;
           loop ()
         end
       in
       loop ()
     with Unix.Unix_error _ -> ());
    Bytes.sub_string buf 0 !total
  in
  send (Net.Frame.encode_string Net.Frame.hello);
  let corrupt = Bytes.of_string (Net.Frame.encode_string "PING") in
  Bytes.set corrupt (Net.Frame.header_bytes) 'Q';
  send (Bytes.to_string corrupt);
  let replies = recv_all () in
  (* EOF from the server proves the close; the ERR frame precedes it. *)
  checkb "CRC violation answered then closed" true
    (contains ~needle:"CRC-32 mismatch" replies)

(* A client that sends and never reads cannot grow the server. Past
   max_frame_bytes of unwritten replies the server stops answering that
   connection, so frames_served stalls below the frames sent, and it goes
   on serving others; once the client reads, every reply arrives, in
   order. Each large reply (METRICS) is followed by a numbered marker, an
   unknown verb that its ERR line echoes. *)
let test_unread_replies_bounded () =
  let config =
    { Net.Server.default_config with Net.Server.max_frame_bytes = 4096 }
  in
  with_server ~config @@ fun srv port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.setsockopt_int fd Unix.SO_RCVBUF 4096;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let pairs = 2000 in
  let requests =
    Net.Frame.hello
    :: List.concat
         (List.init pairs (fun i -> [ "METRICS"; Printf.sprintf "MARK%d" i ]))
  in
  let sent = List.length requests in
  let stream = String.concat "" (List.map Net.Frame.encode_string requests) in
  let rec send off =
    if off < String.length stream then
      send (off + Unix.write_substring fd stream off (String.length stream - off))
  in
  send 0;
  (* Wait until the count stops moving. *)
  let rec settle last stable =
    Unix.sleepf 0.05;
    let served = Net.Server.frames_served srv in
    if served <> last then settle served 0
    else if stable < 5 then settle served (stable + 1)
    else served
  in
  let served = settle (-1) 0 in
  checkb
    (Printf.sprintf "answering paused: %d of %d frames served" served sent)
    true (served < sent);
  (let c = connect_ok port in
   Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
   checks "another connection is served" "OK pong" (request_ok c "PING"));
  (* Read every reply; a stalled server fails the read after 10 s. *)
  let buf = ref (Bytes.create 65536) and len = ref 0 and off = ref 0 in
  let replies = ref [] and count = ref 0 in
  while !count < sent do
    match Net.Frame.decode !buf ~off:!off ~len:(!len - !off) with
    | Net.Frame.Frame { payload; consumed } ->
      replies := payload :: !replies;
      incr count;
      off := !off + consumed
    | Net.Frame.Need_more ->
      if Bytes.length !buf - !len < 65536 then begin
        let bigger = Bytes.create ((2 * Bytes.length !buf) + 65536) in
        Bytes.blit !buf 0 bigger 0 !len;
        buf := bigger
      end;
      let n = Unix.read fd !buf !len 65536 in
      if n = 0 then Alcotest.failf "server closed after %d replies" !count;
      len := !len + n
    | Net.Frame.Too_large _ | Net.Frame.Crc_mismatch ->
      Alcotest.fail "undecodable reply"
  done;
  match List.rev !replies with
  | hello :: rest ->
    checks "handshake first" Net.Frame.hello_ok hello;
    List.iteri
      (fun i reply ->
        if i mod 2 = 0 then
          checkb (Printf.sprintf "reply %d is METRICS" (i + 1)) true
            (contains ~needle:"xseed_" reply)
        else
          checkb
            (Printf.sprintf "reply %d answers MARK%d" (i + 1) (i / 2))
            true
            (contains ~needle:(Printf.sprintf "\"MARK%d\"" (i / 2)) reply))
      rest
  | [] -> Alcotest.fail "no replies"

let () =
  Alcotest.run "net"
    [ ( "frame",
        [ Alcotest.test_case "round trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "streaming / partial reads" `Quick
            test_frame_streaming;
          Alcotest.test_case "length cap" `Quick test_frame_limits;
          Alcotest.test_case "crc" `Quick test_frame_crc;
          Alcotest.test_case "hello handshake" `Quick test_hello ] );
      ( "server",
        [ Alcotest.test_case "live round trip" `Quick test_live_roundtrip;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "idle timeout" `Quick test_idle_timeout;
          Alcotest.test_case "framing violations close" `Quick
            test_framing_violations_close;
          Alcotest.test_case "unread replies bounded" `Quick
            test_unread_replies_bounded ] )
    ]
