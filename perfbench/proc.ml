(* Child processes: the [xseed] CLI run to completion, and the long-lived
   [xseed serve --port 0] server whose port is read off its stderr. Every
   server started here is registered so an exit path can stop it. *)

(* Reads to end of file, so /proc files (which report length 0) work too. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let n = input ic chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes b chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Index of the first occurrence of [sub] in [s]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* The first run of decimal digits at or after [i]. *)
let digits_from s i =
  let n = String.length s in
  let j = ref i in
  while !j < n && not (s.[!j] >= '0' && s.[!j] <= '9') do incr j done;
  let k = ref !j in
  while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
  int_of_string_opt (String.sub s !j (!k - !j))

let spawn ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close out)
    (fun () ->
      Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out out)

let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

(* Run to completion; a non-zero exit is fatal (the log names why). *)
let run ~log prog args =
  match waitpid_noeintr (spawn ~log prog args) with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (Printf.sprintf "%s %s failed; see %s" prog (String.concat " " args) log)

type server = { pid : int; port : int; mutable alive : bool }

let live : server list ref = ref []

let stop s =
  if s.alive then begin
    s.alive <- false;
    (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (waitpid_noeintr s.pid : Unix.process_status)
  end

let stop_all () = List.iter stop !live

(* Start [xseed serve ... --port 0] and wait for its "listening on" line. *)
let serve ~log xseed args =
  let pid = spawn ~log xseed (("serve" :: args) @ [ "--port"; "0" ]) in
  let s = { pid; port = 0; alive = true } in
  live := s :: !live;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    let text = try read_file log with Sys_error _ -> "" in
    let marker = "listening on 127.0.0.1:" in
    let port =
      Option.bind (find_sub text marker) (fun i ->
          digits_from text (i + String.length marker))
    in
    match port with
    | Some port -> { s with port }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         s.alive <- false;
         failwith ("xseed serve exited before listening; see " ^ log));
      if Unix.gettimeofday () > deadline then begin
        stop s;
        failwith ("xseed serve did not start listening; see " ^ log)
      end;
      Unix.sleepf 0.002;
      wait ()
  in
  let started = wait () in
  live := started :: List.filter (fun x -> x != s) !live;
  started

(* utime + stime of a process, seconds (USER_HZ is 100 on Linux). *)
let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex stat ')' in
  let fields =
    String.split_on_char ' '
      (String.sub stat (close + 2) (String.length stat - close - 2))
  in
  (* after "pid (comm) ": state is field 0, utime field 11, stime 12 *)
  let f i = float_of_string (List.nth fields i) in
  (f 11 +. f 12) /. 100.0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match Option.bind (find_sub status "VmHWM:") (fun i -> digits_from status i) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc status"
