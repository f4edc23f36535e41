(* The server under test as a separate process: spawn it, learn its
   port from its banner, read its CPU time and peak RSS from /proc, and
   stop it — gracefully (SIGTERM, which makes it drain and print its
   state digest) or by SIGKILL. *)

type t = {
  pid : int;
  out : Unix.file_descr;  (** the server's stdout and stderr *)
  buf : Buffer.t;  (** everything it printed so far *)
  mutable port : int;
  mutable reaped : bool;
}

let live : t list ref = ref []

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let reap t =
  if not t.reaped then begin
    waitpid_retry t.pid;
    t.reaped <- true;
    (try Unix.close t.out with Unix.Unix_error (_, _, _) -> ());
    live := List.filter (fun p -> p != t) !live
  end

let kill9 t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error (_, _, _) -> ());
    reap t
  end

(* Never leave a server behind, whatever path the benchmark exits by. *)
let () = at_exit (fun () -> List.iter kill9 !live)

(* Read whatever the server printed, waiting at most [timeout_s];
   [false] at end of stream. *)
let pump t ~timeout_s =
  match Unix.select [ t.out ] [] [] timeout_s with
  | [], _, _ -> true
  | _ -> (
    let b = Bytes.create 4096 in
    match Unix.read t.out b 0 4096 with
    | 0 -> false
    | n ->
      Buffer.add_subbytes t.buf b 0 n;
      true)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let int_after s sub =
  match find_sub s sub with
  | None -> None
  | Some i ->
    let j = ref (i + String.length sub) in
    let k = !j in
    while !j < String.length s && (s.[!j] = '-' || (s.[!j] >= '0' && s.[!j] <= '9')) do
      incr j
    done;
    int_of_string_opt (String.sub s k (!j - k))

(* "… on 127.0.0.1:PORT (…" standalone, "… clients PORT, …" clustered. *)
let banner_port s =
  match int_after s "clients " with
  | Some p when p > 0 -> Some p
  | _ -> ( match int_after s "127.0.0.1:" with Some p when p > 0 -> Some p | _ -> None)

let spawn ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w w
  in
  Unix.close w;
  let t = { pid; out = r; buf = Buffer.create 256; port = 0; reaped = false } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. 60. in
  let rec wait_banner () =
    match banner_port (Buffer.contents t.buf) with
    | Some p -> t.port <- p
    | None ->
      if Unix.gettimeofday () > deadline then begin
        kill9 t;
        failwith ("server printed no port: " ^ Buffer.contents t.buf)
      end;
      if not (pump t ~timeout_s:0.05) then begin
        reap t;
        failwith ("server exited: " ^ Buffer.contents t.buf)
      end;
      wait_banner ()
  in
  wait_banner ();
  t

(* SIGTERM, then collect the drain report until the server exits. *)
let stop t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error (_, _, _) -> ());
    let deadline = Unix.gettimeofday () +. 60. in
    while pump t ~timeout_s:0.2 && Unix.gettimeofday () < deadline do
      ()
    done;
    kill9 t
  end;
  Buffer.contents t.buf

(* The final state digest and logged-request count from the drain
   report: standalone "state digest D over N logged requests",
   clustered "durable W, digest D" (N = W + 1). *)
let final_digest out =
  match (int_after out "state digest ", int_after out " over ") with
  | Some d, Some n -> Some (d, n)
  | _ -> (
    match (int_after out "durable ", int_after out "digest ") with
    | Some w, Some d -> Some (d, w + 1)
    | _ -> None)

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let b = Buffer.create 1024 in
        (try
           while true do
             Buffer.add_channel b ic 1
           done
         with End_of_file -> ());
        Some (Buffer.contents b))
  | exception Sys_error _ -> None

(* USER_HZ, the unit of /proc/<pid>/stat times, is 100 on every Linux
   ABI. *)
let user_hz = 100.

(* utime + stime of every thread, in seconds. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> nan
  | Some s -> (
    (* fields after the parenthesised comm: state is field 3, utime 14 *)
    let i = String.rindex s ')' + 2 in
    let rest = String.sub s i (String.length s - i) in
    match String.split_on_char ' ' rest with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: st :: _ ->
      (float_of_string ut +. float_of_string st) /. user_hz
    | _ -> nan)

(* A "Name:   1234 kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid field =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> None
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ name; v ] when name = field ->
             String.split_on_char ' ' (String.trim v) |> List.hd |> int_of_string_opt
           | _ -> None)

(* Run [exe args] to completion and return what it printed. *)
let capture ~exe ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w w in
  Unix.close w;
  let t = { pid; out = r; buf = Buffer.create 1024; port = 0; reaped = false } in
  live := t :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  while pump t ~timeout_s:0.2 && Unix.gettimeofday () < deadline do
    ()
  done;
  kill9 t;
  Buffer.contents t.buf
