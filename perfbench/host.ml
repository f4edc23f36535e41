(* The host and configuration every report is stamped with — read from
   the machine, never assumed. *)

let read = Proc.read_file

let first_line_with prefix s =
  String.split_on_char '\n' s
  |> List.find_map (fun l ->
         if String.length l >= String.length prefix
            && String.sub l 0 (String.length prefix) = prefix
         then Some (String.trim (String.sub l (String.length prefix) (String.length l - String.length prefix)))
         else None)

(* CPUs this process may run on ("0-1,4" style list). *)
let nproc () =
  match Option.bind (read "/proc/self/status") (first_line_with "Cpus_allowed_list:") with
  | None -> Domain.recommended_domain_count ()
  | Some l ->
    String.split_on_char ',' l
    |> List.fold_left
         (fun acc r ->
           match String.split_on_char '-' (String.trim r) with
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | [ a ] when a <> "" -> acc + 1
           | _ -> acc)
         0

let cpu_model () =
  Option.bind (read "/proc/cpuinfo") (first_line_with "model name")
  |> Option.map (fun s -> String.trim (String.sub s 1 (String.length s - 1)))
  |> Option.value ~default:"unknown"

let kernel () =
  Option.value ~default:"unknown" (Option.map String.trim (read "/proc/sys/kernel/osrelease"))

(* The checkout is usually not a git repository; read .git directly
   when it is, rather than letting git search parent directories. *)
let commit () =
  match Option.map String.trim (read ".git/HEAD") with
  | None -> "unknown (not a git checkout)"
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let ref_ = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" ref_) with
    | Some sha -> String.trim sha
    | None -> (
      match Option.bind (read ".git/packed-refs") (fun s ->
          String.split_on_char '\n' s
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' l with
                 | [ sha; r ] when r = ref_ -> Some sha
                 | _ -> None)) with
      | Some sha -> sha
      | None -> "unknown"))
  | Some sha -> sha

(* Filesystem type of the mount holding [path]: longest mount-point
   prefix in /proc/mounts. *)
let filesystem path =
  let abs = if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path in
  let under mp =
    mp = "/" || abs = mp
    || (String.length abs > String.length mp
       && String.sub abs 0 (String.length mp) = mp
       && abs.[String.length mp] = '/')
  in
  match read "/proc/mounts" with
  | None -> "unknown"
  | Some s ->
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' l with
           | _ :: mp :: fs :: _ when under mp -> Some (String.length mp, fs)
           | _ -> None)
    |> List.sort compare |> List.rev
    |> (function (_, fs) :: _ -> fs | [] -> "unknown")

(* (all, steal) jiffies of the whole machine, from /proc/stat: a
   hypervisor taking the CPUs away shows up as steal. *)
let cpu_jiffies () =
  match Option.bind (read "/proc/stat") (first_line_with "cpu ") with
  | None -> (0, 0)
  | Some l ->
    let xs = List.filter_map int_of_string_opt (String.split_on_char ' ' l) in
    (List.fold_left ( + ) 0 xs, match List.nth_opt xs 7 with Some st -> st | None -> 0)

let mem_total_mb () =
  Option.bind (read "/proc/meminfo") (first_line_with "MemTotal:")
  |> Option.map (fun s -> int_of_string (List.hd (String.split_on_char ' ' s)) / 1024)
  |> Option.value ~default:0

let lines ~server_argv ~wal_dir =
  [
    Printf.sprintf "host: nproc %d, %s, %d MiB, Linux %s" (nproc ()) (cpu_model ())
      (mem_total_mb ()) (kernel ());
    Printf.sprintf "build: OCaml %s, commit %s" Sys.ocaml_version (commit ());
    Printf.sprintf "server: %s" (String.concat " " server_argv);
    (match wal_dir with
    | None -> "durability: none"
    | Some d ->
      (* the server's default; no workload passes --no-fsync *)
      Printf.sprintf "durability: fsync on, WAL in %s on %s" d (filesystem d));
  ]
