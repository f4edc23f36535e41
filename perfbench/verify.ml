(* The reply check.  Rebuild the server's stamp-ordered request log from
   the (stamp, body) pairs the benchmark sent, replay it serially
   through a fresh backend ({!Doradd_net.Backend.replay_serial}), and
   compare every reply and the server's final state digest with the
   replay.  The server never reports its log to the benchmark: if a
   stamp is missing, duplicated or holds a body nobody sent, the check
   fails. *)

module Net = Doradd_net

type replay = {
  stamp_of : int array;  (** log index -> stamp in the rebuilt log, -1 if none *)
  digest : int;  (** serial replay's final digest *)
  results : int option array;  (** per stamp *)
}

(* [stamp_of i] is the stamp of request [i]: its reply's, or for a
   request whose reply never came (the crash phase) the one [infer]
   assigns, if any.  [logged] is how many requests the server logged. *)
let rebuild ~make_backend ~(log : Gen.log) ?(infer = fun _ -> None) ~logged () =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let bodies = Array.make (max logged 0) None in
  let stamp_of = Array.make log.n (-1) in
  for i = 0 to log.n - 1 do
    let acked = log.recv.(i) >= 0 in
    let s = if acked then Some log.stamp.(i) else infer i in
    match s with
    | None -> ()
    | Some s when s >= 0 && s < logged -> (
      stamp_of.(i) <- s;
      match bodies.(s) with
      | Some _ -> err "stamp %d was assigned to two requests" s
      | None -> bodies.(s) <- Some log.body.(i))
    | Some s ->
      if acked then err "acknowledged request %d has stamp %d outside the log of %d" i s logged
  done;
  Array.iteri (fun s b -> if b = None then err "logged stamp %d was never sent" s) bodies;
  match !errors with
  | [] ->
    let digest, results =
      Net.Backend.replay_serial make_backend (Array.map Option.get bodies)
    in
    Ok { stamp_of; digest; results }
  | es -> Error (List.rev es)

(* Every acknowledged reply against the replay, and the server's digest
   when it printed one. *)
let mismatches (log : Gen.log) r ~server_digest =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for i = 0 to log.n - 1 do
    if log.recv.(i) >= 0 then begin
      let s = r.stamp_of.(i) in
      if log.status.(i) <> Net.Wire.status_ok then
        err "request %d (stamp %d) got status %d" i s log.status.(i)
      else
        match r.results.(s) with
        | Some v when v = log.result.(i) -> ()
        | Some v -> err "request %d (stamp %d) replied %d, serial replay %d" i s log.result.(i) v
        | None -> err "request %d (stamp %d) replied OK, serial replay rejects it" i s
    end
  done;
  (match server_digest with
  | Some d when d <> r.digest -> err "server digest %d, serial replay digest %d" d r.digest
  | _ -> ());
  List.rev !errors

(* The canary: plant one wrong reply and require {!mismatches} to see
   it.  A check that cannot fail proves nothing. *)
let canary_caught (log : Gen.log) r ~server_digest =
  let rec first_ok i =
    if i >= log.n then None
    else if log.recv.(i) >= 0 && log.status.(i) = Net.Wire.status_ok then Some i
    else first_ok (i + 1)
  in
  match first_ok 0 with
  | None -> false
  | Some i ->
    let saved = log.result.(i) in
    log.result.(i) <- saved + 1;
    let caught = mismatches log r ~server_digest <> [] in
    log.result.(i) <- saved;
    caught
