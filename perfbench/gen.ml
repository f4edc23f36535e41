(* The benchmark's own load generator: one thread, at most two
   connections, and a select loop that both sends and receives.

   Open loop: Poisson arrivals fixed in advance from the seed; each
   request is timed from when it was {e due}, so a generator (or
   server) stall shows up as latency on every request behind it, and
   how late the generator actually sent is recorded on its own.
   Closed loop: a fixed in-flight window, refilled on every reply.

   Every request ever sent to one server lineage lives in one log,
   indexed by its [req_id], with the reply's stamp, status and result —
   the input of the reply check in {!Verify}. *)

module Net = Doradd_net
module Codec = Doradd_persist.Codec
module Rng = Doradd_stats.Rng

type log = {
  mutable n : int;
  mutable body : string array;
  mutable due : int array;  (** ns; when the request should have been sent *)
  mutable sent : int array;  (** ns; when it was written *)
  mutable recv : int array;  (** ns; when its reply arrived, -1 if none *)
  mutable stamp : int array;
  mutable status : int array;
  mutable result : int array;
}

(* [capacity] should cover everything one server lineage is sent: growing
   the arrays mid-phase would stall the generator, and a stalled
   generator is latency charged to the server. *)
let create_log ?(capacity = 1024) () =
  let cap = max 1 capacity in
  {
    n = 0;
    body = Array.make cap "";
    due = Array.make cap 0;
    sent = Array.make cap 0;
    recv = Array.make cap (-1);
    stamp = Array.make cap (-1);
    status = Array.make cap (-1);
    result = Array.make cap 0;
  }

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add log body ~due =
  if log.n = Array.length log.body then begin
    log.body <- grow log.body "";
    log.due <- grow log.due 0;
    log.sent <- grow log.sent 0;
    log.recv <- grow log.recv (-1);
    log.stamp <- grow log.stamp (-1);
    log.status <- grow log.status (-1);
    log.result <- grow log.result 0
  end;
  let i = log.n in
  log.body.(i) <- body;
  log.due.(i) <- due;
  log.n <- i + 1;
  i

type conn = {
  fd : Unix.file_descr;
  reader : Net.Frame_reader.t;
  mutable alive : bool;
  mutable inflight : int;
}

type t = { log : log; mutable conns : conn array; rbuf : Bytes.t }

let create log = { log; conns = [||]; rbuf = Bytes.create 65536 }

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    c.inflight <- 0;
    try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()
  end

let close g = Array.iter close_conn g.conns

(* Connect [n] connections, retrying refusals for up to [timeout_s]
   (a freshly spawned server may print its port before it accepts). *)
let connect g ~port ~n ~timeout_s =
  close g;
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec one () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      { fd; reader = Net.Frame_reader.create (); alive = true; inflight = 0 }
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.002;
      one ()
  in
  g.conns <- Array.init n (fun _ -> one ())

let outstanding g = Array.fold_left (fun acc c -> acc + c.inflight) 0 g.conns

let send g ~conn i =
  let c = g.conns.(conn) in
  let log = g.log in
  let frame = Codec.frame (Net.Wire.encode_request ~req_id:i ~body:log.body.(i)) in
  log.sent.(i) <- Clock.now_ns ();
  if c.alive then
    match Doradd_persist.Sysio.write_all c.fd frame ~pos:0 ~len:(String.length frame) with
    | () -> c.inflight <- c.inflight + 1
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> close_conn c

let rec take_replies g c =
  match Net.Frame_reader.next c.reader with
  | `Need_more -> ()
  | `Error _ -> close_conn c
  | `Frame payload -> (
    match Net.Wire.decode_reply payload with
    | Error _ -> close_conn c
    | Ok r ->
      let log = g.log in
      let i = r.Net.Wire.req_id in
      if i < log.n && log.recv.(i) < 0 then begin
        log.recv.(i) <- Clock.now_ns ();
        log.stamp.(i) <- r.stamp;
        log.status.(i) <- r.status;
        log.result.(i) <- r.result;
        c.inflight <- c.inflight - 1
      end;
      take_replies g c)

(* Wait at most [timeout_s] for replies and take every one that came. *)
let poll g ~timeout_s =
  let fds =
    Array.fold_left (fun acc c -> if c.alive then c.fd :: acc else acc) [] g.conns
  in
  (match Unix.select fds [] [] (Float.max 0. timeout_s) with
  | ready, _, _ ->
    Array.iter
      (fun c ->
        if c.alive && List.memq c.fd ready then
          match Unix.read c.fd g.rbuf 0 (Bytes.length g.rbuf) with
          | 0 -> close_conn c
          | n ->
            Net.Frame_reader.feed c.reader g.rbuf ~pos:0 ~len:n;
            take_replies g c
          | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EINTR), _, _) -> ())
      g.conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())

let drain g ~timeout_s =
  let deadline = Clock.now_ns () + int_of_float (timeout_s *. 1e9) in
  while outstanding g > 0 && Clock.now_ns () < deadline do
    poll g ~timeout_s:(float_of_int (deadline - Clock.now_ns ()) /. 1e9)
  done

(* Requests [first, last) of the log, for the phase statistics. *)
type span = { first : int; last : int; t0 : int; t1 : int }

(* Poisson arrivals at [rate] for [duration_s], bodies from [next_body];
   the arrival times come from [rng] alone. *)
let open_loop g ~rng ~next_body ~rate ~duration_s ~drain_s =
  let nconn = Array.length g.conns in
  let t0 = Clock.now_ns () + 1_000_000 in
  let t_end = t0 + int_of_float (duration_s *. 1e9) in
  let first = g.log.n in
  let rec schedule at =
    let at = at +. (-.log (1. -. Rng.unit_float rng) /. rate *. 1e9) in
    if int_of_float at < t_end then begin
      ignore (add g.log (next_body ()) ~due:(int_of_float at));
      schedule at
    end
  in
  schedule (float_of_int t0);
  let last = g.log.n in
  let next = ref first in
  while !next < last do
    let now = Clock.now_ns () in
    while !next < last && g.log.due.(!next) <= now do
      send g ~conn:(!next mod nconn) !next;
      incr next
    done;
    if !next < last then
      poll g ~timeout_s:(float_of_int (g.log.due.(!next) - Clock.now_ns ()) /. 1e9)
  done;
  drain g ~timeout_s:drain_s;
  { first; last; t0; t1 = t_end }

(* A fixed in-flight [window] until [requests] have been sent: every
   reply releases the next request.  Bounded by count, not time, so the
   log a phase leaves behind has the same length whatever the speed.
   Without [drain_s] the phase ends with its window still in flight (the
   crash phase kills the server under it). *)
let closed_loop ?drain_s g ~next_body ~window ~requests =
  let nconn = Array.length g.conns in
  let first = g.log.n in
  let t0 = Clock.now_ns () in
  let give_up = t0 + 60_000_000_000 in
  let live () = Array.exists (fun c -> c.alive) g.conns in
  let fill () =
    while outstanding g < window && g.log.n - first < requests && live () do
      let i = add g.log (next_body ()) ~due:(Clock.now_ns ()) in
      send g ~conn:(i mod nconn) i
    done
  in
  fill ();
  while g.log.n - first < requests && live () && Clock.now_ns () < give_up do
    poll g ~timeout_s:0.1;
    fill ()
  done;
  let t1 = Clock.now_ns () in
  Option.iter (fun s -> drain g ~timeout_s:s) drain_s;
  { first; last = g.log.n; t0; t1 }

(* One request on the first connection, waited for: the first-OK-reply
   probe of setup and recovery.  Returns the request's index. *)
let probe g ~body ~timeout_s =
  let i = add g.log body ~due:(Clock.now_ns ()) in
  send g ~conn:0 i;
  drain g ~timeout_s;
  i

(* {2 Phase statistics} *)

(* A request failed if it got no OK reply within [timeout_ns] of being
   due; it then misses every latency limit. *)
let latency_ns log ~timeout_ns i =
  if log.recv.(i) < 0 || log.status.(i) <> Net.Wire.status_ok then infinity
  else
    let l = log.recv.(i) - log.due.(i) in
    if l > timeout_ns then infinity else float_of_int l

let failed log ~timeout_ns s =
  let n = ref 0 in
  for i = s.first to s.last - 1 do
    if latency_ns log ~timeout_ns i = infinity then incr n
  done;
  !n

let latencies log ~timeout_ns s =
  Array.init (s.last - s.first) (fun k -> latency_ns log ~timeout_ns (s.first + k))

let late_ns log s = Array.init (s.last - s.first) (fun k -> float_of_int (log.sent.(s.first + k) - log.due.(s.first + k)))

(* Nearest-rank percentile of an unsorted sample ([p] in [0, 100]). *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
  end

(* The phase cut into [w_ns]-long windows; [key i] places request [i]
   (by due time or reply time) and windows get their own statistic. *)
let per_window (s : span) ~w_ns ~key f =
  let nw = max 1 ((s.t1 - s.t0) / w_ns) in
  let buckets = Array.make nw [] in
  for i = s.last - 1 downto s.first do
    match key i with
    | Some t when t >= s.t0 -> (
      let k = (t - s.t0) / w_ns in
      if k < nw then buckets.(k) <- i :: buckets.(k))
    | _ -> ()
  done;
  Array.map f buckets

(* Each window's [p]th latency percentile, windows by due time.  The
   median over windows moves with the typical window, so one long stall
   moves one window, not the run's figure. *)
let window_latencies log ~timeout_ns s ~w_ns p =
  per_window s ~w_ns ~key:(fun i -> Some log.due.(i)) (fun is ->
      percentile (Array.of_list (List.map (latency_ns log ~timeout_ns) is)) p)

(* OK replies that arrived within the phase, [t0] to [t1]. *)
let ok_replies log (s : span) =
  let n = ref 0 in
  for i = s.first to s.last - 1 do
    let t = log.recv.(i) in
    if t >= s.t0 && t <= s.t1 && log.status.(i) = Net.Wire.status_ok then incr n
  done;
  !n
