(* The served-path benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--server PATH] [--work DIR]

   --trace 0 runs the workload against a separately launched
   bin/server.exe and reports the end-to-end metrics; --trace 1 runs the
   in-process layer drivers with spans on and reports the per-layer
   metrics.  Every reply is checked against a serial replay of the
   rebuilt log.  Human-readable lines first; the last line of stdout is
   one JSON object {correct, attempted, failed, metrics}. *)

open Doradd_perfbench
module Net = Doradd_net

let ok = Net.Wire.status_ok

(* A request with no OK reply within this long of being due has failed. *)
let timeout_ns = 2_000_000_000
let drain_s = 5.

(* The paper's SLA: p99 at most 1 ms. *)
let sla_ms = 1.

(* Server instances per run, each set up and measured from fresh: every
   end-to-end figure pools them, so one instance's scheduling luck does
   not set the run's figure. *)
let instances = 5

(* In-flight requests of the saturation phase: enough to keep every
   server queue busy. *)
let tp_window = 1024

let ladder_rps = [ 500.; 1000.; 2000.; 4000.; 8000.; 16000.; 32000. ]

type run = {
  w : Workload.t;
  seed : int;
  seconds : float;
  exe : string;
  work : string;
  mutable metrics : (string * float * string) list;
  mutable errors : string list;
  mutable attempted : int;
  mutable failed : int;
}

let metric r name value unit_ =
  r.metrics <- (name, value, unit_) :: r.metrics;
  Printf.printf "metric %-34s %14.4f %s\n%!" name value unit_

let t_start = Unix.gettimeofday ()

(* Report lines, stamped with the seconds since the benchmark started. *)
let note fmt = Printf.printf ("[%6.2f] " ^^ fmt ^^ "\n%!") (Unix.gettimeofday () -. t_start)
let error r fmt = Printf.ksprintf (fun s -> r.errors <- s :: r.errors) fmt
let pct xs p = Gen.percentile xs p
let ms ns = ns /. 1e6

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let data_dir r tag =
  if r.w.durable then Some (Filename.concat r.work (Filename.concat "data" tag)) else None


(* {2 Server lifetimes} *)

type served = {
  proc : Proc.t;
  gen : Gen.t;
  t_spawn : int;
  probe : int;  (** log index of the first request *)
}

(* Spawn → connect → one request → OK: the set-up time. *)
let start r ~log ~dir ~body ~conns =
  let t_spawn = Clock.now_ns () in
  let proc = Proc.spawn ~exe:r.exe ~args:(Workload.server_args r.w ~data_dir:dir) in
  let gen = Gen.create log in
  Gen.connect gen ~port:proc.port ~n:conns ~timeout_s:30.;
  let probe = Gen.probe gen ~body ~timeout_s:30. in
  if log.Gen.recv.(probe) < 0 || log.status.(probe) <> ok then
    failwith (Printf.sprintf "server at %s gave no OK reply to its first request" r.exe);
  { proc; gen; t_spawn; probe }

let setup_s s = float_of_int (s.gen.log.recv.(s.probe) - s.t_spawn) /. 1e9

(* Rebuild the log, compare every reply (and the digest, if the server
   could print one) with the serial replay, and require the planted
   wrong reply to be caught. *)
let check r what ?infer (log : Gen.log) ~logged ~server_digest =
  match Verify.rebuild ~make_backend:(Workload.make_backend r.w) ~log ?infer ~logged () with
  | Error es -> List.iter (fun e -> error r "%s: %s" what e) es
  | Ok rp ->
    List.iter (fun e -> error r "%s: %s" what e) (Verify.mismatches log rp ~server_digest);
    if not (Verify.canary_caught log rp ~server_digest) then
      error r "%s: the planted wrong reply went unnoticed" what;
    let acked = ref 0 in
    for i = 0 to log.n - 1 do
      if log.recv.(i) >= 0 then incr acked
    done;
    note "check %s: %d replies = serial replay of %d logged requests%s; canary caught" what
      !acked logged
      (match server_digest with Some d -> Printf.sprintf ", digest %d" d | None -> "")

(* Stop gracefully, then check every reply and the final state. *)
let finish r s ?infer what =
  Gen.close s.gen;
  let out = Proc.stop s.proc in
  match Proc.final_digest out with
  | None -> error r "%s: server printed no final digest: %s" what out
  | Some (digest, logged) -> check r what ?infer s.gen.log ~logged ~server_digest:(Some digest)

let count r log (p : Gen.span) =
  r.attempted <- r.attempted + (p.last - p.first);
  r.failed <- r.failed + Gen.failed log ~timeout_ns p

let latency_phase r g ~name ~rate ~dur ~rng_id ~next_body =
  let rng = Doradd_stats.Rng.create ((r.seed * 1_000_003) + rng_id) in
  let p = Gen.open_loop g ~rng ~next_body ~rate ~duration_s:dur ~drain_s in
  let log = g.Gen.log in
  count r log p;
  let lat = Gen.latencies log ~timeout_ns p in
  let late = Gen.late_ns log p in
  (* Valid only if the generator's own lateness cannot explain an SLA miss. *)
  let late_p99_ms = ms (pct late 99.) in
  note
    "phase %s: open loop %.0f req/s for %.2f s: %d requests, %d failed, p50 %.2f ms, p99 %.2f ms, generator late p50 %.0f us, p99 %.0f us (%s)"
    name rate dur (p.last - p.first) (Gen.failed log ~timeout_ns p) (ms (pct lat 50.))
    (ms (pct lat 99.)) (pct late 50. /. 1e3) (late_p99_ms *. 1e3)
    (if late_p99_ms < sla_ms then "valid" else "generator-limited");
  (p, lat)

(* {2 --trace 0: end-to-end} *)

(* SIGKILL the instance under a closed-loop burst on one connection,
   restart it on the same data and time kill → first OK reply; then
   serve 500 more requests, stop the restarted server and check every
   reply.  Every instance ends this way, so recovery_s is a mean over
   restarts spread through the run, not over a few seconds of it: a
   slow spell of the host then moves one of them, not all.  The lineage
   is quiescent before the burst and one connection is sequenced in send
   order, so burst request j holds stamp base + j whether or not its
   reply came back.  kv-durable must come back with every acknowledged
   write; the other workloads are not durable and come back empty, so
   for them this is the time to serve again.  Requests in flight at the
   kill are the crash's, not failures. *)
let crash_and_restart r k (sv : served) ~dir ~next_body =
  let log = sv.gen.log in
  let base = ref 0 in
  for i = 0 to log.n - 1 do
    if log.recv.(i) >= 0 then base := max !base (log.stamp.(i) + 1)
  done;
  let base = !base in
  Gen.connect sv.gen ~port:sv.proc.port ~n:1 ~timeout_s:5.;
  let burst = Gen.closed_loop sv.gen ~next_body ~window:16 ~requests:300 in
  let t_kill = Clock.now_ns () in
  Proc.kill9 sv.proc;
  Gen.close sv.gen;
  let stamp_of i = base + i - burst.first in
  let last_acked = ref (base - 1) in
  for i = burst.first to burst.last - 1 do
    if log.recv.(i) >= 0 then begin
      last_acked := stamp_of i;
      r.attempted <- r.attempted + 1;
      if log.stamp.(i) <> stamp_of i then
        error r "crash burst: request %d got stamp %d, not %d" i log.stamp.(i) (stamp_of i)
    end
  done;
  (* burst requests stamped below [upto] were logged, acknowledged or not *)
  let infer ~upto i =
    if i >= burst.first && i < burst.last && stamp_of i < upto then Some (stamp_of i) else None
  in
  let log2 = if r.w.durable then log else Gen.create_log () in
  let sv2 = start r ~log:log2 ~dir ~body:(next_body ()) ~conns:2 in
  r.attempted <- r.attempted + 1;
  let t = float_of_int (log2.recv.(sv2.probe) - t_kill) /. 1e9 in
  let recovered = log2.stamp.(sv2.probe) in
  if r.w.durable && !last_acked >= recovered then
    error r "acknowledged write %d lost in the crash (%d recovered)" !last_acked recovered;
  note "crash %d: SIGKILL with %d burst requests sent, stamps up to %d acknowledged; restart holds %d logged requests after %.3f s"
    k (burst.last - burst.first) !last_acked recovered t;
  count r log2 (Gen.closed_loop sv2.gen ~next_body ~window:16 ~requests:500 ~drain_s);
  if r.w.durable then finish r sv2 (Printf.sprintf "instance %d" k) ~infer:(infer ~upto:recovered)
  else begin
    finish r sv2 (Printf.sprintf "instance %d restart" k);
    (* The killed server printed no digest: check its replies alone,
       once the restarted server has stopped and no server competes. *)
    let logged = !last_acked + 1 in
    check r (Printf.sprintf "instance %d" k) log ~infer:(infer ~upto:logged) ~logged
      ~server_digest:None
  end;
  t

(* One server instance's measured phases, in a fixed order from a fresh
   start, so every instance is measured in the same state. *)
type instance = {
  log : Gen.log;
  setup : float;
  light : Gen.span;
  heavy : Gen.span;
  sat : Gen.span;
  cpu_light : float;
  rss_mb : float;
}

(* Fractions of the run's seconds each instance spends per phase. *)
let light_share = 0.07
let heavy_share = 0.045

(* The saturation phase is sized to take [sat_share] of the run's
   seconds at d998d15: about twice the heavy rate. *)
let sat_share = 0.05

let measure_instance r k ~next_body =
  let w = r.w and s = r.seconds in
  let sat_requests = int_of_float (2. *. sat_share *. s *. w.heavy_rps) in
  let expected =
    500. +. (s *. ((light_share *. w.light_rps) +. (heavy_share *. w.heavy_rps)))
    +. float_of_int sat_requests
  in
  let log = Gen.create_log ~capacity:(2 * int_of_float expected) () in
  let dir = data_dir r (Printf.sprintf "i%d" k) in
  let sv = start r ~log ~dir ~body:(next_body ()) ~conns:2 in
  r.attempted <- r.attempted + 1;
  let g = sv.gen and pid = sv.proc.Proc.pid in
  (* warm-up, not reported *)
  count r log (Gen.closed_loop g ~next_body ~window:16 ~requests:500 ~drain_s);
  let c0 = Proc.cpu_s pid and t0 = Unix.gettimeofday () in
  let light, _ =
    latency_phase r g ~name:"light" ~rate:w.light_rps ~dur:(light_share *. s) ~rng_id:(2 * k)
      ~next_body
  in
  let cpu_light = (Proc.cpu_s pid -. c0) /. (Unix.gettimeofday () -. t0) in
  let heavy, _ =
    latency_phase r g ~name:"heavy" ~rate:w.heavy_rps ~dur:(heavy_share *. s) ~rng_id:((2 * k) + 1)
      ~next_body
  in
  let sat = Gen.closed_loop g ~next_body ~window:tp_window ~requests:sat_requests ~drain_s in
  count r log sat;
  let dur = float_of_int (sat.t1 - sat.t0) /. 1e9 in
  note "phase saturation: closed loop, window %d, %.2f s: %d requests, %.0f req/s" tp_window dur
    (sat.last - sat.first)
    (float_of_int (sat.last - sat.first) /. dur);
  let rss_mb = float_of_int (Option.value ~default:0 (Proc.status_kb pid "VmHWM")) /. 1024. in
  ({ log; setup = setup_s sv; light; heavy; sat; cpu_light; rss_mb }, sv, dir)

(* The SLA ladder: open-loop rungs of rising rate, stopping at the first
   whose p99 (whole rung, and its second half: no growing backlog)
   exceeds the SLA or that has a failure.  Returns the last rung met. *)
let ladder r g ~next_body =
  let rung_s = Float.max 0.5 (0.04 *. r.seconds) in
  let log = g.Gen.log in
  let rec go best k = function
    | [] -> best
    | rate :: rest ->
      let p, lat =
        latency_phase r g ~name:(Printf.sprintf "ladder-%.0f" rate) ~rate ~dur:rung_s
          ~rng_id:(100 + k) ~next_body
      in
      let half = Array.sub lat (Array.length lat / 2) (Array.length lat - (Array.length lat / 2)) in
      let p99 = ms (pct lat 99.) and p99_half = ms (pct half 99.) in
      let met = p99 <= sla_ms && p99_half <= sla_ms && Gen.failed log ~timeout_ns p = 0 in
      note "  rung %.0f req/s: p99 %.3f ms (second half %.3f ms) -> %s" rate p99 p99_half
        (if met then "meets the SLA" else "misses");
      if met then go rate (k + 1) rest else best
  in
  go 0. 0 ladder_rps

let end_to_end r =
  let stream = Workload.stream r.w ~seed:r.seed in
  let next_body () = Workload.next_body stream in
  let runs =
    List.init instances (fun k ->
        let m, sv, dir = measure_instance r k ~next_body in
        let slo = if k = instances - 1 then Some (ladder r sv.gen ~next_body) else None in
        let t = crash_and_restart r k sv ~dir ~next_body in
        Option.iter rm_rf dir;
        (m, slo, t))
  in
  let ms_ = List.map (fun (m, _, _) -> m) runs in
  let slo_rate = Option.get (List.find_map (fun (_, slo, _) -> slo) runs) in
  let recovery_times = List.map (fun (_, _, t) -> t) runs in
  let recovery_s =
    List.fold_left ( +. ) 0. recovery_times /. float_of_int (List.length recovery_times)
  in
  let pooled f = Array.concat (List.map f ms_) in
  let windowed phase ~w_ns p =
    ms (Gen.median (pooled (fun m -> Gen.window_latencies m.log ~timeout_ns (phase m) ~w_ns p)))
  in
  let each f = Gen.median (Array.of_list (List.map f ms_)) in
  let light m = m.light and heavy m = m.heavy in
  let whole phase p = ms (pct (pooled (fun m -> Gen.latencies m.log ~timeout_ns (phase m))) p) in
  (* Windows keep at least 10 samples beyond each window's p99. *)
  let light_w = 1_000_000_000 and heavy_w = 250_000_000 in
  metric r "setup_s" (each (fun m -> m.setup)) "s";
  (* All instances' OK replies over all their saturation time: a rate's
     most stable estimate.  A median of windows pooled over instances
     sits in the gap between instances that ran at different speeds. *)
  let sum f = List.fold_left (fun acc m -> acc +. f m) 0. ms_ in
  metric r "throughput_rps"
    (sum (fun m -> float_of_int (Gen.ok_replies m.log m.sat))
    /. sum (fun m -> float_of_int (m.sat.t1 - m.sat.t0) /. 1e9))
    "req/s";
  metric r "p50_ms.light" (whole light 50.) "ms";
  metric r "p99_ms.light" (windowed light ~w_ns:light_w 99.) "ms";
  metric r "p50_ms.heavy" (windowed heavy ~w_ns:heavy_w 50.) "ms";
  metric r "p99_ms.heavy" (windowed heavy ~w_ns:heavy_w 99.) "ms";
  metric r "cpu_cores.light" (each (fun m -> m.cpu_light)) "cores";
  metric r "rss_mb" (each (fun m -> m.rss_mb)) "MiB";
  metric r "recovery_s" recovery_s "s";
  (* Reported, not gated: both read 0 today, and a bound relative to 0
     is undefined. *)
  note "report slo_rate_rps %.0f req/s (p99 <= %.0f ms, ladder %s)" slo_rate sla_ms
    (String.concat "," (List.map (Printf.sprintf "%.0f") ladder_rps));
  note "report failed_ratio %.6f (%d of %d)"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  let late phase = pct (pooled (fun m -> Gen.late_ns m.log (phase m))) 99. /. 1e3 in
  let n phase = List.fold_left (fun acc m -> let p : Gen.span = phase m in acc + p.last - p.first) 0 ms_ in
  note "report whole-phase latency: light p50 %.3f p99 %.3f ms (%d samples), heavy p50 %.3f p99 %.3f ms (%d samples)"
    (whole light 50.) (whole light 99.) (n light) (whole heavy 50.) (whole heavy 99.) (n heavy);
  note "report gen.late_p99_us light %.1f, heavy %.1f" (late light) (late heavy);
  note "report setups %s s"
    (String.concat " " (List.map (fun m -> Printf.sprintf "%.4f" m.setup) ms_));
  note "report recovery cycles %s s"
    (String.concat " " (List.map (Printf.sprintf "%.4f") recovery_times))

(* {2 --trace 1: per layer} *)

(* The server's own default shard count, from its --help, so a change
   of the default also changes what the drivers replay at. *)
let default_shards exe =
  let help = Proc.capture ~exe ~args:[ "--help=plain" ] in
  Option.value ~default:2 (Proc.int_after help "--shards=N (absent=")

let traced r =
  let w = r.w in
  let s = r.seconds in
  let log = Gen.create_log () in
  let stream = Workload.stream w ~seed:r.seed in
  let next_body () = Workload.next_body stream in
  let dir = data_dir r "traced" in
  let sv = start r ~log ~dir ~body:(next_body ()) ~conns:2 in
  r.attempted <- r.attempted + 1;
  let pid = sv.proc.Proc.pid in
  let idle_s = Float.max 1. (0.04 *. s) in
  let c0 = Proc.cpu_s pid and t0 = Unix.gettimeofday () in
  Unix.sleepf idle_s;
  let idle = (Proc.cpu_s pid -. c0) /. (Unix.gettimeofday () -. t0) in
  let light, lat =
    latency_phase r sv.gen ~name:"light" ~rate:w.light_rps ~dur:(0.15 *. s) ~rng_id:0 ~next_body
  in
  let late = Gen.late_ns log light in
  finish r sv "served";
  Option.iter rm_rf dir;
  let o = { Layers.metrics = []; errors = [] } in
  let sp = Spans.create () in
  let n = 40_000 in
  let bodies = Workload.bodies w ~seed:r.seed n in
  let sub k = Array.sub bodies 0 (min k n) in
  let make = Workload.make_backend w in
  let serial = Net.Backend.replay_serial make bodies in
  let digest = fst serial in
  let shards = default_shards r.exe in
  let driver name f =
    let id = Spans.open_ sp ~name:(Spans.name_id sp ("driver." ^ name)) ~req:(-1) ~parent:(-1) in
    f id;
    Spans.close sp id
  in
  driver "path" (fun parent -> Layers.path o sp ~parent make bodies ~serial);
  driver "sequencer" (fun parent -> Layers.sequencer o sp ~parent (sub 10_000));
  let seq_wal = Filename.concat r.work "seq-wal" in
  let durable_bodies = sub 10_000 in
  driver "sequencer_durable" (fun parent ->
      Layers.durable_sequencer o sp ~parent durable_bodies ~dir:seq_wal ~window:32);
  let wal_dir = Filename.concat r.work "wal" in
  driver "wal" (fun parent -> Layers.wal o sp ~parent (sub 8_000) ~dir:wal_dir ~batch:8);
  Layers.recovery o make ~dir:seq_wal
    ~expect_digest:(fst (Net.Backend.replay_serial make durable_bodies));
  driver "sharded" (fun parent ->
      Layers.sharded o sp ~parent make bodies ~shards ~expect_digest:digest);
  Layers.runtime o make bodies ~workers:1 ~expect_digest:digest;
  Layers.runtime o make bodies ~workers:2 ~expect_digest:digest;
  driver "spawner" (fun parent -> Layers.spawner o sp ~parent make bodies);
  Layers.pipeline o make bodies ~expect_digest:digest;
  Layers.overhead o make (sub 10_000) ~passes:4;
  Layers.span_metrics o sp;
  List.iter rm_rf [ seq_wal; wal_dir ];
  let found name =
    match List.find_opt (fun (m, _, _) -> m = name) o.metrics with
    | Some (_, v, _) -> v
    | None -> nan
  in
  let p50_light = ms (pct lat 50.) in
  let layer_sum_ns =
    List.fold_left
      (fun acc m -> acc +. found m)
      0.
      ([ "net.encode_ns"; "net.decode_ns"; "backend.prepare_ns"; "backend.run_ns"; "sharded.schedule_ns" ]
      @ [ (if w.durable then "sequencer.durable_deliver_ns.p50" else "sequencer.deliver_ns.p50") ])
  in
  List.iter (fun (m, v, u) -> metric r m v u) (List.rev o.metrics);
  metric r "server.idle_cpu_cores" idle "cores";
  metric r "gen.late_p99_us" (pct late 99. /. 1e3) "us";
  metric r "path.unattributed_ms" (p50_light -. (layer_sum_ns /. 1e6)) "ms";
  note "report p50_ms.light (traced run) %.4f ms; layer self-time sum %.0f ns; shards %d" p50_light
    layer_sum_ns shards;
  r.errors <- r.errors @ List.rev o.errors;
  let path = Filename.concat r.work (Printf.sprintf "spans-%s.tsv" w.name) in
  Spans.write sp ~header:[ w.name; Printf.sprintf "seed %d" r.seed ] path;
  note "spans: %d written to %s" sp.Spans.n path

(* {2 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "1e12"

let print_result r =
  let metrics =
    List.rev r.metrics
    |> List.map (fun (n, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.errors = []) (max 1 r.attempted) r.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30 and trace = ref 0 in
  let exe = ref "_build/default/bin/server.exe" and work = ref ".perfbench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-uniform | tpcc-hot | kv-durable");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--server", Arg.Set_string exe, "PATH server executable");
      ("--work", Arg.Set_string work, "DIR scratch directory (WALs, span files)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  match Workload.of_name !workload with
  | None ->
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  | Some w ->
    Doradd_persist.Sysio.ignore_sigpipe ();
    if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
    let r =
      {
        w;
        seed = !seed;
        seconds = float_of_int !seconds;
        exe = !exe;
        work = !work;
        metrics = [];
        errors = [];
        attempted = 0;
        failed = 0;
      }
    in
    let data_root = Option.map Filename.dirname (data_dir r "x") in
    Option.iter (fun d -> rm_rf d; Sys.mkdir d 0o755) data_root;
    let dir = data_dir r "i0" in
    List.iter (fun l -> note "%s" l)
      (Host.lines ~server_argv:(r.exe :: Workload.server_args w ~data_dir:dir) ~wal_dir:dir);
    note "run: workload %s, seed %d, %d s, trace %d" w.name !seed !seconds !trace;
    let all0, steal0 = Host.cpu_jiffies () in
    (try if !trace = 0 then end_to_end r else traced r
     with e -> error r "aborted: %s" (Printexc.to_string e));
    let all1, steal1 = Host.cpu_jiffies () in
    note "host: steal %.2f%% of CPU time during the run"
      (100. *. float_of_int (steal1 - steal0) /. float_of_int (max 1 (all1 - all0)));
    Option.iter rm_rf data_root;
    List.iter (fun e -> note "ERROR %s" e) r.errors;
    print_result r;
    exit (if r.errors = [] then 0 else 1)
