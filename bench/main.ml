(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (fast mode — same shapes as `bin/experiments.exe --mode full`, scaled
   logs).  Part 2 runs Bechamel microbenchmarks of the real runtime's hot
   paths on this host (note: the container exposes a single CPU, so these
   measure single-core costs, not parallel scaling — scaling numbers come
   from the simulator above). *)

module E = Doradd_experiments
module Core = Doradd_core
module Q = Doradd_queue
module St = Doradd_stats

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: paper tables and figures                                    *)
(* ------------------------------------------------------------------ *)

let mode_of_argv () =
  match Array.to_list Sys.argv with
  | _ :: m :: _ -> ( match E.Mode.of_string m with Some m -> m | None -> E.Mode.Fast)
  | _ -> E.Mode.Fast

let run_experiments mode =
  Printf.printf "=== DORADD paper reproduction (%s mode) ===\n\n%!" (E.Mode.to_string mode);
  let time name f =
    let t0 = Unix.gettimeofday () in
    f ~mode;
    Printf.printf "[%s: %.1fs]\n\n%!" name (Unix.gettimeofday () -. t0)
  in
  time "fig2" E.Fig2.run;
  time "fig6" E.Fig6.run;
  time "fig7" E.Fig7.run;
  time "fig8" E.Fig8.run;
  time "fig9" E.Fig9.run;
  time "fig10" E.Fig10.run;
  time "efficiency" E.Efficiency.run;
  time "ablations" E.Ablations.run;
  time "dps-compare" E.Dps_compare.run;
  time "breakdown" E.Breakdown.run

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks of the real runtime                         *)
(* ------------------------------------------------------------------ *)

let bench_mpmc =
  Test.make ~name:"mpmc push+pop"
    (Staged.stage
       (let q = Q.Mpmc.create ~dummy:0 ~capacity:64 in
        fun () ->
          ignore (Q.Mpmc.try_push q 1);
          ignore (Q.Mpmc.try_pop q)))

let bench_spsc =
  Test.make ~name:"spsc push+pop"
    (Staged.stage
       (let q = Q.Spsc.create ~dummy:0 ~capacity:64 in
        fun () ->
          ignore (Q.Spsc.try_push q 1);
          ignore (Q.Spsc.try_pop q)))

let bench_resource =
  (* the sanitizer-off access path: one atomic load + never-taken branch
     per accessor — this is the overhead spot-check for instrumentation *)
  Test.make ~name:"resource get+set (sanitizer off)"
    (Staged.stage
       (let r = Core.Resource.create 0 in
        fun () -> Core.Resource.set r (Core.Resource.get r + 1)))

let bench_footprint =
  Test.make ~name:"footprint normalize (10 slots)"
    (Staged.stage
       (let slots = Array.init 10 (fun _ -> Core.Slot.create ()) in
        fun () -> ignore (Core.Footprint.of_slots (Array.to_list slots))))

let bench_spawn =
  (* one request through the Spawner: link 10 resources, release, complete *)
  Test.make ~name:"spawner link+complete (10 keys)"
    (Staged.stage
       (let slots = Array.init 10 (fun _ -> Core.Slot.create ()) in
        let fp = Core.Footprint.of_slots (Array.to_list slots) in
        let seq = ref 0 in
        fun () ->
          incr seq;
          let node = Core.Node.create ~seqno:!seq (fun () -> ()) in
          let ready = ref None in
          Core.Spawner.schedule_ready (fun n -> ready := Some n) node fp;
          match !ready with
          | Some n -> Core.Node.complete n ~on_ready:(fun _ -> ())
          | None -> ()))

let bench_histogram =
  Test.make ~name:"histogram record"
    (Staged.stage
       (let h = St.Histogram.create () in
        let i = ref 0 in
        fun () ->
          incr i;
          St.Histogram.record h (!i land 0xFFFFF)))

let bench_zipf =
  Test.make ~name:"zipf sample (10M, 0.99)"
    (Staged.stage
       (let z = St.Distributions.zipf ~n:10_000_000 ~theta:0.99 in
        let rng = St.Rng.create 1 in
        fun () -> ignore (St.Distributions.zipf_sample z rng)))

let bench_engine =
  Test.make ~name:"sim engine schedule+run"
    (Staged.stage
       (let e = Doradd_sim.Engine.create () in
        fun () ->
          Doradd_sim.Engine.schedule_after e 1 (fun () -> ());
          Doradd_sim.Engine.run e))

let run_microbenches () =
  print_endline "=== Microbenchmarks (real data structures, single host core) ===";
  let tests =
    [
      bench_mpmc; bench_spsc; bench_resource; bench_footprint; bench_spawn; bench_histogram;
      bench_zipf; bench_engine;
    ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~kde:None () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let rows =
    List.map
      (fun test ->
        let name = Test.name test in
        let results = Benchmark.all cfg [ Instance.monotonic_clock ] test in
        let stats = Analyze.all ols Instance.monotonic_clock results in
        (* a single-function Test yields one entry *)
        let ns =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with Some [ e ] -> e | _ -> acc)
            stats 0.0
        in
        [ name; Printf.sprintf "%.1f ns" ns ])
      tests
  in
  St.Table.print ~header:[ "operation"; "time/op" ] rows;
  print_newline ()

(* End-to-end throughput of the real runtime on this host: replay a small
   log and report wall-clock rate.  With one physical core this measures
   runtime overhead, not speedup. *)
let run_real_runtime_bench () =
  print_endline "=== Real runtime replay (host wall-clock; single CPU container) ===";
  let n = 200_000 in
  let cells = Array.init 256 (fun _ -> Core.Resource.create 0) in
  let rng = St.Rng.create 7 in
  let log = Array.init n (fun i -> (i, Array.init 3 (fun _ -> St.Rng.int rng 256))) in
  let rows =
    List.map
      (fun workers ->
        let t0 = Unix.gettimeofday () in
        Core.Runtime.run_log ~workers
          (fun (_, keys) ->
            Core.Footprint.of_slots
              (Array.to_list (Array.map (fun k -> Core.Resource.slot cells.(k)) keys)))
          (fun (id, keys) ->
            Array.iter (fun k -> Core.Resource.update cells.(k) (fun v -> v + id)) keys)
          log;
        let dt = Unix.gettimeofday () -. t0 in
        [ string_of_int workers; St.Table.fmt_rate (float_of_int n /. dt) ])
      [ 1; 2; 4 ]
  in
  St.Table.print ~header:[ "workers"; "replay rate" ] rows;
  print_newline ()

(* Durability subsystem: raw WAL append throughput (buffered, one final
   sync) and group commit at several batch sizes with real fsync — the
   knob the durable sequencer's adaptive batching turns. *)
module Persist = Doradd_persist

let run_wal_bench () =
  print_endline "=== WAL append / group commit (host disk, temp dir) ===";
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let payload = String.make 64 'x' in
  let in_temp_dir f =
    let dir = Filename.temp_dir "doradd_bench_wal" "" in
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let raw =
    in_temp_dir @@ fun dir ->
    let w = Persist.Wal.open_ ~segment_bytes:(1 lsl 22) ~fsync:false ~dir () in
    let n = 200_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      ignore (Persist.Wal.append w payload)
    done;
    Persist.Wal.sync w;
    let dt = Unix.gettimeofday () -. t0 in
    Persist.Wal.close w;
    [ "buffered append (no fsync)"; "1"; St.Table.fmt_rate (float_of_int n /. dt) ]
  in
  let group size =
    in_temp_dir @@ fun dir ->
    let w = Persist.Wal.open_ ~segment_bytes:(1 lsl 22) ~fsync:true ~dir () in
    let n = 512 in
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      ignore (Persist.Wal.append w payload);
      if i mod size = 0 then Persist.Wal.sync w
    done;
    Persist.Wal.sync w;
    let dt = Unix.gettimeofday () -. t0 in
    Persist.Wal.close w;
    [
      Printf.sprintf "group commit, batch %d" size;
      string_of_int ((n + size - 1) / size);
      St.Table.fmt_rate (float_of_int n /. dt);
    ]
  in
  St.Table.print
    ~header:[ "policy"; "fsyncs"; "records/s" ]
    (raw :: List.map group [ 1; 8; 64 ]);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Part 3: observability disabled-path overhead gate                   *)
(* ------------------------------------------------------------------ *)

(* Every obs instrumentation point costs one atomic load and a
   never-taken branch while tracing is off.  This gate measures that
   guard directly and fails the bench run if its cost rises above the
   measurement noise floor — the regression test for the "zero-cost when
   disarmed" contract. *)
module Obs = Doradd_obs

let run_obs_overhead_gate () =
  print_endline "=== Observability disabled-path overhead gate ===";
  assert (not (Obs.Trace.is_armed ()));
  let iters = 2_000_000 in
  let trials = 5 in
  let time f =
    (* best-of-trials estimates the true cost; worst-best spread on the
       baseline is the host's noise floor for this loop shape *)
    let best = ref infinity and worst = ref 0.0 in
    for _ = 1 to trials do
      let t0 = Unix.gettimeofday () in
      f ();
      let ns = (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters in
      if ns < !best then best := ns;
      if ns > !worst then worst := ns
    done;
    (!best, !worst)
  in
  let acc = ref 0 in
  let base () =
    for i = 1 to iters do
      acc := !acc + Sys.opaque_identity i
    done
  in
  let guarded () =
    for i = 1 to iters do
      if Atomic.get Obs.Trace.armed then Obs.Trace.record Obs.Trace.Commit ~seqno:i;
      acc := !acc + Sys.opaque_identity i
    done
  in
  let q = Q.Mpmc.create ~dummy:0 ~capacity:64 in
  let mpmc () =
    for i = 1 to iters do
      ignore (Q.Mpmc.try_push q i);
      ignore (Q.Mpmc.try_pop q)
    done
  in
  base ();
  guarded ();
  mpmc ();
  (* warmed up *)
  let base_best, base_worst = time base in
  let guard_best, _ = time guarded in
  let mpmc_best, _ = time mpmc in
  ignore (Sys.opaque_identity !acc);
  let delta = Float.max 0.0 (guard_best -. base_best) in
  let noise = base_worst -. base_best in
  (* generous by construction: the guard must hide under host noise, 5% of
     the cheapest instrumented operation, or an absolute 2 ns floor *)
  let budget = Float.max 2.0 (Float.max noise (0.05 *. mpmc_best)) in
  let ok = delta <= budget in
  St.Table.print
    ~header:[ "loop"; "ns/iter" ]
    [
      [ "baseline"; Printf.sprintf "%.2f" base_best ];
      [ "baseline + disarmed guard"; Printf.sprintf "%.2f" guard_best ];
      [ "mpmc push+pop (disarmed)"; Printf.sprintf "%.2f" mpmc_best ];
    ];
  Printf.printf
    "disarmed-guard delta %.2f ns <= budget %.2f ns (noise %.2f, 5%% of mpmc %.2f, floor 2.00): %s\n\n%!"
    delta budget noise (0.05 *. mpmc_best)
    (if ok then "PASS" else "FAIL");
  ok

(* ------------------------------------------------------------------ *)
(* Part 4: hot-path allocation gate                                    *)
(* ------------------------------------------------------------------ *)

(* DESIGN.md claims "no mid-run allocation on dispatcher path".  This gate
   holds the code to it: it drives the exact per-request work of runtime
   steady state — acquire a pooled node, link it through the Spawner,
   push/pop through the runnable set, run, complete, recycle — and fails
   the bench run if Gc.allocated_bytes rises above a small fixed budget
   per request.  Everything the service side owns (footprints, work
   closures) is preallocated, as the pipeline's ring entries are.

   The whole loop runs on one domain (dispatcher and worker roles
   interleaved) because Gc.allocated_bytes is per-domain; the hand-off
   through the sentinel-based queues is the same code the multi-domain
   runtime executes. *)

(* top-level helpers so the measured loops build no closures *)
let bump_row r = Core.Resource.update r succ

let run_alloc_gate () =
  print_endline "=== Hot-path allocation gate (steady-state KV dispatch) ===";
  assert (not (Obs.Trace.is_armed ()));
  let n_keys = 64 in
  let cells = Array.init n_keys (fun _ -> Core.Resource.create 0) in
  let rng = St.Rng.create 11 in
  let n_fps = 128 in
  (* power of two, for the masked index below *)
  let resolved =
    Array.init n_fps (fun _ -> Array.init 3 (fun _ -> cells.(St.Rng.int rng n_keys)))
  in
  let fps =
    Array.map
      (fun rs -> Core.Footprint.of_slots (Array.to_list (Array.map Core.Resource.slot rs)))
      resolved
  in
  let works = Array.map (fun rs () -> Array.iter bump_row rs) resolved in
  let rs = Core.Runnable_set.create ~workers:1 ~queue_capacity:256 in
  let pool = Core.Node.create_pool ~nodes:512 ~cells:2048 in
  let out = Core.Runnable_set.make_out rs in
  let on_ready node = Core.Runnable_set.push_worker rs ~worker:0 node in
  let window = 64 in
  let seqno = ref 0 in
  let draining = ref true in
  let drain () =
    draining := true;
    while !draining do
      if Core.Runnable_set.pop_into rs ~worker:0 out then begin
        let node = out.Q.Mpmc.value in
        match Core.Node.run node with
        | `Finished ->
          Core.Node.complete node ~on_ready;
          Core.Node.recycle node
        | `Yielded -> Core.Runnable_set.push_worker rs ~worker:0 node
        (* suspended nodes are owned by their resume closure; nothing on
           this gate's paths suspends, but the arm must exist *)
        | `Suspended -> ()
      end
      else draining := false
    done
  in
  let run_window () =
    for i = 0 to window - 1 do
      let j = (!seqno + i) land (n_fps - 1) in
      let node = Core.Node.acquire pool ~seqno:(!seqno + i) works.(j) in
      Core.Spawner.schedule rs node fps.(j)
    done;
    seqno := !seqno + window;
    drain ()
  in
  (* Same KV work dispatched through the effects handler (suspend-free):
     the fiber + handler + resume plumbing allocate by design, so this
     row carries its own loose budget.  What the 1-byte budget asserts is
     that plain dispatch above stayed at 0 B/op with the effects loop
     merely present in the runtime. *)
  let run_suspendable_window () =
    for i = 0 to window - 1 do
      let j = (!seqno + i) land (n_fps - 1) in
      let node_ref = ref Core.Node.dummy in
      let first () = Core.Effects.run ~rs ~node:!node_ref ~wrap:Fun.id works.(j) in
      let node = Core.Node.acquire_steps pool ~seqno:(!seqno + i) first in
      node_ref := node;
      Core.Spawner.schedule rs node fps.(j)
    done;
    seqno := !seqno + window;
    drain ()
  in
  let per_op_of name iters ops_per_iter f =
    (* warm-up converges the free lists (reader cells, under-provisioned
       pool growth) before measuring steady state *)
    for _ = 1 to 50 do
      f ()
    done;
    let a0 = Gc.allocated_bytes () in
    for _ = 1 to iters do
      f ()
    done;
    let a1 = Gc.allocated_bytes () in
    let per_op = (a1 -. a0) /. float_of_int (iters * ops_per_iter) in
    (name, per_op)
  in
  let dispatch = per_op_of "kv dispatch (schedule+run+complete+recycle)" 2_000 window run_window in
  let susp_dispatch =
    per_op_of "kv dispatch via effects handler (suspend-free)" 2_000 window run_suspendable_window
  in
  (* queue primitives, same budget: the sentinel representation must make
     every hand-off allocation-free *)
  let sq = Q.Spsc.create ~dummy:0 ~capacity:64 in
  let sout = Q.Spsc.make_out sq in
  let spsc =
    per_op_of "spsc push+pop_into" 100_000 1 (fun () ->
        ignore (Q.Spsc.try_push sq 1);
        ignore (Q.Spsc.pop_into sq sout))
  in
  let batch_in = Array.init 8 (fun i -> i) in
  let batch_out = Array.make 8 0 in
  let spsc_batch =
    per_op_of "spsc push_batch+pop_batch_into (8)" 20_000 8 (fun () ->
        ignore (Q.Spsc.push_batch sq batch_in ~len:8);
        ignore (Q.Spsc.pop_batch_into sq batch_out))
  in
  let mq = Q.Mpmc.create ~dummy:0 ~capacity:64 in
  let mout = Q.Mpmc.make_out mq in
  let mpmc =
    per_op_of "mpmc push+pop_into" 100_000 1 (fun () ->
        ignore (Q.Mpmc.try_push mq 1);
        ignore (Q.Mpmc.pop_into mq mout))
  in
  (* budget: a true zero-alloc path measures ~0.001 bytes/op (the float
     boxes of Gc.allocated_bytes itself); one boxed word per op would be
     >= 16.  1 byte/op separates the two by an order of magnitude each
     way. *)
  let budget = 1.0 in
  let rows = [ dispatch; spsc; spsc_batch; mpmc ] in
  (* the handler path allocates its fiber and closures; budget it
     separately so a regression (e.g. an extra box per step) still trips *)
  let susp_budget = 512.0 in
  St.Table.print
    ~header:[ "path"; "bytes/op" ]
    (List.map (fun (n, b) -> [ n; Printf.sprintf "%.4f" b ]) (rows @ [ susp_dispatch ]));
  let ok =
    List.for_all (fun (_, b) -> b <= budget) rows && snd susp_dispatch <= susp_budget
  in
  Printf.printf "allocation budget %.1f bytes/op (suspendable row %.0f): %s\n\n%!" budget
    susp_budget
    (if ok then "PASS" else "FAIL");
  ignore (Sys.opaque_identity cells);
  ok

(* ------------------------------------------------------------------ *)
(* Part 4b: idle/wake gate                                             *)
(* ------------------------------------------------------------------ *)

(* Idle dispatchers and workers must park (Parker), and a parked one must
   still wake for the next request.  Single requests ping-pong through a
   default 2-shard Sharded_runtime, alternating shards, with a sleep far
   past Parker.spin_budget before each, so every request wakes a parked
   shard dispatcher and worker: wake-to-run is schedule → body start.
   Idle CPU is process CPU over wall time while the runtime sits parked;
   the gate fails above 0.1 cores (a spinning runtime reads ~2). *)
let run_idle_wake_gate () =
  print_endline "=== Idle/wake gate (parked Sharded_runtime ping-pong) ===";
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let rt = Core.Sharded_runtime.create ~shards:2 () in
  (* one cell homed on each shard *)
  let rec homed shard =
    let c = Core.Resource.create 0 in
    if Core.Sharded_runtime.shard_of_slot rt (Core.Resource.slot c) = shard then c
    else homed shard
  in
  let cells = [| homed 0; homed 1 |] in
  let fps = Array.map (fun c -> Core.Footprint.of_slots [ Core.Resource.slot c ]) cells in
  let started = Atomic.make 0.0 in
  let samples = 200 in
  let wake_us =
    Array.init samples (fun i ->
        Thread.delay 0.002;
        Atomic.set started 0.0;
        let t0 = Unix.gettimeofday () in
        Core.Sharded_runtime.schedule rt fps.(i land 1) (fun () ->
            Atomic.set started (Unix.gettimeofday ()));
        while Atomic.get started = 0.0 do
          Thread.delay 20e-6
        done;
        (Atomic.get started -. t0) *. 1e6)
  in
  Thread.delay 0.05;
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  Thread.delay 0.5;
  let idle_cores = (cpu () -. c0) /. (Unix.gettimeofday () -. w0) in
  Core.Sharded_runtime.drain rt;
  Core.Sharded_runtime.shutdown rt;
  Array.sort compare wake_us;
  let pct q = wake_us.(min (samples - 1) (int_of_float (q *. float_of_int samples))) in
  let budget = 0.1 in
  let ok = idle_cores <= budget in
  St.Table.print
    ~header:[ "measure"; "value" ]
    [
      [ "wake-to-run p50 (us)"; Printf.sprintf "%.1f" (pct 0.5) ];
      [ "wake-to-run p99 (us)"; Printf.sprintf "%.1f" (pct 0.99) ];
      [ "idle cpu (cores)"; Printf.sprintf "%.3f" idle_cores ];
    ];
  Printf.printf "idle cpu %.3f cores <= budget %.2f: %s\n\n%!" idle_cores budget
    (if ok then "PASS" else "FAIL");
  ok

let run_gates () =
  let obs_ok = run_obs_overhead_gate () in
  let alloc_ok = run_alloc_gate () in
  let idle_ok = run_idle_wake_gate () in
  if not (obs_ok && alloc_ok && idle_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Part 5: sharded-scaling sweep (simulated, EXPERIMENTS.md table)     *)
(* ------------------------------------------------------------------ *)

module B = Doradd_baselines
module W = Doradd_workload

(* Peak TPCC-NP throughput of the sharded model over shards × cross-shard
   ratio.  Per-shard resources are constant (workers_per_shard, one
   dispatcher pipeline each), so the sweep measures scale-out: how far the
   sequencer-merge design lifts the serial-dispatcher ceiling, and what
   cross-shard synchronisation costs. *)
let sharded_grid () =
  let warehouses = 64 and workers_per_shard = 5 and n = 20_000 in
  let partition k = W.Tpcc.partition_key ~warehouses k in
  List.concat_map
    (fun cross ->
      let txns = W.Tpcc.generate ~remote_pct:cross ~warehouses (St.Rng.create 42) ~n in
      let log = W.Tpcc.to_sim ~split:false txns in
      List.map
        (fun shards ->
          let cfg =
            B.M_sharded.config ~shards ~workers_per_shard ~partition ~keys_per_req:0 ()
          in
          (cross, shards, B.M_sharded.max_throughput cfg ~log))
        [ 1; 2; 4; 8 ])
    [ 0; 10; 50 ]

let run_sharded ~json =
  let grid = sharded_grid () in
  if json then begin
    (* machine-readable, one object per config: the CI scaling artifact *)
    print_string "[\n";
    List.iteri
      (fun i (cross, shards, tput) ->
        let base =
          List.find_map
            (fun (c, s, t) -> if c = cross && s = 1 then Some t else None)
            grid
        in
        let speedup = match base with Some b when b > 0.0 -> tput /. b | _ -> 1.0 in
        Printf.printf
          "  {\"cross_pct\": %d, \"shards\": %d, \"throughput_rps\": %.0f, \"speedup\": %.2f}%s\n"
          cross shards tput speedup
          (if i = List.length grid - 1 then "" else ","))
      grid;
    print_string "]\n"
  end
  else begin
    print_endline "=== Sharded scaling (simulated TPCC-NP, 64 warehouses) ===";
    let rows =
      List.map
        (fun (cross, shards, tput) ->
          let base =
            List.find_map
              (fun (c, s, t) -> if c = cross && s = 1 then Some t else None)
              grid
          in
          let speedup = match base with Some b when b > 0.0 -> tput /. b | _ -> 1.0 in
          [
            Printf.sprintf "%d%%" cross;
            string_of_int shards;
            St.Table.fmt_rate tput;
            Printf.sprintf "%.2fx" speedup;
          ])
        grid
    in
    St.Table.print ~header:[ "cross-shard"; "shards"; "throughput"; "speedup" ] rows;
    print_newline ()
  end

(* ------------------------------------------------------------------ *)
(* Part 6: TCP front end over loopback (real sockets, one process)     *)
(* ------------------------------------------------------------------ *)

module Net = Doradd_net

(* Server and open-loop clients in one process over 127.0.0.1: the
   end-to-end cost of the wire path (framing, reassembly, sequencing,
   scheduling, reply routing) on this host.  The unpaced row probes
   saturation throughput; the paced webserver row holds an open-loop
   arrival rate under capacity so the p99/p999 tail reflects the bimodal
   service-time mix, not a saturated queue. *)
let net_grid () =
  let one ~name ~workload ~rate ~requests =
    let server =
      Net.Server.start { Net.Server.default_config with shards = 2 } (Net.Backend.kv ())
    in
    let report =
      Fun.protect
        ~finally:(fun () -> Net.Server.stop server)
        (fun () ->
          Net.Loadgen.run
            {
              Net.Loadgen.default_cfg with
              port = Net.Server.port server;
              connections = 4;
              rate;
              requests;
              workload;
            })
    in
    (name, rate, report)
  in
  [
    one ~name:"kv unpaced" ~workload:Net.Loadgen.kv_default ~rate:0.0 ~requests:20_000;
    one ~name:"webserver bimodal, paced" ~workload:Net.Loadgen.webserver ~rate:1_500.0
      ~requests:3_000;
  ]

let run_net ~json =
  let grid = net_grid () in
  if json then begin
    print_string "[\n";
    List.iteri
      (fun i (name, rate, (r : Net.Loadgen.report)) ->
        Printf.printf
          "  {\"workload\": %S, \"rate_rps\": %.0f, \"requests\": %d, \
           \"throughput_rps\": %.0f, \"p50_ns\": %d, \"p99_ns\": %d, \"p999_ns\": %d, \
           \"max_ns\": %d}%s\n"
          name rate r.Net.Loadgen.received r.Net.Loadgen.throughput
          r.Net.Loadgen.p50_ns r.Net.Loadgen.p99_ns r.Net.Loadgen.p999_ns
          r.Net.Loadgen.max_ns
          (if i = List.length grid - 1 then "" else ","))
      grid;
    print_string "]\n"
  end
  else begin
    print_endline "=== TCP front end (loopback, 4 open-loop connections) ===";
    let rows =
      List.map
        (fun (name, rate, (r : Net.Loadgen.report)) ->
          [
            name;
            (if rate > 0.0 then Printf.sprintf "%.0f/s" rate else "unpaced");
            St.Table.fmt_rate r.Net.Loadgen.throughput;
            St.Table.fmt_ns r.Net.Loadgen.p50_ns;
            St.Table.fmt_ns r.Net.Loadgen.p99_ns;
            St.Table.fmt_ns r.Net.Loadgen.p999_ns;
          ])
        grid
    in
    St.Table.print
      ~header:[ "workload"; "arrival rate"; "throughput"; "p50"; "p99"; "p999" ]
      rows;
    print_newline ()
  end

let () =
  (* `bench/main.exe micro` skips the (slow) figure regeneration and runs
     only the host microbenchmarks; `bench/main.exe gates` runs only the
     two regression gates (disarmed-guard overhead + hot-path allocation)
     — the fast PR-blocking CI step. *)
  if Array.exists (( = ) "gates") Sys.argv then run_gates ()
  else if Array.exists (( = ) "net-json") Sys.argv then run_net ~json:true
  else if Array.exists (( = ) "net") Sys.argv then run_net ~json:false
  else if Array.exists (( = ) "sharded-json") Sys.argv then run_sharded ~json:true
  else if Array.exists (( = ) "sharded") Sys.argv then run_sharded ~json:false
  else begin
    if Array.exists (( = ) "micro") Sys.argv then begin
      run_real_runtime_bench ();
      run_wal_bench ();
      run_microbenches ()
    end
    else begin
      let mode = mode_of_argv () in
      run_experiments mode;
      run_real_runtime_bench ();
      run_wal_bench ();
      run_microbenches ()
    end;
    run_gates ()
  end
