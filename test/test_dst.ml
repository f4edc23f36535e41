(* Tests for the deterministic-simulation harness itself: seeded decision
   streams, plan derivation, the sim-level scheduler oracles, the
   serial-equivalence oracle, shrinking, and the end-to-end fuzz loop
   (including the self-test canaries CI gates on). *)

module Dst = Doradd_dst
module D = Dst.Decision
module P = Dst.Plan

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* ------------------------------------------------------------------ *)
(* Decision streams                                                    *)
(* ------------------------------------------------------------------ *)

let test_decision_determinism () =
  (* same (seed, name): same sequence, draw for draw *)
  let draw seed =
    let s = D.shared (D.create ~seed) "x" in
    List.init 64 (fun _ -> D.pick s ~n:1000)
  in
  checkb "equal seeds, equal streams" true (draw 42 = draw 42);
  checkb "different seeds diverge" true (draw 42 <> draw 43);
  (* different names on the same seed are independent streams *)
  let dec = D.create ~seed:7 in
  let a = D.shared dec "a" and b = D.shared dec "b" in
  checkb "named streams differ" true
    (List.init 32 (fun _ -> D.pick a ~n:1_000_000)
    <> List.init 32 (fun _ -> D.pick b ~n:1_000_000))

let test_decision_flip_extremes () =
  let s = D.shared (D.create ~seed:1) "flip" in
  for _ = 1 to 100 do
    checkb "p=0 never fires" false (D.flip s ~per_64k:0)
  done;
  checki "p=0 consumes no draws" 0 (D.taken s);
  for _ = 1 to 100 do
    checkb "p=1 always fires" true (D.flip s ~per_64k:65536)
  done

let test_decision_flip_rate () =
  let s = D.shared (D.create ~seed:2) "rate" in
  let fired = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if D.flip s ~per_64k:16_384 (* 25% *) then incr fired
  done;
  let rate = float_of_int !fired /. float_of_int trials in
  checkb "25% flip lands near 25%" true (rate > 0.22 && rate < 0.28)

(* ------------------------------------------------------------------ *)
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

let test_plan_derivation () =
  let p = P.derive ~seed:11 in
  checkb "same seed, same plan" true (p = P.derive ~seed:11);
  checkb "workers in range" true (p.P.workers >= 1 && p.P.workers <= 3);
  let q = P.quiet ~seed:11 in
  checkb "quiet plan has no active classes" true (P.active q = []);
  checki "quiet keeps structure" p.P.workers q.P.workers;
  (* disabling every class = quiet *)
  checkb "disable_all reaches quiet" true (P.disable_all p P.class_names = q);
  Alcotest.check_raises "unknown class rejected"
    (Invalid_argument "Plan.disable: unknown class warp") (fun () ->
      ignore (P.disable p "warp"))

let test_plans_vary_across_seeds () =
  (* the deriver must actually explore the space: over 64 seeds expect
     every worker count and at least one seed per perturbation class *)
  let plans = List.init 64 (fun s -> P.derive ~seed:s) in
  List.iter
    (fun w -> checkb "worker count explored" true (List.exists (fun p -> p.P.workers = w) plans))
    [ 1; 2; 3 ];
  List.iter
    (fun cls ->
      checkb (cls ^ " explored") true (List.exists (fun p -> List.mem cls (P.active p)) plans))
    P.class_names

(* ------------------------------------------------------------------ *)
(* Sim-level DST                                                       *)
(* ------------------------------------------------------------------ *)

let test_sim_deterministic () =
  let a = Dst.Sim_dst.run ~seed:5 ~n:128 ~workers:3 ~bug:Dst.Sim_dst.No_bug in
  let b = Dst.Sim_dst.run ~seed:5 ~n:128 ~workers:3 ~bug:Dst.Sim_dst.No_bug in
  checkb "bit-identical outcomes" true (a = b);
  checkb "clean run passes oracles" true (Dst.Sim_dst.ok a);
  checki "all requests complete" a.Dst.Sim_dst.total a.Dst.Sim_dst.completed

let test_sim_seeds_all_clean () =
  for seed = 1 to 40 do
    let o = Dst.Sim_dst.run ~seed ~n:96 ~workers:(1 + (seed mod 3)) ~bug:Dst.Sim_dst.No_bug in
    if not (Dst.Sim_dst.ok o) then
      Alcotest.failf "sim seed %d flagged a correct scheduler: %s" seed (Dst.Sim_dst.to_string o)
  done

let test_sim_catches_static_assignment () =
  let o = Dst.Sim_dst.run ~seed:1 ~n:96 ~workers:3 ~bug:Dst.Sim_dst.Static_assignment in
  checkb "work-conservation oracle fires" true (o.Dst.Sim_dst.wc_violations > 0);
  (* static assignment still respects edges: ordering stays clean *)
  checki "no order violations" 0 o.Dst.Sim_dst.order_violations;
  (* and pinning must cost makespan against the work-conserving run *)
  let dyn = Dst.Sim_dst.run ~seed:1 ~n:96 ~workers:3 ~bug:Dst.Sim_dst.No_bug in
  checkb "pinning never beats stealing" true
    (o.Dst.Sim_dst.makespan >= dyn.Dst.Sim_dst.makespan)

let test_sim_catches_skip_edges () =
  let caught = ref 0 in
  for seed = 1 to 10 do
    let o = Dst.Sim_dst.run ~seed ~n:96 ~workers:3 ~bug:Dst.Sim_dst.Skip_edges in
    if o.Dst.Sim_dst.order_violations > 0 || o.Dst.Sim_dst.overlap_violations > 0 then incr caught
  done;
  (* dropped edges must be visible on (at least) the vast majority of seeds *)
  checkb "per-key oracles catch dropped edges" true (!caught >= 8)

(* ------------------------------------------------------------------ *)
(* Serial-equivalence oracle                                           *)
(* ------------------------------------------------------------------ *)

let rr digest results = { Dst.Cases.digest; results; invariant = None }

let test_oracle_equal_runs_pass () =
  checkb "identical runs pass" true
    (Dst.Oracle.compare_runs ~serial:(rr 1 [| 1; 2 |]) ~parallel:(rr 1 [| 1; 2 |]) = [])

let test_oracle_detects_divergence () =
  let has pred fs = List.exists pred fs in
  checkb "state mismatch" true
    (has
       (function Dst.Oracle.State_mismatch _ -> true | _ -> false)
       (Dst.Oracle.compare_runs ~serial:(rr 1 [||]) ~parallel:(rr 2 [||])));
  checkb "result mismatch with index" true
    (has
       (function Dst.Oracle.Result_mismatch { index = 1; _ } -> true | _ -> false)
       (Dst.Oracle.compare_runs ~serial:(rr 1 [| 5; 6 |]) ~parallel:(rr 1 [| 5; 7 |])));
  checkb "length mismatch" true
    (has
       (function Dst.Oracle.Result_length _ -> true | _ -> false)
       (Dst.Oracle.compare_runs ~serial:(rr 1 [| 5 |]) ~parallel:(rr 1 [||])));
  checkb "invariant failure surfaces" true
    (has
       (function Dst.Oracle.Invariant { run = "parallel"; _ } -> true | _ -> false)
       (Dst.Oracle.compare_runs ~serial:(rr 1 [||])
          ~parallel:{ Dst.Cases.digest = 1; results = [||]; invariant = Some "broke" }))

(* ------------------------------------------------------------------ *)
(* Cases: serial reference is stable; parallel unfuzzed matches serial *)
(* ------------------------------------------------------------------ *)

let test_cases_serial_stable () =
  List.iter
    (fun (c : Dst.Cases.t) ->
      let a = c.serial ~seed:3 ~n:40 and b = c.serial ~seed:3 ~n:40 in
      checkb (c.name ^ ": serial deterministic") true (a = b);
      let d = c.serial ~seed:4 ~n:40 in
      checkb (c.name ^ ": seed matters") true (a.Dst.Cases.digest <> d.Dst.Cases.digest))
    Dst.Cases.all

let test_cases_parallel_unfuzzed_equivalent () =
  List.iter
    (fun (c : Dst.Cases.t) ->
      let serial = c.serial ~seed:9 ~n:48 in
      let parallel, outcome =
        c.parallel ~seed:9 ~n:48 ~workers:2 ~queue_capacity:16 ~fuzz:None ~sanitize:false
      in
      checkb (c.name ^ ": no sanitizer outcome unless asked") true (outcome = None);
      match Dst.Oracle.compare_runs ~serial ~parallel with
      | [] -> ()
      | fs ->
        Alcotest.failf "%s: unfuzzed parallel diverged: %s" c.name
          (String.concat "; " (List.map Dst.Oracle.to_string fs)))
    Dst.Cases.all

(* The park class alone: every case's consumers must sleep in the idle
   gaps and wake for each burst, and the run must still equal serial.
   Each gap parks at least one consumer; workers parked before the first
   request are too few to reach that count on their own. *)
let test_cases_park_class () =
  let sleeps = Doradd_obs.Counters.counter "parker.sleep" in
  let n = 48 and every = 4 in
  let plan = { (P.quiet ~seed:5) with P.workers = 2; park_every = every; park_gap_us = 300 } in
  List.iter
    (fun (c : Dst.Cases.t) ->
      let serial = c.serial ~seed:5 ~n in
      let before = Doradd_obs.Counters.value sleeps in
      Doradd_obs.Trace.arm ();
      let parallel, _ =
        Fun.protect ~finally:Doradd_obs.Trace.disarm (fun () ->
            Dst.Harness.with_plan ~seed:5 plan (fun fuzz ->
                c.parallel ~seed:5 ~n ~workers:2 ~queue_capacity:16 ~fuzz ~sanitize:false))
      in
      Doradd_obs.Trace.clear ();
      let slept = Doradd_obs.Counters.value sleeps - before in
      if slept < n / every then
        Alcotest.failf "%s: %d consumer sleeps over %d idle gaps" c.name slept (n / every);
      match Dst.Oracle.compare_runs ~serial ~parallel with
      | [] -> ()
      | fs ->
        Alcotest.failf "%s: parked parallel diverged: %s" c.name
          (String.concat "; " (List.map Dst.Oracle.to_string fs)))
    Dst.Cases.all

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_minimizes () =
  (* synthetic failure: needs >= 17 requests and the qfault class armed *)
  let calls = ref 0 in
  let fails ~n ~disabled =
    incr calls;
    n >= 17 && not (List.mem "qfault" disabled)
  in
  let r = Dst.Shrink.minimize ~case:"kv" ~seed:123 ~n:128 ~fails () in
  checkb "log halved to the threshold" true (r.Dst.Shrink.n = 32);
  checkb "needed class kept armed" true (not (List.mem "qfault" r.Dst.Shrink.disabled));
  List.iter
    (fun cls ->
      if cls <> "qfault" then
        checkb (cls ^ " proved unnecessary") true (List.mem cls r.Dst.Shrink.disabled))
    P.class_names;
  checkb "repro line is paste-ready" true
    (r.Dst.Shrink.command
    = "dune exec bin/dst.exe -- --replay 123 --case kv -n 32 --disable \
       rotate,stall,prefetch,straggler,park");
  checkb "budget respected" true (!calls <= 16)

let test_shrink_budget_caps_reruns () =
  let calls = ref 0 in
  let fails ~n:_ ~disabled:_ =
    incr calls;
    true
  in
  let r = Dst.Shrink.minimize ~case:"kv" ~seed:1 ~n:1024 ~fails ~budget:5 () in
  checki "exactly budget reruns" 5 !calls;
  checkb "still produces a repro" true (r.Dst.Shrink.n >= 1)

(* ------------------------------------------------------------------ *)
(* Runner: end-to-end fuzz loop, replay, self-test                     *)
(* ------------------------------------------------------------------ *)

let test_runner_seeds_pass () =
  let report = Dst.Runner.run ~shrink:false ~sanitize_every:3 ~seeds:6 ~first_seed:100 () in
  checkb "fuzzed seeds pass the oracle stack" true (Dst.Runner.ok report);
  checki "all seeds ran" 6 report.Dst.Runner.seeds

let test_runner_replay_deterministic () =
  let a = Dst.Runner.replay ~seed:57 () in
  let b = Dst.Runner.replay ~seed:57 () in
  checkb "replay reproduces the run" true
    (a.Dst.Runner.case = b.Dst.Runner.case
    && a.Dst.Runner.plan = b.Dst.Runner.plan
    && a.Dst.Runner.failures = b.Dst.Runner.failures
    && a.Dst.Runner.sim = b.Dst.Runner.sim);
  checkb "seed 57 is clean" true (Dst.Runner.seed_ok a);
  (* the knobs a shrunk repro passes: pinned case, log length, disabled
     classes — must replay without error *)
  let pinned = Dst.Runner.replay ~case:"ledger" ~n:32 ~disabled:[ "rotate"; "qfault" ] ~seed:57 () in
  checkb "pinned replay clean" true (Dst.Runner.seed_ok pinned);
  Alcotest.check Alcotest.string "case pinned" "ledger" pinned.Dst.Runner.case

let test_runner_self_test () =
  match Dst.Runner.self_test () with
  | Ok () -> ()
  | Error missed -> Alcotest.failf "oracle canaries escaped: %s" (String.concat "; " missed)

let test_runner_json_shape () =
  let report = Dst.Runner.run ~shrink:false ~sanitize_every:0 ~seeds:2 ~first_seed:1 () in
  let json = Dst.Runner.to_json report in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  checkb "seed count serialised" true (contains json "\"seeds\":2");
  checkb "passed count serialised" true (contains json "\"passed\":2");
  checkb "failed list present" true (contains json "\"failed\":[")

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "doradd dst"
    [
      ( "decision",
        [
          quick "seeded streams deterministic" test_decision_determinism;
          quick "flip extremes" test_decision_flip_extremes;
          quick "flip rate" test_decision_flip_rate;
        ] );
      ( "plan",
        [
          quick "derivation and disabling" test_plan_derivation;
          quick "seeds explore the space" test_plans_vary_across_seeds;
        ] );
      ( "sim",
        [
          quick "deterministic and clean" test_sim_deterministic;
          quick "40 seeds clean" test_sim_seeds_all_clean;
          quick "catches static assignment" test_sim_catches_static_assignment;
          quick "catches dropped edges" test_sim_catches_skip_edges;
        ] );
      ( "oracle",
        [
          quick "equal runs pass" test_oracle_equal_runs_pass;
          quick "divergence detected" test_oracle_detects_divergence;
        ] );
      ( "cases",
        [
          slow "serial reference stable" test_cases_serial_stable;
          slow "unfuzzed parallel equivalent" test_cases_parallel_unfuzzed_equivalent;
          slow "park class parks every case" test_cases_park_class;
        ] );
      ( "shrink",
        [
          quick "minimizes log and classes" test_shrink_minimizes;
          quick "budget caps reruns" test_shrink_budget_caps_reruns;
        ] );
      ( "runner",
        [
          slow "fuzzed seeds pass" test_runner_seeds_pass;
          slow "replay deterministic" test_runner_replay_deterministic;
          slow "self-test canaries" test_runner_self_test;
          quick "json report shape" test_runner_json_shape;
        ] );
    ]
