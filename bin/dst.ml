(* doradd-dst: deterministic-simulation test driver.

   FoundationDB-style testing for the DORADD runtime: every run derives
   from one integer seed — which case to fuzz, which legal schedule the
   runnable set takes (scan-order rotations, spurious queue full/empty,
   worker stalls), and which harmless timing faults fire (dropped
   prefetches, straggler requests, idle gaps that park every consumer).
   The oracle is serial equivalence: the fuzzed parallel run must match
   serial execution of the same log bit for bit, plus application
   invariants, plus — on a sample of seeds — the footprint sanitizer and
   happens-before checker.  Each seed also drives a simulation-level
   scheduler model with exact work-conservation and per-key
   serialisation oracles.

   A failing seed is shrunk (shortest failing log prefix, fewest
   perturbation classes) and reported as a paste-ready --replay line.
   --self-test seeds known bugs — a work-conservation violation (static
   assignment), dropped DAG edges, a dropped request, an undeclared
   access — and fails unless every one is caught. *)

module Dst = Doradd_dst

let pp_failure (r : Dst.Runner.seed_report) =
  Printf.eprintf "doradd-dst: seed %d FAILED (case %s)\n  plan: %s\n" r.seed r.case
    (Dst.Plan.to_string r.plan);
  List.iter (fun f -> Printf.eprintf "  oracle: %s\n" (Dst.Oracle.to_string f)) r.failures;
  if not (Dst.Sim_dst.ok r.sim) then
    Printf.eprintf "  sim oracle: %s\n" (Dst.Sim_dst.to_string r.sim);
  (match r.repro with
  | Some repro -> Printf.eprintf "  repro: %s\n" repro.command
  | None -> ());
  match r.trace_file with
  | Some path -> Printf.eprintf "  trace: %s (chrome://tracing / Perfetto)\n" path
  | None -> ()

let run_self_test () =
  match Dst.Runner.self_test () with
  | Ok () ->
    Printf.eprintf "self-test: every seeded bug caught, clean twins pass => PASS\n";
    `Ok ()
  | Error missed ->
    List.iter (fun m -> Printf.eprintf "self-test: %s\n" m) missed;
    `Error (false, "self-test failed: oracle stack missed a seeded bug")

open Cmdliner

let seeds_arg =
  Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to fuzz.")

let first_seed_arg =
  Arg.(value & opt int 1 & info [ "first-seed" ] ~docv:"SEED" ~doc:"First seed of the range.")

let replay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "replay" ] ~docv:"SEED" ~doc:"Replay one seed deterministically instead of fuzzing.")

let case_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "case" ] ~docv:"CASE"
        ~doc:"Pin the workload case (default: the seed picks one). One of: counters, kv, kv-rw, \
              ycsb, ledger, tpcc, yield, deep-chain, replication, crash-recovery, failover, \
              cross-shard, suspend.")

let n_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "n" ] ~docv:"REQS" ~doc:"Log length (default: the case's own).")

let disable_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "disable" ] ~docv:"CLASS,..."
        ~doc:"Perturbation classes to disable (rotate, stall, qfault, prefetch, straggler, park) — \
              what a shrunk repro line passes.")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failing seeds without minimising them.")

let sanitize_every_arg =
  Arg.(
    value & opt int 10
    & info [ "sanitize-every" ] ~docv:"K"
        ~doc:"Run every K-th seed under the sanitizer/happens-before oracle too (0 disables).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable JSON report on stdout.")

let self_test_arg =
  Arg.(
    value & flag
    & info [ "self-test" ]
        ~doc:"Seed known bugs (work-conservation, dropped edges, dropped request, undeclared \
              access) and require the oracle stack to catch every one.")

let quiet_arg = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-seed progress output.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"With --replay: arm the span tracer and write a Chrome trace_event JSON \
              (open in chrome://tracing or Perfetto) for the replayed run.")

let trace_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:"Fuzz mode: write a Chrome trace_event JSON (DIR/seed-N.json) for every \
              failing seed, re-run under its exact plan with the tracer armed.")

let validate_classes disabled =
  List.filter (fun c -> not (List.mem c Dst.Plan.class_names)) disabled

let main seeds first_seed replay case n disabled no_shrink sanitize_every json self_test quiet
    trace trace_dir =
  match validate_classes disabled with
  | _ :: _ as unknown ->
    `Error (false, "unknown perturbation class(es): " ^ String.concat ", " unknown)
  | [] -> (
    if self_test then run_self_test ()
    else
      match replay with
      | Some seed -> (
        match Dst.Runner.replay ?case ?n ~disabled ?trace_path:trace ~seed () with
        | r when Dst.Runner.seed_ok r ->
          Printf.eprintf "doradd-dst: seed %d replays clean (case %s)\n" seed r.case;
          (match r.trace_file with
          | Some path -> Printf.eprintf "doradd-dst: trace written to %s\n" path
          | None -> ());
          `Ok ()
        | r ->
          pp_failure r;
          `Error (false, Printf.sprintf "seed %d fails deterministically" seed)
        | exception Invalid_argument m -> `Error (false, m))
      | None ->
        let progress (r : Dst.Runner.seed_report) =
          if not quiet then begin
            if Dst.Runner.seed_ok r then
              Printf.eprintf "doradd-dst: seed %d ok (case %s, %s)\n%!" r.seed r.case
                (Dst.Plan.to_string r.plan)
            else pp_failure r
          end
        in
        let report =
          Dst.Runner.run
            ?cases:(Option.map (fun c -> [ c ]) (Option.bind case Dst.Cases.find))
            ?n ~shrink:(not no_shrink) ~sanitize_every ~progress ?trace_dir ~seeds
            ~first_seed ()
        in
        if json then print_endline (Dst.Runner.to_json report);
        let failed = List.length report.failed in
        Printf.eprintf "doradd-dst: %d/%d seeds passed\n" (seeds - failed) seeds;
        if failed = 0 then `Ok ()
        else `Error (false, Printf.sprintf "%d seed(s) failed the oracle stack" failed))

let cmd =
  let doc = "Deterministic-simulation testing for the DORADD runtime" in
  Cmd.v
    (Cmd.info "doradd-dst" ~version:"1.0.0" ~doc)
    Term.(
      ret
        (const main $ seeds_arg $ first_seed_arg $ replay_arg $ case_arg $ n_arg $ disable_arg
        $ no_shrink_arg $ sanitize_every_arg $ json_arg $ self_test_arg $ quiet_arg
        $ trace_arg $ trace_dir_arg))

let () = exit (Cmd.eval cmd)
