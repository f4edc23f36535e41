module Core = Doradd_core
module Db = Doradd_db
module Rng = Doradd_stats.Rng
module Ycsb = Doradd_workload.Ycsb
module Sanitize = Doradd_analysis.Sanitize

type run_result = { digest : int; results : int array; invariant : string option }

type t = {
  name : string;
  default_n : int;
  serial : seed:int -> n:int -> run_result;
  parallel :
    seed:int ->
    n:int ->
    workers:int ->
    queue_capacity:int ->
    fuzz:Core.Runtime.fuzz option ->
    sanitize:bool ->
    run_result * Sanitize.outcome option;
}

(* Bracket only the execution with the sanitizer (setup and digests are
   legitimately outside any request — see Sanitize's doc). *)
let maybe_sanitize ~sanitize run =
  if sanitize then begin
    let (), outcome = Sanitize.instrumented run in
    Some outcome
  end
  else begin
    run ();
    None
  end

(* ---- counters: multi-cell read-modify-write ------------------------ *)

let counters_log ~seed ~n ~n_cells =
  let rng = Rng.create (seed lxor 0x00c0_4973) in
  Array.init n (fun id ->
      (id, Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n_cells)))

let counters_digest cells =
  Array.fold_left (fun acc c -> (acc * 31) + Core.Resource.peek c) 17 cells

let counters =
  let n_cells = 48 in
  let footprint cells (_, ks) =
    Core.Footprint.of_slots
      (Array.to_list (Array.map (fun k -> Core.Resource.slot cells.(k)) ks))
  in
  let execute cells (id, ks) =
    Harness.straggle ();
    Array.iter (fun k -> Core.Resource.update cells.(k) (fun v -> (v * 31) + id)) ks
  in
  let serial ~seed ~n =
    let log = counters_log ~seed ~n ~n_cells in
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    Core.Runtime.run_sequential (execute cells) log;
    { digest = counters_digest cells; results = [||]; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let log = counters_log ~seed ~n ~n_cells in
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    let outcome =
      maybe_sanitize ~sanitize (fun () ->
          Core.Runtime.run_log ~workers ~queue_capacity ?fuzz (footprint cells)
            (execute cells) log)
    in
    ({ digest = counters_digest cells; results = [||]; invariant = None }, outcome)
  in
  { name = "counters"; default_n = 160; serial; parallel }

(* ---- kv family: YCSB-shaped multi-key transactions ----------------- *)

let kv_txns ~seed ~n ~n_keys ~ops ~contention =
  (* a compressed YCSB: small keyspace plus a genuinely hot tail so the
     DAG has real dependency chains even at DST-sized logs.  [ops] must
     be at least the contention level's hot keys per txn (7 for high). *)
  let cfg = Ycsb.config ~n_keys ~ops_per_txn:ops ~hot_count:8 ~hot_stride:(n_keys / 8) contention in
  let raw = Ycsb.generate cfg (Rng.create (seed lxor 0x0023_8b71)) ~n in
  Array.map
    (fun (t : Ycsb.txn) ->
      {
        Db.Kv.id = t.id;
        ops =
          Array.map
            (fun (o : Ycsb.op) ->
              { Db.Kv.key = o.key; kind = (if o.is_write then Db.Kv.Update else Db.Kv.Read) })
            t.ops;
      })
    raw

let kv_case ~name ~rw ~ops ~contention =
  let n_keys = 256 in
  let all_keys = Array.init n_keys Fun.id in
  let store () =
    let s = Db.Store.create () in
    Db.Store.populate s ~n:n_keys;
    s
  in
  let serial ~seed ~n =
    let txns = kv_txns ~seed ~n ~n_keys ~ops ~contention in
    let s = store () in
    let results = Db.Kv.run_sequential s txns in
    { digest = Db.Kv.state_digest s ~keys:all_keys; results; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let txns = kv_txns ~seed ~n ~n_keys ~ops ~contention in
    let s = store () in
    let results = Array.make n 0 in
    let outcome =
      maybe_sanitize ~sanitize (fun () ->
          Core.Runtime.run_log ~workers ~queue_capacity ?fuzz
            (Db.Kv.footprint ~rw s)
            (fun txn ->
              Harness.straggle ();
              Db.Kv.execute s ~results txn)
            txns)
    in
    ({ digest = Db.Kv.state_digest s ~keys:all_keys; results; invariant = None }, outcome)
  in
  { name; default_n = 128; serial; parallel }

let kv = kv_case ~name:"kv" ~rw:false ~ops:6 ~contention:Ycsb.Mod_contention

let kv_rw =
  (* No_contention is the only mix with actual reads (4r/2w at 6 ops), so
     this is the case that exercises shared-mode declarations under fuzz *)
  kv_case ~name:"kv-rw" ~rw:true ~ops:6 ~contention:Ycsb.No_contention

let ycsb =
  (* high contention draws 7 hot keys per txn, so it needs ≥ 7 ops *)
  kv_case ~name:"ycsb" ~rw:false ~ops:8 ~contention:Ycsb.High_contention

(* ---- ledger: invariant-carrying application ------------------------ *)

let ledger =
  let make () = Db.Ledger.create { Db.Ledger.accounts = 48; pools = 2 } in
  let invariant l =
    match Db.Ledger.check_invariants l with Ok () -> None | Error m -> Some m
  in
  let serial ~seed ~n =
    let l = make () in
    let txns = Db.Ledger.generate l (Rng.create (seed lxor 0x004c_19d3)) ~n in
    Db.Ledger.run_sequential l txns;
    { digest = Db.Ledger.digest l; results = [||]; invariant = invariant l }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let l = make () in
    let txns = Db.Ledger.generate l (Rng.create (seed lxor 0x004c_19d3)) ~n in
    let outcome =
      maybe_sanitize ~sanitize (fun () ->
          Core.Runtime.run_log ~workers ~queue_capacity ?fuzz (Db.Ledger.footprint l)
            (fun txn ->
              Harness.straggle ();
              Db.Ledger.execute l txn)
            txns)
    in
    ({ digest = Db.Ledger.digest l; results = [||]; invariant = invariant l }, outcome)
  in
  { name = "ledger"; default_n = 160; serial; parallel }

(* ---- tpcc: consistency-checked application ------------------------- *)

let tpcc =
  let cfg = { Db.Tpcc_db.warehouses = 1; customers_per_district = 24; items = 64 } in
  let counts txns =
    Array.fold_left
      (fun (p, o) -> function Db.Tpcc_db.Payment _ -> (p + 1, o) | New_order _ -> (p, o + 1))
      (0, 0) txns
  in
  let invariant db txns =
    let expected_payments, expected_orders = counts txns in
    match Db.Tpcc_db.check_consistency db ~expected_payments ~expected_orders with
    | Ok () -> None
    | Error m -> Some m
  in
  let serial ~seed ~n =
    let db = Db.Tpcc_db.create cfg in
    let txns = Db.Tpcc_db.generate db (Rng.create (seed lxor 0x0079_3cc5)) ~n in
    Db.Tpcc_db.run_sequential db txns;
    { digest = Db.Tpcc_db.digest db; results = [||]; invariant = invariant db txns }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let db = Db.Tpcc_db.create cfg in
    let txns = Db.Tpcc_db.generate db (Rng.create (seed lxor 0x0079_3cc5)) ~n in
    let outcome =
      maybe_sanitize ~sanitize (fun () ->
          Core.Runtime.run_log ~workers ~queue_capacity ?fuzz
            (Db.Tpcc_db.footprint db)
            (fun txn ->
              Harness.straggle ();
              Db.Tpcc_db.execute db txn)
            txns)
    in
    ({ digest = Db.Tpcc_db.digest db; results = [||]; invariant = invariant db txns }, outcome)
  in
  { name = "tpcc"; default_n = 96; serial; parallel }

(* ---- yield: cooperative multi-step procedures ---------------------- *)

(* Each request updates 1–2 cells in TWO steps with a Yield between them:
   exercises the park/resume path (§6) under fuzz.  While parked it keeps
   exclusive footprint access, so the serial reference can simply run both
   steps back to back. *)
let yield_log ~seed ~n ~n_cells =
  let rng = Rng.create (seed lxor 0x0059_77e1) in
  Array.init n (fun id ->
      (id, Array.init (1 + Rng.int rng 2) (fun _ -> Rng.int rng n_cells)))

let yield =
  let n_cells = 32 in
  let step1 cells (id, ks) =
    Harness.straggle ();
    Array.iter (fun k -> Core.Resource.update cells.(k) (fun v -> (v * 31) + id)) ks
  in
  let step2 cells (id, ks) =
    Array.iter (fun k -> Core.Resource.update cells.(k) (fun v -> v lxor (id * 2654435761))) ks
  in
  let serial ~seed ~n =
    let log = yield_log ~seed ~n ~n_cells in
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    Array.iter
      (fun req ->
        step1 cells req;
        step2 cells req)
      log;
    { digest = counters_digest cells; results = [||]; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let log = yield_log ~seed ~n ~n_cells in
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    let footprint (_, ks) =
      Core.Footprint.of_slots
        (Array.to_list (Array.map (fun k -> Core.Resource.slot cells.(k)) ks))
    in
    let run () =
      let t = Core.Runtime.create ~workers ~queue_capacity ?fuzz () in
      Array.iter
        (fun req ->
          Core.Runtime.schedule_steps t (footprint req) (fun () ->
              step1 cells req;
              Core.Node.Yield
                (fun () ->
                  step2 cells req;
                  Core.Node.Finished)))
        log;
      Core.Runtime.shutdown t
    in
    let outcome = maybe_sanitize ~sanitize run in
    ({ digest = counters_digest cells; results = [||]; invariant = None }, outcome)
  in
  { name = "yield"; default_n = 128; serial; parallel }

(* ---- deep-chain: serial dependency chain, every queue spuriously full  *)

(* Every request writes the one hot cell, so the DAG is a single chain as
   deep as the log.  On top of whatever the plan injects, the case arms
   its own [fail_push] that reports full on every other probe of EVERY
   worker queue: dispatcher backpressure and the worker overflow-to-inline
   worklist run constantly — the exact paths where the old mutually
   recursive inline execution overflowed the stack on deep chains.
   Spurious full only steers which legal schedule runs, so the
   serial-equivalence oracle must still hold. *)
let deep_chain =
  let op id v = (v * 31) + id + 1 in
  let log ~seed ~n =
    let salt = Rng.int (Rng.create (seed lxor 0x00de_e9c4)) 0x3fff_ffff in
    Array.init n (fun i -> salt + i)
  in
  let serial ~seed ~n =
    let cell = Core.Resource.create 0 in
    Core.Runtime.run_sequential
      (fun id -> Core.Resource.update cell (op id))
      (log ~seed ~n);
    { digest = Core.Resource.peek cell; results = [||]; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize =
    let cell = Core.Resource.create 0 in
    let flip = Atomic.make 0 in
    let spurious_full () = Atomic.fetch_and_add flip 1 land 1 = 0 in
    let base =
      match fuzz with
      | Some f -> f
      | None -> { Core.Runtime.rs_fuzz = None; stall_spins = None; idle_gap = None }
    in
    let rs_fuzz =
      match base.Core.Runtime.rs_fuzz with
      | Some rs ->
          let fail_push =
            match rs.Core.Runnable_set.fail_push with
            | Some f -> Some (fun () -> spurious_full () || f ())
            | None -> Some spurious_full
          in
          { rs with Core.Runnable_set.fail_push }
      | None ->
          {
            Core.Runnable_set.pop_rotate = (fun ~worker:_ ~n:_ -> 0);
            push_rotate = (fun ~worker:_ ~n:_ -> 0);
            dispatch_rotate = (fun ~n:_ -> 0);
            fail_push = Some spurious_full;
            fail_pop = None;
          }
    in
    let fuzz = Some { base with Core.Runtime.rs_fuzz = Some rs_fuzz } in
    let footprint _ = Core.Footprint.of_slots [ Core.Resource.slot cell ] in
    let execute id =
      Harness.straggle ();
      Core.Resource.update cell (op id)
    in
    let outcome =
      maybe_sanitize ~sanitize (fun () ->
          Core.Runtime.run_log ~workers ~queue_capacity ?fuzz footprint execute
            (log ~seed ~n))
    in
    ({ digest = Core.Resource.peek cell; results = [||]; invariant = None }, outcome)
  in
  { name = "deep-chain"; default_n = 192; serial; parallel }

(* ---- replication: primary/backup convergence under perturbation ----- *)

(* The §5.3 replication stack under fuzz: both replicas run the same KV
   log on their own perturbed runtime (same plan on both sides — see
   {!Primary_backup.create}).  Two oracle angles: the usual
   serial-equivalence check against the primary, plus a
   replica-divergence invariant comparing primary and backup state.
   The sanitizer is skipped here: its logs are global and keyed by
   seqno, and this case runs TWO runtimes over the same seqnos, which
   breaks the one-runtime-per-bracket discipline its docs require. *)
let replication =
  let module Pb = Doradd_replication.Primary_backup in
  let n_keys = 96 in
  let all_keys = Array.init n_keys Fun.id in
  let txns ~seed ~n =
    kv_txns ~seed:(seed lxor 0x0052_6570) ~n ~n_keys ~ops:4 ~contention:Ycsb.Mod_contention
  in
  let store () =
    let s = Db.Store.create () in
    Db.Store.populate s ~n:n_keys;
    s
  in
  let serial ~seed ~n =
    let s = store () in
    let results = Db.Kv.run_sequential s (txns ~seed ~n) in
    { digest = Db.Kv.state_digest s ~keys:all_keys; results; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize:_ =
    let log = txns ~seed ~n in
    let primary = store () and backup = store () in
    let p_res = Array.make n 0 and b_res = Array.make n 0 in
    let t =
      Pb.create ~workers ~queue_capacity ?fuzz
        ~primary_footprint:(Db.Kv.footprint primary)
        ~primary_execute:(fun txn ->
          Harness.straggle ();
          Db.Kv.execute primary ~results:p_res txn)
        ~backup_footprint:(Db.Kv.footprint backup)
        ~backup_execute:(Db.Kv.execute backup ~results:b_res)
        ()
    in
    Array.iter (Pb.submit t) log;
    Pb.shutdown t;
    let p_digest = Db.Kv.state_digest primary ~keys:all_keys in
    let b_digest = Db.Kv.state_digest backup ~keys:all_keys in
    let invariant =
      if Pb.backup_applied t <> n then
        Some
          (Printf.sprintf "backup applied %d of %d requests" (Pb.backup_applied t) n)
      else if p_digest <> b_digest then Some "replicas diverged"
      else if p_res <> b_res then Some "replica read results diverged"
      else None
    in
    ({ digest = p_digest; results = p_res; invariant }, None)
  in
  { name = "replication"; default_n = 128; serial; parallel }

(* ---- crash-recovery: durable KV killed at a seeded crashpoint ------- *)

(* The durability subsystem under seeded kills: run the KV log through a
   WAL-backed store, crash at a seed-chosen {!Doradd_persist.Crashpoint}
   (pre/post-fsync, torn append, mid-rotation, mid-snapshot), recover
   from the directory, and check the recovered prefix against a serial
   oracle before resubmitting the rest — the final state must still be
   serial-equivalent over the whole log.  Like [replication], this case
   never runs under the sanitizer: recovery executes a second runtime
   over the same seqnos. *)
let crash_recovery =
  let module Persist = Doradd_persist in
  let module Cp = Persist.Crashpoint in
  let n_keys = 96 in
  let all_keys = Array.init n_keys Fun.id in
  let txns ~seed ~n =
    kv_txns ~seed:(seed lxor 0x0043_5265) ~n ~n_keys ~ops:4 ~contention:Ycsb.Mod_contention
  in
  let serial_prefix log r =
    let s = Db.Store.create () in
    Db.Store.populate s ~n:n_keys;
    let results = Db.Kv.run_sequential s (Array.sub log 0 r) in
    (Db.Kv.state_digest s ~keys:all_keys, results)
  in
  let serial ~seed ~n =
    let log = txns ~seed ~n in
    let digest, results = serial_prefix log n in
    { digest; results; invariant = None }
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let parallel ~seed ~n ~workers ~queue_capacity:_ ~fuzz ~sanitize:_ =
    let log = txns ~seed ~n in
    let rng = Rng.create (seed lxor 0x0063_7263) in
    let point =
      [| Cp.Mid_append; Cp.Pre_fsync; Cp.Post_fsync; Cp.Mid_rotation; Cp.Mid_snapshot;
         Cp.Pre_snapshot_rename |].(Rng.int rng 6)
    in
    let snapshot_point = point = Cp.Mid_snapshot || point = Cp.Pre_snapshot_rename in
    let cadence =
      (* snapshot-window crashes need snapshots to exist *)
      if snapshot_point then [| 8; 16; 24 |].(Rng.int rng 3)
      else [| 0; 8; 16; 24 |].(Rng.int rng 4)
    in
    let group_commit = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
    let segment_bytes = 256 + Rng.int rng 512 in
    let countdown = ref (1 + Rng.int rng 12) in
    let dir = Filename.temp_dir "doradd_dst_crash" "" in
    Fun.protect ~finally:(fun () -> Cp.disarm (); rm_rf dir) @@ fun () ->
    let open_kv () =
      Db.Durable_kv.open_ ~dir ~n_keys ~max_txns:n ~workers ?fuzz ~group_commit
        ~segment_bytes ~fsync:false ()
    in
    let submit_from kv start =
      for i = start to n - 1 do
        ignore (Db.Durable_kv.submit kv log.(i));
        if cadence > 0 && i > 0 && i mod cadence = 0 then ignore (Db.Durable_kv.snapshot kv)
      done
    in
    let kv = open_kv () in
    Cp.arm (fun p ->
        if p = point then begin
          decr countdown;
          !countdown <= 0
        end
        else false);
    let crashed =
      match submit_from kv 0 with
      | () -> false
      | exception Cp.Crashed _ -> true
    in
    Cp.disarm ();
    let bad = ref [] in
    let check name ok = if not ok then bad := name :: !bad in
    let kv =
      if not crashed then kv
      else begin
        let acked = Db.Durable_kv.durable kv in
        Db.Durable_kv.crash_close kv;
        let kv2 = open_kv () in
        Db.Durable_kv.quiesce kv2;
        let r = Db.Durable_kv.recovered kv2 in
        let stats = Db.Durable_kv.recovery_stats kv2 in
        check "recovery lost an acknowledged-durable request" (r >= acked);
        check "recovery read past the submitted log" (r <= n);
        let prefix_digest, prefix_results = serial_prefix log r in
        check "recovered state differs from serial replay of durable prefix"
          (Db.Durable_kv.state_digest kv2 = prefix_digest);
        (* replayed (non-snapshot-covered) requests recompute their
           result digests during recovery; they must match the oracle *)
        let replay_start = r - stats.Persist.Recovery.replayed in
        let kv2_results = Db.Durable_kv.results kv2 in
        check "replayed result digests diverge"
          (Array.for_all
             (fun i -> kv2_results.(i) = prefix_results.(i))
             (Array.init stats.Persist.Recovery.replayed (fun k -> replay_start + k)));
        (* resume: resubmit everything past the recovered prefix, and
           backfill snapshot-covered result slots from the oracle so the
           full results array is comparable *)
        Array.blit prefix_results 0 kv2_results 0 replay_start;
        submit_from kv2 r;
        kv2
      end
    in
    Db.Durable_kv.quiesce kv;
    let digest = Db.Durable_kv.state_digest kv in
    let results = Array.copy (Db.Durable_kv.results kv) in
    Db.Durable_kv.close kv;
    let invariant =
      match !bad with [] -> None | b -> Some (String.concat "; " (List.rev b))
    in
    ({ digest; results; invariant }, None)
  in
  { name = "crash-recovery"; default_n = 160; serial; parallel }

(* ---- failover: kill the primary, elect, resume ---------------------- *)

(* The lib/repl failover story with the network replaced by the seeded
   simulation: a primary ships its log as {!Doradd_repl.Protocol} entry
   frames (each roundtripped through the real codec), a seed-derived
   kill point truncates the stream to the acked prefix and loses the
   in-flight suffix, the surviving backup replays the prefix on a
   fuzzed runtime (invariant: state ≡ serial replay of the acked
   prefix), the election order [candidate_geq] must pick a winner
   holding that prefix and fence the stale epoch, and the client's
   retried suffix then brings the promoted backup to full
   serial-equivalent state (the outer oracle).  Like [replication],
   never runs under the sanitizer: prefix and resume execute on two
   runtimes over overlapping seqnos. *)
let failover =
  let module Proto = Doradd_repl.Protocol in
  let module Wire = Doradd_net.Wire in
  let n_keys = 96 in
  let all_keys = Array.init n_keys Fun.id in
  let txns ~seed ~n =
    kv_txns ~seed:(seed lxor 0x0046_6c76) ~n ~n_keys ~ops:4 ~contention:Ycsb.Mod_contention
  in
  let store () =
    let s = Db.Store.create () in
    Db.Store.populate s ~n:n_keys;
    s
  in
  let body_of (t : Db.Kv.txn) =
    Wire.encode_kv
      {
        Wire.work = 0;
        ops =
          Array.map
            (fun (o : Db.Kv.op) -> { Wire.key = o.key; update = o.kind = Db.Kv.Update })
            t.ops;
      }
  in
  let serial_prefix log r =
    let s = store () in
    let results = Db.Kv.run_sequential s (Array.sub log 0 r) in
    (Db.Kv.state_digest s ~keys:all_keys, results)
  in
  let serial ~seed ~n =
    let log = txns ~seed ~n in
    let digest, results = serial_prefix log n in
    { digest; results; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize:_ =
    let log = txns ~seed ~n in
    let rng = Rng.create (seed lxor 0x0046_4f56) in
    let epoch = Rng.int rng 5 in
    (* acked prefix length; entries [kill, kill+lag) were shipped but
       still in flight when the primary died — lost with it *)
    let kill = max 1 (min (n - 1) ((n / 4) + Rng.int rng (max 1 (n / 2)))) in
    let lag = Rng.int rng 4 in
    let bad = ref [] in
    let check name ok = if (not ok) && not (List.mem name !bad) then bad := name :: !bad in
    (* ship every frame through the real codec; hostile bytes must come
       back as errors, never exceptions *)
    for seqno = 0 to min n (kill + lag) - 1 do
      let body = body_of log.(seqno) in
      let frame =
        Proto.encode
          (Proto.Entry { e_epoch = epoch; e_seqno = seqno; e_origin = epoch; e_body = body })
      in
      match Proto.decode frame with
      | Ok (Proto.Entry { e_epoch; e_seqno; e_origin; e_body }) ->
        check "entry frame roundtrip diverged"
          (e_epoch = epoch && e_seqno = seqno && e_origin = epoch && e_body = body);
        (* truncations inside the 25-byte entry header must be errors
           (past it they are legal frames with a shorter body — torn
           bodies are the Codec CRC's job, not the protocol's) *)
        check "hostile decode raised or accepted garbage"
          (match Proto.decode (String.sub frame 0 (Rng.int rng 25)) with
          | Ok _ | (exception _) -> false
          | Error _ -> true)
      | Ok _ | Error _ -> check "entry frame failed to decode" false
    done;
    (* the surviving backup replays the acked prefix on its own fuzzed
       runtime; its state must equal a serial replay of that prefix *)
    let s = store () in
    let results = Array.make n 0 in
    Core.Runtime.run_log ~workers ~queue_capacity ?fuzz
      (Db.Kv.footprint ~rw:false s)
      (fun txn ->
        Harness.straggle ();
        Db.Kv.execute s ~results txn)
      (Array.sub log 0 kill);
    let prefix_digest, prefix_results = serial_prefix log kill in
    check "backup state differs from serial replay of the acked prefix"
      (Db.Kv.state_digest s ~keys:all_keys = prefix_digest);
    check "backup results differ on the acked prefix"
      (Array.for_all (fun i -> results.(i) = prefix_results.(i)) (Array.init kill Fun.id));
    (* election: the survivor holds seqnos up to [kill - 1]; a peer that
       lost its tail sits [behind] entries back.  The election order must
       pick the holder of the acked prefix, and ties must break upward. *)
    let behind = 1 + Rng.int rng 3 in
    check "election order dropped the acked prefix"
      (Proto.candidate_geq ~cand:(epoch, kill - 1, 1) ~than:(epoch, kill - 1 - behind, 2)
      && not
           (Proto.candidate_geq ~cand:(epoch, kill - 1 - behind, 2)
              ~than:(epoch, kill - 1, 1)));
    check "election tie must break to the higher node id"
      (Proto.candidate_geq ~cand:(epoch, kill - 1, 2) ~than:(epoch, kill - 1, 1)
      && not (Proto.candidate_geq ~cand:(epoch, kill - 1, 1) ~than:(epoch, kill - 1, 2)));
    (* the last-entry epoch dominates length: a longer log of uncommitted
       writes from a deposed primaryship must lose to a shorter
       newer-epoch log *)
    check "election order let a deposed primaryship's longer log win"
      (Proto.candidate_geq ~cand:(epoch + 1, kill - 1 - behind, 1)
         ~than:(epoch, kill - 1, 2)
      && not
           (Proto.candidate_geq ~cand:(epoch, kill - 1, 2)
              ~than:(epoch + 1, kill - 1 - behind, 1)));
    (* fencing: the new epoch rejects the dead primary's frames *)
    (match
       Proto.decode
         (Proto.encode (Proto.Reject { r_epoch = epoch + 1; r_reason = Proto.Stale_epoch }))
     with
    | Ok (Proto.Reject { r_epoch; r_reason = Proto.Stale_epoch }) ->
      check "fence epoch regressed" (r_epoch > epoch)
    | Ok _ | Error _ -> check "reject frame roundtrip diverged" false);
    (* the client retries its unacked suffix (including the lost
       in-flight entries) against the promoted backup; the outer oracle
       then demands full serial equivalence *)
    Core.Runtime.run_log ~workers ~queue_capacity ?fuzz
      (Db.Kv.footprint ~rw:false s)
      (fun txn ->
        Harness.straggle ();
        Db.Kv.execute s ~results txn)
      (Array.sub log kill (n - kill));
    let invariant =
      match !bad with [] -> None | b -> Some (String.concat "; " (List.rev b))
    in
    ({ digest = Db.Kv.state_digest s ~keys:all_keys; results; invariant }, None)
  in
  { name = "failover"; default_n = 128; serial; parallel }

(* ---- cross-shard: sharded runtime vs the serial oracle -------------- *)

(* The sharded runtime under fuzz: a seed-derived shard count and
   cross-shard ratio, KV transactions bucketed so that a key's shard is
   [key mod shards] (the partition function on pkey = key), queue faults
   and worker stalls from the usual plan.  The oracle demands the full
   determinism contract of [Sharded_runtime]: final digest, per-request
   results, and the per-resource commit order must all equal the serial
   run — the order is folded into the digest.  Never runs under the
   sanitizer: a cross-shard body touches remote-shard resources under the
   restricted participant footprint (see sharded_runtime.mli). *)
let cross_shard =
  let n_keys = 240 in
  (* shard count must be derived identically in both closures: the log
     itself depends on it (keys are drawn per shard bucket) *)
  let shape ~seed =
    let rng = Rng.create (seed lxor 0x0058_5368) in
    let shards = [| 1; 2; 4; 8 |].(Rng.int rng 4) in
    let cross_pct = [| 0; 5; 20; 50 |].(Rng.int rng 4) in
    (shards, cross_pct)
  in
  let txns ~seed ~n ~shards ~cross_pct =
    let rng = Rng.create (seed lxor 0x0043_5353) in
    let key_in s = (Rng.int rng (n_keys / shards) * shards) + s in
    Array.init n (fun id ->
        let cross = shards > 1 && Rng.int rng 100 < cross_pct in
        let ops =
          if cross then begin
            (* ops split across two distinct shards *)
            let s1 = Rng.int rng shards in
            let s2 = (s1 + 1 + Rng.int rng (shards - 1)) mod shards in
            Array.init
              (2 + Rng.int rng 3)
              (fun i ->
                let s = if i land 1 = 0 then s1 else s2 in
                {
                  Db.Kv.key = key_in s;
                  kind = (if Rng.int rng 4 = 0 then Db.Kv.Read else Db.Kv.Update);
                })
          end
          else begin
            let s = Rng.int rng shards in
            Array.init
              (1 + Rng.int rng 3)
              (fun _ ->
                {
                  Db.Kv.key = key_in s;
                  kind = (if Rng.int rng 4 = 0 then Db.Kv.Read else Db.Kv.Update);
                })
          end
        in
        { Db.Kv.id; ops })
  in
  let fold_order digest order =
    Array.fold_left
      (fun acc per_key ->
        Array.fold_left (fun a id -> (a * 31) + id) ((acc * 17) + 1) per_key)
      digest order
  in
  let serial ~seed ~n =
    let shards, cross_pct = shape ~seed in
    let log = txns ~seed ~n ~shards ~cross_pct in
    let digest, results, order = Db.Sharded_kv.run_serial ~n_keys log in
    { digest = fold_order digest order; results; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize:_ =
    let shards, cross_pct = shape ~seed in
    let log = txns ~seed ~n ~shards ~cross_pct in
    let workers_per_shard = 1 + (workers land 1) in
    let digest, results, order =
      Db.Sharded_kv.run_sharded ~workers_per_shard ~queue_capacity ?fuzz ~shards ~n_keys log
    in
    ({ digest = fold_order digest order; results; invariant = None }, None)
  in
  { name = "cross-shard"; default_n = 96; serial; parallel }

(* ---- suspend: effects-based suspendable transactions ---------------- *)

(* Transactions dispatched through the effects handler
   ([Runtime.schedule_suspendable]) with seed-derived suspend points:
   0–3 explicit yields per txn, a read through the miss-hooked
   [Service.fetch], and ~1/3 of txns awaiting one of a few shared
   triggers fired by dedicated firer txns stamped deterministically
   last.  The firers' footprints are private singleton cells, so no DAG
   edge can park a firer behind a waiter (every trigger provably fires).
   On top of the usual serial-equivalence oracle the case checks the
   suspension contract itself: every resume batch the wait-sets run must
   be stamp-ascending (the planted LIFO-fire bug in dst --self-test
   trips exactly this), and after the drain every park must have been
   resumed exactly once.  Suspensions are waits, not semantics, so the
   serial reference simply runs the bodies straight-line.  Never runs
   under the sanitizer: a fire from inside a request body may execute
   resumed continuations inline on the firing worker (queue-full
   overflow), nesting request contexts. *)
let suspend =
  let n_cells = 48 in
  let groups ~seed = 1 + Rng.int (Rng.create (seed lxor 0x0053_7573)) 3 in
  let log ~seed ~n ~groups =
    let rng = Rng.create (seed lxor 0x0073_7573) in
    Array.init (max 1 (n - groups)) (fun id ->
        let ks = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n_cells) in
        let group = if Rng.int rng 3 = 0 then Some (Rng.int rng groups) else None in
        (id, ks, group, Rng.int rng 4))
  in
  let apply cells (id, ks, _, _) =
    Array.iter (fun k -> Core.Resource.update cells.(k) (fun v -> (v * 31) + id)) ks
  in
  let serial ~seed ~n =
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    Array.iter (apply cells) (log ~seed ~n ~groups:(groups ~seed));
    { digest = counters_digest cells; results = [||]; invariant = None }
  in
  let parallel ~seed ~n ~workers ~queue_capacity ~fuzz ~sanitize:_ =
    let groups = groups ~seed in
    let reqs = log ~seed ~n ~groups in
    let cells = Array.init n_cells (fun _ -> Core.Resource.create 0) in
    let triggers = Array.init groups (fun _ -> Core.Effects.trigger ()) in
    let firer_cells = Array.init groups (fun _ -> Core.Resource.create 0) in
    let bad_batch = Atomic.make None in
    let ascending b =
      let ok = ref true in
      for i = 1 to Array.length b - 1 do
        if b.(i - 1) >= b.(i) then ok := false
      done;
      !ok
    in
    Core.Effects.set_batch_observer
      (Some
         (fun b ->
           if (not (ascending b)) && Atomic.get bad_batch = None then
             Atomic.set bad_batch (Some (Array.to_list b))));
    (* seeded fetch misses: read-side waits compose with the plan's
       queue faults and stalls.  The subset that misses is allowed to be
       schedule-dependent — a miss is a wait, never a result. *)
    let miss_ctr = Atomic.make (seed land 0xffff) in
    Core.Service.set_fetch_miss
      (Some (fun () -> Atomic.fetch_and_add miss_ctr 1 land 7 = 0));
    let s0 = Core.Effects.suspend_count () and r0 = Core.Effects.resume_count () in
    Fun.protect
      ~finally:(fun () ->
        Core.Effects.set_batch_observer None;
        Core.Service.set_fetch_miss None)
    @@ fun () ->
    let t = Core.Runtime.create ~workers ~queue_capacity ?fuzz () in
    Array.iter
      (fun ((_, ks, group, yields) as req) ->
        let fp =
          Core.Footprint.of_slots
            (Array.to_list (Array.map (fun k -> Core.Resource.slot cells.(k)) ks))
        in
        Core.Runtime.schedule_suspendable t fp (fun () ->
            Harness.straggle ();
            (match group with Some g -> Core.Effects.await triggers.(g) | None -> ());
            for _ = 1 to yields do
              Core.Runtime.yield ()
            done;
            ignore (Sys.opaque_identity (Core.Service.fetch cells.(ks.(0))));
            apply cells req))
      reqs;
    Array.iteri
      (fun g fc ->
        Core.Runtime.schedule t
          (Core.Footprint.of_slots [ Core.Resource.slot fc ])
          (fun () ->
            Harness.straggle ();
            Core.Effects.fire triggers.(g)))
      firer_cells;
    Core.Runtime.shutdown t;
    let s1 = Core.Effects.suspend_count () and r1 = Core.Effects.resume_count () in
    let invariant =
      match Atomic.get bad_batch with
      | Some b ->
        Some
          ("resume batch out of stamp order: "
          ^ String.concat "," (List.map string_of_int b))
      | None when s1 - s0 <> r1 - r0 ->
        Some
          (Printf.sprintf "suspend/resume imbalance: %d parks, %d resumes" (s1 - s0)
             (r1 - r0))
      | None -> None
    in
    ({ digest = counters_digest cells; results = [||]; invariant }, None)
  in
  { name = "suspend"; default_n = 128; serial; parallel }

let all =
  [
    counters; kv; kv_rw; ycsb; ledger; tpcc; yield; deep_chain; replication; crash_recovery;
    failover; cross_shard; suspend;
  ]

let find name = List.find_opt (fun c -> c.name = name) all

let names = List.map (fun c -> c.name) all
