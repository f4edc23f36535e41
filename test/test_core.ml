(* Tests for the DORADD core: nodes, slots, footprints, spawner DAG
   construction, the runnable set, the runtime, and the pipelined
   dispatcher.  The determinism properties at the end are the central
   correctness claim of the paper: parallel replay of a log produces the
   same state as serial execution, for any worker count. *)

open Doradd_core

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let nop () = ()

(* ------------------------------------------------------------------ *)
(* Node protocol                                                       *)
(* ------------------------------------------------------------------ *)

let test_node_guard () =
  let n = Node.create ~seqno:0 nop in
  checki "join starts at 1" 1 (Node.pending n);
  checkb "release makes ready" true (Node.release n)

let test_node_dependency_flow () =
  let a = Node.create ~seqno:0 nop in
  let b = Node.create ~seqno:1 nop in
  Node.incr_join b;
  checkb "registered on active pred" true (Node.add_dependent a b);
  checkb "b not ready while a pending" false (Node.release b);
  checkb "a ready" true (Node.release a);
  let ready = ref [] in
  ignore (Node.run a);
  Node.complete a ~on_ready:(fun d -> ready := d :: !ready);
  checki "b became ready" 1 (List.length !ready);
  checkb "it is b" true (List.hd !ready == b)

let test_node_register_after_done () =
  let a = Node.create ~seqno:0 nop in
  ignore (Node.release a);
  Node.complete a ~on_ready:(fun _ -> ());
  let b = Node.create ~seqno:1 nop in
  checkb "registration refused on done pred" false (Node.add_dependent a b);
  checkb "done" true (Node.is_done a)

let test_node_multiple_dependents_ready_order () =
  (* dependents must be resolved oldest-first *)
  let a = Node.create ~seqno:0 nop in
  let deps = List.init 5 (fun i -> Node.create ~seqno:(i + 1) nop) in
  List.iter
    (fun d ->
      Node.incr_join d;
      ignore (Node.add_dependent a d);
      ignore (Node.release d))
    deps;
  ignore (Node.release a);
  let order = ref [] in
  Node.complete a ~on_ready:(fun d -> order := Node.seqno d :: !order);
  Alcotest.check (Alcotest.list Alcotest.int) "log order" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_node_pool_recycles () =
  (* steady state must reuse the same node object: acquire → complete →
     recycle → acquire hands back the identical record, reinitialised *)
  let pool = Node.create_pool ~nodes:1 ~cells:4 in
  let n1 = Node.acquire pool ~seqno:0 nop in
  let g1 = Node.generation n1 in
  ignore (Node.release n1);
  ignore (Node.run n1);
  Node.complete n1 ~on_ready:(fun _ -> ());
  Node.recycle n1;
  let n2 = Node.acquire pool ~seqno:7 nop in
  checkb "pool reuses the node object" true (n2 == n1);
  checki "seqno reset" 7 (Node.seqno n2);
  checkb "generation bumped" true (Node.generation n2 > g1);
  checki "join reset to 1" 1 (Node.pending n2);
  checkb "not done after reinit" false (Node.is_done n2)

let test_node_pool_stale_slot_reference () =
  (* Slots snapshot (node, generation); once the node is recycled and
     reincarnated for a later request, the spawner must treat the stale
     snapshot as already complete — otherwise the new request would be
     wired behind its own node and deadlock. *)
  let pool = Node.create_pool ~nodes:1 ~cells:4 in
  let cell = Resource.create 0 in
  let fp = Footprint.of_slots [ Resource.slot cell ] in
  let ready = ref 0 in
  let sink _ = incr ready in
  let a = Node.acquire pool ~seqno:0 nop in
  Spawner.schedule_ready sink a fp;
  checki "head of chain ready" 1 !ready;
  ignore (Node.run a);
  Node.complete a ~on_ready:(fun _ -> ());
  Node.recycle a;
  let b = Node.acquire pool ~seqno:1 nop in
  checkb "same object reincarnated" true (b == a);
  Spawner.schedule_ready sink b fp;
  checki "stale writer snapshot ignored: b immediately ready" 2 !ready

let test_node_double_complete_rejected () =
  let a = Node.create ~seqno:0 nop in
  ignore (Node.release a);
  Node.complete a ~on_ready:(fun _ -> ());
  Alcotest.check_raises "second complete raises"
    (Invalid_argument "Node.complete: already completed") (fun () ->
      Node.complete a ~on_ready:(fun _ -> ()))

let test_node_diamond () =
  (* a -> b, a -> c, b -> d, c -> d : d becomes ready only after both. *)
  let a = Node.create ~seqno:0 nop in
  let b = Node.create ~seqno:1 nop in
  let c = Node.create ~seqno:2 nop in
  let d = Node.create ~seqno:3 nop in
  let dep pred succ =
    Node.incr_join succ;
    ignore (Node.add_dependent pred succ)
  in
  dep a b;
  dep a c;
  dep b d;
  dep c d;
  List.iter (fun n -> ignore (Node.release n)) [ b; c; d ];
  ignore (Node.release a);
  let ready = ref [] in
  let on_ready n = ready := n :: !ready in
  Node.complete a ~on_ready;
  checki "b and c ready" 2 (List.length !ready);
  Node.complete b ~on_ready;
  checki "d still blocked by c" 2 (List.length !ready);
  Node.complete c ~on_ready;
  checki "d ready after both" 3 (List.length !ready)

(* ------------------------------------------------------------------ *)
(* Footprint                                                           *)
(* ------------------------------------------------------------------ *)

let test_footprint_dedup () =
  let s = Slot.create () in
  let fp = Footprint.of_list [ (s, Footprint.Write); (s, Footprint.Write) ] in
  checki "duplicates collapse" 1 (Footprint.length fp)

let test_footprint_write_dominates () =
  let s = Slot.create () in
  let fp = Footprint.of_list [ (s, Footprint.Read); (s, Footprint.Write) ] in
  checki "collapsed" 1 (Footprint.length fp);
  Footprint.iter fp (fun _ m -> checkb "write wins" true (m = Footprint.Write));
  let fp2 = Footprint.of_list [ (s, Footprint.Write); (s, Footprint.Read) ] in
  Footprint.iter fp2 (fun _ m -> checkb "write wins either order" true (m = Footprint.Write))

let test_footprint_sorted_by_id () =
  let a = Slot.create () and b = Slot.create () and c = Slot.create () in
  let fp = Footprint.of_slots [ c; a; b ] in
  let ids = ref [] in
  Footprint.iter fp (fun s _ -> ids := Slot.id s :: !ids);
  let ids = List.rev !ids in
  checkb "sorted ascending" true (List.sort compare ids = ids);
  checki "all kept" 3 (Footprint.length fp)

let test_footprint_empty () =
  checki "empty" 0 (Footprint.length Footprint.empty);
  let s = Slot.create () in
  checkb "mem on empty" false (Footprint.mem Footprint.empty s)

let test_footprint_mem () =
  let a = Slot.create () and b = Slot.create () in
  let fp = Footprint.of_slots [ a ] in
  checkb "a present" true (Footprint.mem fp a);
  checkb "b absent" false (Footprint.mem fp b)

let prop_footprint_normal_form =
  QCheck.Test.make ~name:"footprint: sorted, unique, write-dominant" ~count:200
    QCheck.(list (pair (int_range 0 10) bool))
    (fun spec ->
      let slots = Array.init 11 (fun _ -> Slot.create ()) in
      let fp =
        Footprint.of_list
          (List.map
             (fun (i, w) -> (slots.(i), if w then Footprint.Write else Footprint.Read))
             spec)
      in
      let seen = Hashtbl.create 16 in
      let ok = ref true in
      let last_id = ref (-1) in
      Footprint.iter fp (fun s m ->
          if Slot.id s <= !last_id then ok := false;
          last_id := Slot.id s;
          if Hashtbl.mem seen (Slot.id s) then ok := false;
          Hashtbl.add seen (Slot.id s) ();
          (* if any spec entry for this slot was a write, mode must be Write *)
          let any_write =
            List.exists (fun (i, w) -> w && slots.(i) == s) spec
          in
          if any_write && m <> Footprint.Write then ok := false);
      let distinct =
        List.sort_uniq compare (List.map fst spec) |> List.length
      in
      !ok && Footprint.length fp = distinct)

(* ------------------------------------------------------------------ *)
(* Spawner: DAG construction                                           *)
(* ------------------------------------------------------------------ *)

(* Schedule a list of footprints through the spawner and return, for each
   request, the set of requests that had completed before it ran — by
   running readiness by hand. *)
let build_dag footprints =
  let ready = Queue.create () in
  let nodes =
    List.mapi (fun i fp -> (Node.create ~seqno:i nop, fp)) footprints
  in
  List.iter (fun (n, fp) -> Spawner.schedule_ready (fun n -> Queue.push n ready) n fp) nodes;
  (List.map fst nodes, ready)

let drain_in_waves nodes ready =
  (* returns the wave number each node executed in *)
  let wave = Array.make (List.length nodes) (-1) in
  let w = ref 0 in
  while not (Queue.is_empty ready) do
    let this_wave = Queue.fold (fun acc n -> n :: acc) [] ready in
    Queue.clear ready;
    List.iter (fun n -> wave.(Node.seqno n) <- !w) this_wave;
    List.iter (fun n -> Node.complete n ~on_ready:(fun d -> Queue.push d ready)) this_wave;
    incr w
  done;
  wave

let test_spawner_figure4 () =
  (* The paper's Figure 4: requests over accounts a1..a4.
     Req1: transfer(a1,a2)  Req2: balance(a2)... — we reproduce the DAG
     shape given in the figure: Req1{a1,a2} Req2{a1? ...}.
     Figure 4's stated dependencies: Req3 waits on Req1 and Req2 (overlap
     on a1 and a2); Req4 waits on Req3 (a2); Req5 independent (a4).
     Encode: Req1{a1}, Req2{a2}, Req3{a1,a2}, Req4{a2? -> must overlap
     Req3 only}, Req5{a4}. *)
  let a1 = Slot.create () and a2 = Slot.create () and a4 = Slot.create () in
  let fps =
    [
      Footprint.of_slots [ a1 ];
      Footprint.of_slots [ a2 ];
      Footprint.of_slots [ a1; a2 ];
      Footprint.of_slots [ a2 ];
      Footprint.of_slots [ a4 ];
    ]
  in
  let nodes, ready = build_dag fps in
  (* Req1, Req2, Req5 immediately runnable *)
  checki "three ready" 3 (Queue.length ready);
  let wave = drain_in_waves nodes ready in
  checki "req1 wave 0" 0 wave.(0);
  checki "req2 wave 0" 0 wave.(1);
  checki "req5 wave 0" 0 wave.(4);
  checki "req3 wave 1" 1 wave.(2);
  checki "req4 wave 2" 2 wave.(3)

let test_spawner_chain () =
  let s = Slot.create () in
  let fps = List.init 10 (fun _ -> Footprint.of_slots [ s ]) in
  let nodes, ready = build_dag fps in
  checki "only head ready" 1 (Queue.length ready);
  let wave = drain_in_waves nodes ready in
  List.iteri (fun i _ -> checki (Printf.sprintf "req %d serialized" i) i wave.(i)) fps

let test_spawner_independent () =
  let fps = List.init 8 (fun _ -> Footprint.of_slots [ Slot.create () ]) in
  let _, ready = build_dag fps in
  checki "all ready at once" 8 (Queue.length ready)

let test_spawner_empty_footprint () =
  let _, ready = build_dag [ Footprint.empty; Footprint.empty ] in
  checki "empty footprints always ready" 2 (Queue.length ready)

let test_spawner_self_duplicate () =
  (* transfer a a: must not deadlock on itself *)
  let a = Slot.create () in
  let fp = Footprint.of_list [ (a, Footprint.Write); (a, Footprint.Write) ] in
  let _, ready = build_dag [ fp ] in
  checki "runnable" 1 (Queue.length ready)

let test_spawner_readers_share () =
  let s = Slot.create () in
  let w = Footprint.of_list [ (s, Footprint.Write) ] in
  let r = Footprint.of_list [ (s, Footprint.Read) ] in
  let nodes, ready = build_dag [ w; r; r; r; w ] in
  let wave = drain_in_waves nodes ready in
  checki "writer first" 0 wave.(0);
  checki "readers share wave 1" 1 wave.(1);
  checki "readers share wave 1" 1 wave.(2);
  checki "readers share wave 1" 1 wave.(3);
  checki "second writer after readers" 2 wave.(4)

let test_spawner_all_write_serializes_reads () =
  (* paper semantics: reads treated as writes serialize *)
  let s = Slot.create () in
  let w = Footprint.of_slots [ s ] in
  let nodes, ready = build_dag [ w; w; w ] in
  let wave = drain_in_waves nodes ready in
  checki "serial" 0 wave.(0);
  checki "serial" 1 wave.(1);
  checki "serial" 2 wave.(2)

let test_spawner_writer_waits_all_readers () =
  (* readers at different times; writer must wait for all of them *)
  let s = Slot.create () and t = Slot.create () in
  let fps =
    [
      Footprint.of_list [ (s, Footprint.Read) ];
      (* reader 1: also serialised behind a chain on t so it finishes late *)
      Footprint.of_list [ (t, Footprint.Write) ];
      Footprint.of_list [ (t, Footprint.Write); (s, Footprint.Read) ];
      Footprint.of_list [ (s, Footprint.Write) ];
    ]
  in
  let nodes, ready = build_dag fps in
  let wave = drain_in_waves nodes ready in
  checkb "writer after slow reader" true (wave.(3) > wave.(2));
  checkb "writer after fast reader" true (wave.(3) > wave.(0))

(* ------------------------------------------------------------------ *)
(* Runnable set                                                        *)
(* ------------------------------------------------------------------ *)

let mk_node i = Node.create ~seqno:i nop

let test_runnable_set_round_robin () =
  let rs = Runnable_set.create ~workers:3 ~queue_capacity:8 in
  for i = 0 to 5 do
    Runnable_set.push_dispatcher rs (mk_node i)
  done;
  checki "size" 6 (Runnable_set.size rs);
  (* worker 0 should find seqno 0 in its own queue (round robin started at 0) *)
  (match Runnable_set.pop rs ~worker:0 with
  | Some n -> checki "own queue first" 0 (Node.seqno n)
  | None -> Alcotest.fail "expected node");
  (* draining everything works from any worker via stealing *)
  let count = ref 0 in
  let rec drain () =
    match Runnable_set.pop rs ~worker:1 with
    | Some _ ->
      incr count;
      drain ()
    | None -> ()
  in
  drain ();
  checki "rest drained by stealing" 5 !count

let test_runnable_set_worker_own_queue () =
  let rs = Runnable_set.create ~workers:2 ~queue_capacity:8 in
  Runnable_set.push_worker rs ~worker:1 (mk_node 42);
  (match Runnable_set.pop rs ~worker:1 with
  | Some n -> checki "pops own push" 42 (Node.seqno n)
  | None -> Alcotest.fail "expected node");
  checkb "now empty" true (Runnable_set.pop rs ~worker:0 = None)

let test_runnable_set_steal () =
  let rs = Runnable_set.create ~workers:4 ~queue_capacity:8 in
  Runnable_set.push_worker rs ~worker:3 (mk_node 7);
  (match Runnable_set.pop rs ~worker:0 with
  | Some n -> checki "stolen" 7 (Node.seqno n)
  | None -> Alcotest.fail "steal failed")

let test_runnable_set_overflow_runs_inline () =
  (* every queue full: push_worker must execute the node inline rather
     than deadlock *)
  let rs = Runnable_set.create ~workers:1 ~queue_capacity:2 in
  Runnable_set.push_worker rs ~worker:0 (mk_node 0);
  Runnable_set.push_worker rs ~worker:0 (mk_node 1);
  let executed = ref false in
  let n = Node.create ~seqno:2 (fun () -> executed := true) in
  ignore (Node.release n);
  Runnable_set.push_worker rs ~worker:0 n;
  checkb "ran inline when full" true !executed

(* ------------------------------------------------------------------ *)
(* Runtime: parallel determinism                                       *)
(* ------------------------------------------------------------------ *)

(* Non-commutative per-resource mutation: final value depends on the order
   of all ops applied to that resource, so any determinism violation is
   visible in the final state. *)
let apply_op v req_id = (v * 31) + req_id + 1

let run_parallel ~workers ~n_resources log =
  let cells = Array.init n_resources (fun _ -> Resource.create 0) in
  Runtime.run_log ~workers
    (fun (_id, keys) -> Footprint.of_slots (List.map (fun k -> Resource.slot cells.(k)) keys))
    (fun (id, keys) ->
      List.iter (fun k -> Resource.update cells.(k) (fun v -> apply_op v id)) keys)
    log;
  Array.map Resource.get cells

let run_serial ~n_resources log =
  let cells = Array.make n_resources 0 in
  Array.iter (fun (id, keys) -> List.iter (fun k -> cells.(k) <- apply_op cells.(k) id) keys) log;
  cells

let make_log ~seed ~n ~n_resources ~keys_per_req =
  let r = Random.State.make [| seed |] in
  Array.init n (fun i ->
      let keys =
        List.init (1 + Random.State.int r keys_per_req) (fun _ -> Random.State.int r n_resources)
      in
      (i, keys))

let test_runtime_matches_serial workers () =
  let n_resources = 40 in
  let log = make_log ~seed:7 ~n:5_000 ~n_resources ~keys_per_req:4 in
  let expected = run_serial ~n_resources log in
  let got = run_parallel ~workers ~n_resources log in
  Alcotest.check (Alcotest.array Alcotest.int) "parallel = serial" expected got

let test_runtime_contended_single_key () =
  (* worst case: every request touches the same resource *)
  let n_resources = 1 in
  let log = Array.init 2_000 (fun i -> (i, [ 0 ])) in
  let expected = run_serial ~n_resources log in
  let got = run_parallel ~workers:4 ~n_resources log in
  Alcotest.check (Alcotest.array Alcotest.int) "fully serialised" expected got

let test_runtime_counters () =
  let t = Runtime.create ~workers:2 () in
  let r = Resource.create 0 in
  for _ = 1 to 100 do
    Runtime.schedule t (Footprint.of_slots [ Resource.slot r ]) (fun () -> Resource.update r succ)
  done;
  checki "scheduled" 100 (Runtime.scheduled t);
  Runtime.drain t;
  checki "completed" 100 (Runtime.completed t);
  checki "state" 100 (Resource.get r);
  Runtime.shutdown t

let test_runtime_empty_shutdown () =
  let t = Runtime.create ~workers:2 () in
  Runtime.shutdown t

let test_runtime_workers_validation () =
  Alcotest.check_raises "zero workers" (Invalid_argument "Runtime.create: workers must be positive")
    (fun () -> ignore (Runtime.create ~workers:0 ()))

let test_runtime_bank_invariant () =
  (* transfers conserve total balance and match serial replay *)
  let n_accounts = 16 in
  let r = Random.State.make [| 123 |] in
  let log =
    Array.init 4_000 (fun i ->
        let src = Random.State.int r n_accounts in
        let dst = Random.State.int r n_accounts in
        let amt = Random.State.int r 100 in
        (i, src, dst, amt))
  in
  let accounts = Array.init n_accounts (fun _ -> Resource.create 1_000) in
  Runtime.run_log ~workers:4
    (fun (_, src, dst, _) ->
      Footprint.of_slots [ Resource.slot accounts.(src); Resource.slot accounts.(dst) ])
    (fun (_, src, dst, amt) ->
      Resource.update accounts.(src) (fun v -> v - amt);
      Resource.update accounts.(dst) (fun v -> v + amt))
    log;
  let total = Array.fold_left (fun acc a -> acc + Resource.get a) 0 accounts in
  checki "balance conserved" (n_accounts * 1_000) total;
  (* serial replay for exact per-account equality *)
  let serial = Array.make n_accounts 1_000 in
  Array.iter
    (fun (_, src, dst, amt) ->
      serial.(src) <- serial.(src) - amt;
      serial.(dst) <- serial.(dst) + amt)
    log;
  Array.iteri
    (fun i a -> checki (Printf.sprintf "account %d" i) serial.(i) (Resource.get a))
    accounts

let test_runtime_read_mode_snapshots () =
  (* Readers must observe exactly the value left by the preceding writer in
     log order. *)
  let cell = Resource.create 0 in
  let n_rounds = 200 and readers_per_round = 3 in
  let snapshots = Array.make (n_rounds * readers_per_round) (-1) in
  let t = Runtime.create ~workers:4 () in
  for round = 0 to n_rounds - 1 do
    Runtime.schedule t
      (Footprint.of_list [ Resource.write cell ])
      (fun () -> Resource.set cell (round + 1));
    for rd = 0 to readers_per_round - 1 do
      let idx = (round * readers_per_round) + rd in
      Runtime.schedule t
        (Footprint.of_list [ Resource.read cell ])
        (fun () -> snapshots.(idx) <- Resource.get cell)
    done
  done;
  Runtime.shutdown t;
  Array.iteri
    (fun idx v -> checki (Printf.sprintf "snapshot %d" idx) ((idx / readers_per_round) + 1) v)
    snapshots

exception Boom of int

let test_runtime_failure_injection () =
  (* raising procedures must not wedge the runtime: dependents still run,
     failures are recorded in log order *)
  let t = Runtime.create ~workers:3 () in
  let r = Resource.create 0 in
  let fp = Footprint.of_slots [ Resource.slot r ] in
  for i = 0 to 99 do
    if i mod 10 = 3 then Runtime.schedule t fp (fun () -> raise (Boom i))
    else Runtime.schedule t fp (fun () -> Resource.update r succ)
  done;
  Runtime.drain t;
  checki "all requests completed" 100 (Runtime.completed t);
  checki "non-failing ops applied" 90 (Resource.get r);
  let fs = Runtime.failures t in
  checki "ten failures" 10 (List.length fs);
  List.iteri
    (fun idx (seqno, e) ->
      checki "failure position" ((idx * 10) + 3) seqno;
      checkb "right exception" true (e = Boom seqno))
    fs;
  Runtime.shutdown t

let test_runtime_failure_in_yield_step () =
  let t = Runtime.create ~workers:2 () in
  let r = Resource.create 0 in
  let fp = Footprint.of_slots [ Resource.slot r ] in
  Runtime.schedule_steps t fp (fun () ->
      Resource.update r succ;
      Node.Yield (fun () -> raise (Boom 0)));
  let after = ref (-1) in
  Runtime.schedule t fp (fun () -> after := Resource.get r);
  Runtime.shutdown t;
  checki "dependent ran after failed step" 1 !after;
  checki "failure recorded" 1 (List.length (Runtime.failures t))

let test_runtime_overflow_inline_path () =
  (* tiny queues force the inline-execution overflow path: everything
     must still complete and count *)
  let t = Runtime.create ~workers:2 ~queue_capacity:2 () in
  let cells = Array.init 4 (fun _ -> Resource.create 0) in
  let n = 2_000 in
  for i = 0 to n - 1 do
    let c = cells.(i mod 4) in
    Runtime.schedule t
      (Footprint.of_slots [ Resource.slot c ])
      (fun () -> Resource.update c succ)
  done;
  Runtime.drain t;
  checki "all completed despite overflow" n (Runtime.completed t);
  checki "all applied" n (Array.fold_left (fun a c -> a + Resource.get c) 0 cells);
  Runtime.shutdown t

let test_runtime_deep_chain_small_queues () =
  (* A 10k-deep pure dependency chain through one cell, with the smallest
     legal queues: every completion re-pushes into a full queue, so the
     whole chain flows through the overflow worklist.  The old mutually
     recursive inline path consumed a stack frame per chain link and
     overflowed here. *)
  let n = 10_000 in
  let cell = Resource.create 0 in
  let fp _ = Footprint.of_slots [ Resource.slot cell ] in
  let exec id = Resource.update cell (fun v -> (v * 31) + id + 1) in
  Runtime.run_log ~workers:2 ~queue_capacity:2 fp exec (Array.init n Fun.id);
  let expected = ref 0 in
  for id = 0 to n - 1 do
    expected := (!expected * 31) + id + 1
  done;
  checki "matches the serial fold" !expected (Resource.peek cell)

(* qcheck: spawner ordering — for any random all-write log, a request
   never becomes runnable before every earlier conflicting request has
   completed (checked via the wave schedule) *)
let prop_spawner_respects_conflicts =
  QCheck.Test.make ~name:"spawner: conflicting requests execute in log order" ~count:100
    QCheck.(pair (int_range 1 1_000_000) (int_range 1 6))
    (fun (seed, n_slots) ->
      let r = Random.State.make [| seed |] in
      let slots = Array.init n_slots (fun _ -> Slot.create ()) in
      let fps =
        List.init 40 (fun _ ->
            let k = 1 + Random.State.int r 3 in
            Footprint.of_slots
              (List.init k (fun _ -> slots.(Random.State.int r n_slots))))
      in
      let nodes, ready = build_dag fps in
      let wave = drain_in_waves nodes ready in
      let arr = Array.of_list fps in
      let ok = ref true in
      for i = 0 to Array.length arr - 1 do
        for j = i + 1 to Array.length arr - 1 do
          let conflict = ref false in
          Footprint.iter arr.(i) (fun s _ -> if Footprint.mem arr.(j) s then conflict := true);
          if !conflict && wave.(j) <= wave.(i) then ok := false
        done
      done;
      !ok)

(* qcheck determinism property over random logs and worker counts *)
let prop_runtime_deterministic =
  QCheck.Test.make ~name:"parallel replay = serial replay" ~count:25
    QCheck.(triple (int_range 1 4) (int_range 1 1_000_000) (int_range 1 12))
    (fun (workers, seed, n_resources) ->
      let log = make_log ~seed ~n:800 ~n_resources ~keys_per_req:3 in
      let expected = run_serial ~n_resources log in
      let got = run_parallel ~workers ~n_resources log in
      expected = got)

(* two parallel runs with different worker counts agree with each other *)
let prop_runtime_worker_count_invariant =
  QCheck.Test.make ~name:"outcome independent of worker count" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let log = make_log ~seed ~n:600 ~n_resources:8 ~keys_per_req:3 in
      let a = run_parallel ~workers:1 ~n_resources:8 log in
      let b = run_parallel ~workers:3 ~n_resources:8 log in
      a = b)

(* ------------------------------------------------------------------ *)
(* Spin, then park                                                     *)
(* ------------------------------------------------------------------ *)

module Obs = Doradd_obs
module Sequencer = Doradd_replication.Sequencer

let c_sleep = Obs.Counters.counter "parker.sleep"

(* Far past Doradd_queue.Parker.spin_budget: every idle consumer parks. *)
let idle_period = 0.05

(* Poll [cond] for up to [seconds], so a lost wakeup fails a check
   instead of hanging the suite. *)
let within ~seconds cond =
  let deadline = Unix.gettimeofday () +. seconds in
  while (not (cond ())) && Unix.gettimeofday () < deadline do
    Thread.delay 0.001
  done;
  cond ()

let returns_within ~seconds f =
  let finished = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        f ();
        Atomic.set finished true)
      ()
  in
  let ok = within ~seconds (fun () -> Atomic.get finished) in
  if ok then Thread.join th;
  ok

(* Start an instance and leave it idle with tracing armed, so Parker
   counts its sleepers; returns the instance and that count. *)
let start_idle start =
  let before = Obs.Counters.value c_sleep in
  Obs.Trace.arm ();
  let t =
    Fun.protect ~finally:Obs.Trace.disarm (fun () ->
        let t = start () in
        Thread.delay idle_period;
        t)
  in
  Obs.Trace.clear ();
  (t, Obs.Counters.value c_sleep - before)

(* Three bursts separated by idle periods: the consumers park between
   them and every burst has to wake them. *)
let bursts ~n submit =
  for i = 0 to n - 1 do
    if i > 0 && i mod (n / 3) = 0 then Thread.delay idle_period;
    submit i
  done

let test_runtime_park_then_burst () =
  let t, slept = start_idle (fun () -> Runtime.create ~workers:2 ()) in
  checkb "idle workers parked" true (slept >= 1);
  let cells = Array.init 8 (fun _ -> Resource.create 0) in
  let n = 3_000 in
  bursts ~n (fun i ->
      let c = cells.(i mod 8) in
      Runtime.schedule t (Footprint.of_slots [ Resource.slot c ]) (fun () -> Resource.update c succ));
  checkb "every request completes" true (within ~seconds:10. (fun () -> Runtime.completed t = n));
  checki "every request applied" n (Array.fold_left (fun a c -> a + Resource.peek c) 0 cells);
  Thread.delay idle_period;
  checkb "shutdown of a parked runtime returns within 1 s" true
    (returns_within ~seconds:1. (fun () -> Runtime.shutdown t))

let test_sharded_park_then_burst () =
  (* inputs larger than the run, so a dispatcher that never wakes fails
     the completion check instead of blocking [schedule] *)
  let t, slept =
    start_idle (fun () -> Sharded_runtime.create ~input_capacity:4096 ~shards:2 ())
  in
  checkb "idle dispatchers and workers parked" true (slept >= 2);
  let cells = Array.init 8 (fun _ -> Resource.create 0) in
  let n = 3_000 in
  (* every fifth request spans two cells, usually on different shards *)
  bursts ~n (fun i ->
      let a = cells.(i mod 8) and b = cells.((i + 3) mod 8) in
      if i mod 5 = 0 then
        Sharded_runtime.schedule t
          (Footprint.of_slots [ Resource.slot a; Resource.slot b ])
          (fun () ->
            Resource.update a succ;
            Resource.update b succ)
      else Sharded_runtime.schedule t (Footprint.of_slots [ Resource.slot a ]) (fun () -> Resource.update a succ));
  checkb "every request completes" true
    (within ~seconds:10. (fun () -> Sharded_runtime.completed t = n));
  checki "every request applied" (n + ((n + 4) / 5))
    (Array.fold_left (fun a c -> a + Resource.peek c) 0 cells);
  Thread.delay idle_period;
  checkb "shutdown of a parked sharded runtime returns within 1 s" true
    (returns_within ~seconds:1. (fun () -> Sharded_runtime.shutdown t))

(* A saturated runtime (Runtime.saturated) keeps its idle worker
   polling: one request occupies a worker until released and 300 more
   wait behind it on the same cell.  A request on another cell then
   wakes the other worker, which runs it and, with nothing runnable,
   must not park while the 301 are unfinished.  Once they complete, a
   worker woken by one more request parks again. *)
let test_runtime_saturated_polls () =
  let t = Runtime.create ~workers:2 () in
  let cell = Resource.create 0 in
  let fp = Footprint.of_slots [ Resource.slot cell ] in
  let release = Atomic.make false in
  let started = Atomic.make false in
  Runtime.schedule t fp (fun () ->
      Atomic.set started true;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done);
  let n = 300 in
  for _ = 1 to n do
    Runtime.schedule t fp (fun () -> Resource.update cell succ)
  done;
  checkb "saturated" true (Runtime.saturated t);
  checkb "blocker running" true (within ~seconds:5. (fun () -> Atomic.get started));
  let other = Resource.create 0 in
  let held, slept =
    start_idle (fun () ->
        Runtime.schedule t (Footprint.of_slots [ Resource.slot other ]) (fun () ->
            Resource.update other succ);
        Runtime.saturated t)
  in
  checki "the other worker ran" 1 (Resource.peek other);
  Atomic.set release true;
  checkb "still saturated while held" true held;
  checki "no worker parked while saturated" 0 slept;
  checkb "every request completes" true (within ~seconds:10. (fun () -> Runtime.completed t = n + 2));
  checki "every request applied" n (Resource.peek cell);
  checkb "no longer saturated" false (Runtime.saturated t);
  (* one more request wakes a worker, which must park once it is done *)
  let (), slept =
    start_idle (fun () ->
        Runtime.schedule t (Footprint.of_slots [ Resource.slot other ]) (fun () ->
            Resource.update other succ))
  in
  checki "the woken worker ran" 2 (Resource.peek other);
  checkb "idle workers park again" true (slept >= 1);
  checkb "shutdown returns within 1 s" true
    (returns_within ~seconds:1. (fun () -> Runtime.shutdown t))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_sequencer_park_then_burst ~durable () =
  let dir = Filename.temp_dir "doradd_test_core" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let wal = if durable then Some (Doradd_persist.Wal.open_ ~fsync:false ~dir ()) else None in
  let durability = Option.map (fun wal -> { Sequencer.wal; encode = string_of_int }) wal in
  let delivered = Atomic.make 0 in
  let seq, slept =
    start_idle (fun () ->
        Sequencer.create ?durability ~deliver:(fun ~seqno:_ _ -> Atomic.incr delivered) ())
  in
  checkb "idle sequencer parked" true (slept >= 1);
  let n = 3_000 in
  bursts ~n (Sequencer.submit seq);
  checkb "every request delivered" true (within ~seconds:10. (fun () -> Atomic.get delivered = n));
  Thread.delay idle_period;
  checkb "stop of a parked sequencer returns within 1 s" true
    (returns_within ~seconds:1. (fun () -> Sequencer.stop seq));
  checkb "log is the submission order" true (Sequencer.log seq = Array.init n Fun.id);
  if durable then checki "every request durable" (n - 1) (Sequencer.durable_watermark seq);
  Option.iter Doradd_persist.Wal.close wal

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

(* A small keyed-counter service: inputs are (req_id, key list); the
   indexer resolves keys against a table of resources. *)
type pipe_entry = {
  mutable req_id : int;
  mutable keys : int list;
  mutable resolved : int Resource.t list;
}

(* like pipe_service but the work adds the request id (commutative) *)
let pipe_service_add cells applied =
  {
    Service.entry_create = (fun _ -> { req_id = -1; keys = []; resolved = [] });
    dummy_input = (-1, []);
    inject =
      (fun e (id, keys) ->
        e.req_id <- id;
        e.keys <- keys;
        e.resolved <- []);
    index = (fun e -> e.resolved <- List.map (fun k -> cells.(k)) e.keys);
    prefetch = (fun e -> List.iter Service.touch e.resolved);
    footprint = (fun e -> Footprint.of_slots (List.map Resource.slot e.resolved));
    work =
      (fun e ->
        let id = e.req_id and resolved = e.resolved in
        fun () ->
          List.iter (fun r -> Resource.update r (fun v -> v + id)) resolved;
          Atomic.incr applied);
  }

let pipe_service cells applied =
  {
    Service.entry_create = (fun _ -> { req_id = -1; keys = []; resolved = [] });
    dummy_input = (-1, []);
    inject =
      (fun e (id, keys) ->
        e.req_id <- id;
        e.keys <- keys;
        e.resolved <- []);
    index = (fun e -> e.resolved <- List.map (fun k -> cells.(k)) e.keys);
    prefetch = (fun e -> List.iter Service.touch e.resolved);
    footprint = (fun e -> Footprint.of_slots (List.map Resource.slot e.resolved));
    work =
      (fun e ->
        (* capture: the entry is recycled after spawn *)
        let id = e.req_id and resolved = e.resolved in
        fun () ->
          List.iter (fun r -> Resource.update r (fun v -> apply_op v id)) resolved;
          Atomic.incr applied);
  }

let run_pipeline_variant stages () =
  let n_resources = 20 in
  let log = make_log ~seed:11 ~n:3_000 ~n_resources ~keys_per_req:3 in
  let cells = Array.init n_resources (fun _ -> Resource.create 0) in
  let applied = Atomic.make 0 in
  let runtime = Runtime.create ~workers:2 () in
  let pipe = Pipeline.start ~stages ~runtime (pipe_service cells applied) in
  Array.iter (fun req -> Pipeline.submit pipe req) log;
  Pipeline.flush_and_stop pipe;
  checki "all spawned" (Array.length log) (Pipeline.spawned pipe);
  Runtime.shutdown runtime;
  checki "all applied" (Array.length log) (Atomic.get applied);
  let expected = run_serial ~n_resources log in
  Alcotest.check (Alcotest.array Alcotest.int) "pipeline = serial" expected
    (Array.map Resource.get cells)

let test_pipeline_bursty_input () =
  (* adaptive batching: partial batches must flow through promptly when
     the input goes quiet between bursts *)
  let n_resources = 8 in
  let cells = Array.init n_resources (fun _ -> Resource.create 0) in
  let applied = Atomic.make 0 in
  let runtime = Runtime.create ~workers:2 () in
  let pipe = Pipeline.start ~stages:Pipeline.Three_core ~runtime (pipe_service cells applied) in
  for burst = 0 to 19 do
    (* bursts of 1..5 requests, smaller than the max batch of 8 *)
    for i = 0 to burst mod 5 do
      Pipeline.submit pipe ((burst * 10) + i, [ (burst + i) mod n_resources ])
    done;
    (* wait until this burst has been fully executed before sending the
       next: forces partial-batch forwarding every time *)
    let expected = Atomic.get applied + 1 + (burst mod 5) in
    let b = Doradd_queue.Backoff.create () in
    while Atomic.get applied < expected do
      Doradd_queue.Backoff.once b
    done
  done;
  Pipeline.flush_and_stop pipe;
  Runtime.shutdown runtime;
  checki "all bursts applied" 60 (Atomic.get applied)

let test_pipeline_concurrent_submitters () =
  (* several client threads submit concurrently: the input queue is the
     serialization point.  The op is commutative (addition), so any
     interleaving yields the same final state, which we can check. *)
  let cell = Resource.create 0 in
  let cells = [| cell |] in
  let applied = Atomic.make 0 in
  let runtime = Runtime.create ~workers:2 () in
  let pipe = Pipeline.start ~stages:Pipeline.Two_core ~runtime (pipe_service_add cells applied) in
  let producers = 3 and per_producer = 2_000 in
  let domains =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 1 to per_producer do
              Pipeline.submit pipe ((p * per_producer) + i, [ 0 ])
            done))
  in
  Array.iter Domain.join domains;
  Pipeline.flush_and_stop pipe;
  Runtime.shutdown runtime;
  checki "all spawned" (producers * per_producer) (Pipeline.spawned pipe);
  (* sum of (p*per+i) over all p, i *)
  let expected = ref 0 in
  for p = 0 to producers - 1 do
    for i = 1 to per_producer do
      expected := !expected + (p * per_producer) + i
    done
  done;
  checki "commutative total" !expected (Resource.get cell)

let test_pipeline_core_counts () =
  checki "one" 1 (Pipeline.core_count Pipeline.One_core);
  checki "one-np" 1 (Pipeline.core_count Pipeline.One_core_no_prefetch);
  checki "two" 2 (Pipeline.core_count Pipeline.Two_core);
  checki "three" 3 (Pipeline.core_count Pipeline.Three_core);
  checki "four" 4 (Pipeline.core_count Pipeline.Four_core)

let test_pipeline_empty_flush () =
  let runtime = Runtime.create ~workers:1 () in
  let cells = Array.init 1 (fun _ -> Resource.create 0) in
  let pipe =
    Pipeline.start ~stages:Pipeline.Three_core ~runtime (pipe_service cells (Atomic.make 0))
  in
  Pipeline.flush_and_stop pipe;
  checki "nothing spawned" 0 (Pipeline.spawned pipe);
  Runtime.shutdown runtime

let test_pipeline_try_submit () =
  let runtime = Runtime.create ~workers:1 () in
  let cells = Array.init 1 (fun _ -> Resource.create 0) in
  let applied = Atomic.make 0 in
  let pipe = Pipeline.start ~stages:Pipeline.One_core ~runtime (pipe_service cells applied) in
  checkb "accepts" true (Pipeline.try_submit pipe (0, [ 0 ]));
  Pipeline.flush_and_stop pipe;
  Runtime.shutdown runtime;
  checki "applied" 1 (Atomic.get applied)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [
      ( "node",
        [
          tc "dispatch guard" `Quick test_node_guard;
          tc "dependency flow" `Quick test_node_dependency_flow;
          tc "register after done" `Quick test_node_register_after_done;
          tc "ready order" `Quick test_node_multiple_dependents_ready_order;
          tc "double complete rejected" `Quick test_node_double_complete_rejected;
          tc "pool recycles nodes" `Quick test_node_pool_recycles;
          tc "stale slot reference ignored" `Quick test_node_pool_stale_slot_reference;
          tc "diamond" `Quick test_node_diamond;
        ] );
      ( "footprint",
        [
          tc "dedup" `Quick test_footprint_dedup;
          tc "write dominates" `Quick test_footprint_write_dominates;
          tc "sorted" `Quick test_footprint_sorted_by_id;
          tc "empty" `Quick test_footprint_empty;
          tc "mem" `Quick test_footprint_mem;
          QCheck_alcotest.to_alcotest prop_footprint_normal_form;
        ] );
      ( "spawner",
        [
          tc "figure 4 DAG" `Quick test_spawner_figure4;
          tc "conflict chain serialises" `Quick test_spawner_chain;
          tc "independent requests parallel" `Quick test_spawner_independent;
          tc "empty footprint" `Quick test_spawner_empty_footprint;
          tc "self duplicate" `Quick test_spawner_self_duplicate;
          tc "readers share" `Quick test_spawner_readers_share;
          tc "all-write serialises" `Quick test_spawner_all_write_serializes_reads;
          tc "writer waits all readers" `Quick test_spawner_writer_waits_all_readers;
          QCheck_alcotest.to_alcotest prop_spawner_respects_conflicts;
        ] );
      ( "runnable-set",
        [
          tc "round robin" `Quick test_runnable_set_round_robin;
          tc "own queue" `Quick test_runnable_set_worker_own_queue;
          tc "steal" `Quick test_runnable_set_steal;
          tc "overflow runs inline" `Quick test_runnable_set_overflow_runs_inline;
        ] );
      ( "runtime",
        [
          tc "matches serial (1 worker)" `Slow (test_runtime_matches_serial 1);
          tc "matches serial (2 workers)" `Slow (test_runtime_matches_serial 2);
          tc "matches serial (4 workers)" `Slow (test_runtime_matches_serial 4);
          tc "contended single key" `Slow test_runtime_contended_single_key;
          tc "counters" `Quick test_runtime_counters;
          tc "empty shutdown" `Quick test_runtime_empty_shutdown;
          tc "workers validation" `Quick test_runtime_workers_validation;
          tc "bank invariant" `Slow test_runtime_bank_invariant;
          tc "read-mode snapshots" `Slow test_runtime_read_mode_snapshots;
          tc "failure injection" `Quick test_runtime_failure_injection;
          tc "failure in yield step" `Quick test_runtime_failure_in_yield_step;
          tc "overflow inline path" `Slow test_runtime_overflow_inline_path;
          tc "deep chain, tiny queues" `Slow test_runtime_deep_chain_small_queues;
          QCheck_alcotest.to_alcotest prop_runtime_deterministic;
          QCheck_alcotest.to_alcotest prop_runtime_worker_count_invariant;
        ] );
      ( "park",
        [
          tc "runtime: idle, burst, shutdown" `Quick test_runtime_park_then_burst;
          tc "sharded runtime: idle, burst, shutdown" `Quick test_sharded_park_then_burst;
          tc "saturated runtime: poll, then park" `Quick test_runtime_saturated_polls;
          tc "sequencer: idle, burst, stop" `Quick (test_sequencer_park_then_burst ~durable:false);
          tc "durable sequencer: idle, burst, stop" `Quick
            (test_sequencer_park_then_burst ~durable:true);
        ] );
      ( "pipeline",
        [
          tc "core counts" `Quick test_pipeline_core_counts;
          tc "one-core variant" `Slow (run_pipeline_variant Pipeline.One_core);
          tc "one-core-no-prefetch variant" `Slow (run_pipeline_variant Pipeline.One_core_no_prefetch);
          tc "two-core variant" `Slow (run_pipeline_variant Pipeline.Two_core);
          tc "three-core variant" `Slow (run_pipeline_variant Pipeline.Three_core);
          tc "four-core variant" `Slow (run_pipeline_variant Pipeline.Four_core);
          tc "bursty input" `Slow test_pipeline_bursty_input;
          tc "concurrent submitters" `Slow test_pipeline_concurrent_submitters;
          tc "empty flush" `Quick test_pipeline_empty_flush;
          tc "try submit" `Quick test_pipeline_try_submit;
        ] );
    ]
