(* Bounded scenarios over the REAL lock-free kernel code.

   Every scenario instantiates the production functor ([Spsc.Make],
   [Mpmc.Make], [Node.Make], [Sequencer.Publication.Make],
   [Waitset.Make], [Parker.Make]) with the
   traced atomic, so the checker enumerates interleavings of exactly the
   shipped algorithms — no reimplemented models.  Scenarios use only the
   bounded, non-blocking operations (try_push / pop_into / batches):
   their executions are finite by construction, and the lock-free retry
   loops (ticket CASes) terminate because a retry implies another
   process made progress.

   [planted] scenarios are deliberately buggy twins wired to hidden
   checker-only entry points ([Mpmc.unsafe_create_exact],
   [Node.unsafe_acquire_skipping_gen]); [chk.exe --self-test] asserts
   the explorer finds each one and that the shrunk counterexample
   replays.  They double as end-to-end proof that the exploration is
   actually exercising the interleavings it claims to. *)

module Spsc = Doradd_queue.Spsc.Make (Tatomic)
module Mpmc = Doradd_queue.Mpmc.Make (Tatomic)
module Node = Doradd_core.Node.Make (Tatomic)
module Pub = Doradd_replication.Sequencer.Publication.Make (Tatomic)
module Waitset = Doradd_core.Waitset.Make (Tatomic)
module Parker = Doradd_queue.Parker.Make (Tatomic)

type t = {
  name : string;
  descr : string;
  planted : bool;  (* buggy twin: run only by --self-test *)
  expect : string option;  (* violation --self-test must find *)
  make : bound:int -> Engine.program;
}

let ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let rec is_suffix s l = s == l || s = l || (match l with [] -> false | _ :: tl -> is_suffix s tl)

(* -- SPSC ------------------------------------------------------------- *)

let spsc_drain q =
  let rec go acc = match Spsc.try_pop q with Some v -> go (v :: acc) | None -> List.rev acc in
  go []

let spsc_push_pop ~bound () =
  let q = Spsc.create ~dummy:0 ~capacity:2 in
  let pushed = ref [] and popped = ref [] in
  let producer () =
    for i = 1 to bound do
      if Spsc.try_push q i then pushed := i :: !pushed
    done
  in
  let consumer () =
    let last = ref 0 in
    for _ = 1 to bound do
      match Spsc.try_pop q with
      | Some v ->
        Tatomic.check "spsc-fifo-order" (v > !last);
        last := v;
        popped := v :: !popped
      | None -> ()
    done
  in
  {
    Engine.processes = [| producer; consumer |];
    final_check =
      (fun () ->
        let remaining = spsc_drain q in
        Tatomic.check "spsc-conservation" (List.rev !pushed = List.rev !popped @ remaining));
    digest = (fun () -> Printf.sprintf "pushed=%s popped=%s" (ints (List.rev !pushed)) (ints (List.rev !popped)));
  }

let spsc_batch ~bound () =
  let q = Spsc.create ~dummy:0 ~capacity:4 in
  let pushed = ref [] and popped = ref [] in
  let producer () =
    for b = 0 to bound - 1 do
      let items = [| (2 * b) + 1; (2 * b) + 2 |] in
      if Spsc.push_batch q items ~len:2 then pushed := items.(1) :: items.(0) :: !pushed
    done
  in
  let consumer () =
    let scratch = Array.make 2 0 in
    let last = ref 0 in
    for _ = 1 to bound do
      let k = Spsc.pop_batch_into q scratch in
      (* a batch publish is one tail store: a drain must never observe a
         torn batch (first element without its partner already visible) *)
      for i = 0 to k - 1 do
        Tatomic.check "spsc-batch-order" (scratch.(i) > !last);
        last := scratch.(i);
        popped := scratch.(i) :: !popped
      done
    done
  in
  {
    Engine.processes = [| producer; consumer |];
    final_check =
      (fun () ->
        let remaining = spsc_drain q in
        Tatomic.check "spsc-batch-conservation"
          (List.rev !pushed = List.rev !popped @ remaining));
    digest = (fun () -> Printf.sprintf "pushed=%s popped=%s" (ints (List.rev !pushed)) (ints (List.rev !popped)));
  }

let spsc_out_alias ~bound () =
  let q = Spsc.create ~dummy:0 ~capacity:2 in
  let failures = ref 0 and successes = ref 0 in
  let producer () =
    for i = 1 to bound do
      ignore (Spsc.try_push q i)
    done
  in
  let consumer () =
    (* one reused out-cell, the zero-alloc hot-path discipline: a failed
       pop_into must leave the previous element in place, a successful
       one must overwrite it with the next (strictly larger) element *)
    let out = Spsc.make_out q in
    for _ = 1 to bound + 1 do
      let before = out.Spsc.value in
      if Spsc.pop_into q out then begin
        Tatomic.check "spsc-out-stale-overwrite" (out.Spsc.value > before);
        incr successes
      end
      else begin
        Tatomic.check "spsc-out-clobbered-on-empty" (out.Spsc.value == before);
        incr failures
      end
    done
  in
  {
    Engine.processes = [| producer; consumer |];
    final_check = (fun () -> ());
    digest = (fun () -> Printf.sprintf "pops=%d empties=%d left=%s" !successes !failures (ints (spsc_drain q)));
  }

(* -- MPMC ------------------------------------------------------------- *)

let mpmc_drain q =
  let rec go acc = match Mpmc.try_pop q with Some v -> go (v :: acc) | None -> List.rev acc in
  go []

(* 2 producers x 2 consumers.  Per-process item count grows with the
   bound but slower (4 concurrent processes: the interleaving space is
   the steepest in the registry). *)
let mpmc_2x2 ~bound () =
  let items = max 1 (bound / 2) in
  let q = Mpmc.create ~dummy:0 ~capacity:2 in
  let p1 = ref [] and p2 = ref [] and c1 = ref [] and c2 = ref [] in
  let producer base acc () =
    for i = 1 to items do
      if Mpmc.try_push q (base + i) then acc := (base + i) :: !acc
    done
  in
  let consumer acc () =
    let out = Mpmc.make_out q in
    let last1 = ref 0 and last2 = ref 0 in
    for _ = 1 to items do
      if Mpmc.pop_into q out then begin
        let v = out.Mpmc.value in
        (* each consumer's pops take increasing tickets, so values from
           one producer must reach one consumer in production order *)
        let last = if v >= 200 then last2 else last1 in
        Tatomic.check "mpmc-per-producer-fifo" (v > !last);
        last := v;
        acc := v :: !acc
      end
    done
  in
  {
    Engine.processes =
      [| producer 100 p1; producer 200 p2; consumer c1; consumer c2 |];
    final_check =
      (fun () ->
        let sort = List.sort compare in
        let popped = !c1 @ !c2 @ mpmc_drain q in
        Tatomic.check "mpmc-conservation" (sort (!p1 @ !p2) = sort popped));
    digest =
      (fun () ->
        Printf.sprintf "p1=%s p2=%s c1=%s c2=%s" (ints (List.rev !p1)) (ints (List.rev !p2))
          (ints (List.rev !c1)) (ints (List.rev !c2)));
  }

(* The capacity-1 guard: [create ~capacity:1] must round up to 2 slots
   (Vyukov's scheme cannot represent full-vs-empty with one slot) and
   never overcommit.  The planted twin below skips the rounding. *)
let mpmc_cap1_make create_fn ~bound:_ () =
  let q = create_fn ~dummy:0 ~capacity:1 in
  let ok1 = ref false and ok2 = ref false in
  let p1 () = ok1 := Mpmc.try_push q 1 in
  let p2 () = ok2 := Mpmc.try_push q 2 in
  {
    Engine.processes = [| p1; p2 |];
    final_check =
      (fun () ->
        let successes = (if !ok1 then 1 else 0) + if !ok2 then 1 else 0 in
        Tatomic.check "mpmc-capacity-overcommit" (successes <= Mpmc.capacity q));
    digest = (fun () -> Printf.sprintf "ok1=%b ok2=%b" !ok1 !ok2);
  }

(* -- node pool (generation-snapshot safety) --------------------------- *)

(* The Spawner's stale-slot discipline: a reference captured before a
   node was recycled is detected by the generation counter.  A stale
   (node, generation, seqno) snapshot that still "validates" (node not
   done, generation matches) must still describe the original request.
   The planted twin reacquires without bumping the generation, so the
   snapshot validates against the reincarnated node. *)
let pool_recycle_make reacquire ~bound:_ () =
  let pool = Node.create_pool ~nodes:1 ~cells:0 in
  let n0 = Node.acquire pool ~seqno:0 (fun () -> ()) in
  let stale_gen = Node.generation n0 in
  let worker () =
    Node.complete n0 ~on_ready:(fun _ -> ());
    Node.recycle n0
  in
  let dispatcher () = ignore (reacquire pool ~seqno:1 (fun () -> ())) in
  let observer () =
    for _ = 1 to 2 do
      (* is_done is the traced read; the generation/seqno plain reads sit
         in the segment it opens, exactly like the Spawner's check *)
      if (not (Node.is_done n0)) && Node.generation n0 = stale_gen then
        Tatomic.check "pool-stale-generation" (Node.seqno n0 = 0)
    done
  in
  {
    Engine.processes = [| worker; dispatcher; observer |];
    final_check = (fun () -> ());
    digest =
      (fun () ->
        Printf.sprintf "gen=%d seqno=%d done=%b" (Node.generation n0) (Node.seqno n0)
          (Node.is_done n0));
  }

(* -- sequencer publication (append-before-deliver) -------------------- *)

let seq_watermark ~bound () =
  let p = Pub.create () in
  let delivered = ref [] in
  let writer () =
    for i = 1 to bound do
      Pub.publish p i ~deliver:(fun r -> delivered := r :: !delivered)
    done
  in
  let reader () =
    let last_d = ref 0 and last_log = ref [] in
    for _ = 1 to bound + 1 do
      let d, log = Pub.snapshot p in
      Tatomic.check "seq-watermark-le-log" (List.length log >= d);
      Tatomic.check "seq-watermark-monotonic" (d >= !last_d);
      Tatomic.check "seq-log-prefix-stable" (is_suffix !last_log log);
      last_d := d;
      last_log := log
    done
  in
  {
    Engine.processes = [| writer; reader |];
    final_check =
      (fun () ->
        Tatomic.check "seq-final-watermark" (Pub.delivered p = bound);
        Tatomic.check "seq-final-log"
          (Pub.log_newest_first p = List.init bound (fun i -> bound - i));
        Tatomic.check "seq-delivery-order" (List.rev !delivered = List.init bound (fun i -> i + 1)));
    digest =
      (fun () ->
        let d, log = Pub.snapshot p in
        Printf.sprintf "delivered=%d log=%s" d (ints log));
  }

(* -- cross-shard sequence-number merge -------------------------------- *)

(* The sharded runtime's cross-shard protocol (lib/core/sharded_runtime)
   on two shards, with traced atomics at exactly the shipped algorithm's
   synchronisation points: an arrivals counter (fetch_and_add) and a
   committed flag.  Each shard commits a local pre-suffix, then its
   participant of one cross-shard transaction arrives; the LAST arriver —
   and only it — runs the body and commits the transaction at its merged
   position on both shards, then releases both post-suffixes (the model
   of the parked participant resuming: a bounded checker cannot spin on
   the committed flag, so the releases are driven by the committer).

   The watermark-agreement invariant: when the body runs, both shards'
   watermarks sit exactly at their pre-suffix maxima — every lower stamp
   committed, nothing past the merge point.  The planted twin runs the
   body eagerly on the FIRST arrival (the bug the arrivals counter
   exists to prevent); schedules where the partner shard's pre-suffix
   has not yet committed then violate merge-agreement. *)
let shard_merge_make eager ~bound () =
  let pre = min (max bound 1) 2 in
  (* global stamps: shard 0 pre = 0..pre-1, shard 1 pre = pre..2pre-1,
     cross = 2pre, posts above it *)
  let pre_max0 = pre - 1 and pre_max1 = (2 * pre) - 1 in
  let cross = 2 * pre in
  let post0 = cross + 1 and post1 = cross + 2 in
  let w0 = Tatomic.make (-1) and w1 = Tatomic.make (-1) in
  let arrivals = Tatomic.make 0 in
  let body_runs = Tatomic.make 0 in
  let committed = Tatomic.make false in
  let commit w st =
    Tatomic.check "shard-watermark-monotone" (Tatomic.get w < st);
    Tatomic.set w st
  in
  let run_body () =
    Tatomic.check "merge-agreement"
      (Tatomic.get w0 = pre_max0 && Tatomic.get w1 = pre_max1 && not (Tatomic.get committed));
    Tatomic.incr body_runs;
    Tatomic.set committed true;
    (* the cross transaction commits at its merged position on BOTH
       shards, then the committer releases both post-suffixes *)
    commit w0 cross;
    commit w1 cross;
    commit w0 post0;
    commit w1 post1
  in
  let arrive () =
    let a = Tatomic.fetch_and_add arrivals 1 in
    if eager && a = 0 then run_body () (* planted: doesn't wait for the partner *)
    else if a = 1 && not (Tatomic.get committed) then run_body ()
  in
  let shard0 () =
    for st = 0 to pre_max0 do
      commit w0 st
    done;
    arrive ()
  in
  let shard1 () =
    for st = pre to pre_max1 do
      commit w1 st
    done;
    arrive ()
  in
  {
    Engine.processes = [| shard0; shard1 |];
    final_check =
      (fun () ->
        Tatomic.check "merge-committed" (Tatomic.get committed);
        Tatomic.check "merge-exactly-once" (Tatomic.get body_runs = 1);
        Tatomic.check "merge-final-watermarks"
          (Tatomic.get w0 = post0 && Tatomic.get w1 = post1));
    digest =
      (fun () ->
        Printf.sprintf "w0=%d w1=%d runs=%d arrivals=%d" (Tatomic.get w0) (Tatomic.get w1)
          (Tatomic.get body_runs) (Tatomic.get arrivals));
  }

(* -- waitset suspend/resume hand-off ---------------------------------- *)

(* The effects layer's park-vs-fire race (lib/core/waitset): concurrent
   waiters CAS themselves onto the trigger while the firer exchanges the
   chain for Fired.  The contract under every interleaving: a park that
   returned [true] is resumed exactly once (no lost wakeup, no double
   resume); a park that returned [false] lost to a completed fire, so the
   waiter continues inline; the one resume batch is stamp-ascending; a
   second fire is a no-op.  The planted twin parks through the
   get-then-set window ([unsafe_park_lossy]): schedules where the fire's
   exchange lands between the two bury Fired under a Waiting chain nobody
   will ever fire again — the stuck waiter trips [suspend-lost-wakeup]. *)
let suspend_handoff_make park_fn ~bound () =
  let waiters = min (max bound 1) 3 in
  let w = Waitset.create () in
  let resumed = Array.make waiters 0 in
  let parked = Array.make waiters false in
  let inline = Array.make waiters false in
  let batches = ref [] in
  let waiter i () =
    if
      park_fn w ~stamp:(i + 1) (fun () ->
          Tatomic.check "suspend-double-resume" (resumed.(i) = 0);
          resumed.(i) <- resumed.(i) + 1)
    then parked.(i) <- true
    else begin
      (* refused park: the fire must already have completed *)
      Tatomic.check "suspend-refusal-before-fire" (Waitset.fired w);
      inline.(i) <- true
    end
  in
  let firer () =
    let on_batch stamps =
      let l = Array.to_list stamps in
      batches := l :: !batches;
      Tatomic.check "suspend-batch-stamp-order" (List.sort compare l = l)
    in
    Waitset.fire ~on_batch w;
    (* a second fire obtains Fired from the exchange: no second batch *)
    Waitset.fire ~on_batch w
  in
  {
    Engine.processes = Array.init (waiters + 1) (fun i -> if i < waiters then waiter i else firer);
    final_check =
      (fun () ->
        for i = 0 to waiters - 1 do
          if parked.(i) then Tatomic.check "suspend-lost-wakeup" (resumed.(i) = 1)
          else begin
            Tatomic.check "suspend-inline-continue" inline.(i);
            Tatomic.check "suspend-double-resume" (resumed.(i) = 0)
          end
        done;
        Tatomic.check "suspend-single-batch" (List.length !batches <= 1);
        Tatomic.check "suspend-fired" (Waitset.fired w));
    digest =
      (fun () ->
        Printf.sprintf "parked=%s resumed=%s batches=%d"
          (ints (List.filter_map (fun i -> if parked.(i) then Some (i + 1) else None)
               (List.init waiters Fun.id)))
          (ints (Array.to_list resumed))
          (List.length !batches));
  }

(* -- parker hand-off (spin-then-park eventcount) ----------------------- *)

(* The idle protocol of the served-path consumers (sequencer, shard
   dispatcher, workers): a consumer that polled an empty queue calls
   prepare, re-checks the queue exactly as [Parker.idle]'s [ready] does,
   and either cancels or sleeps on the ticket; the producer pushes, then
   notifies.  The checker cannot block a process, so "sleeps" is
   recorded as the decision with its ticket, leaving the waiter
   registered as a sleeping consumer would.  Lost wakeup: the consumer
   decided to sleep, the producer has finished, the item is still queued
   and the epoch never moved past the ticket — [wait] would block
   forever.  The planted twin reads the waiter count before the push
   ([unsafe_notify_early]). *)
let parker_handoff_make notify ~bound:_ () =
  let q = Spsc.create ~dummy:0 ~capacity:2 in
  let p = Parker.create () in
  let got = ref 0 and slept = ref None in
  let producer () = notify p ~publish:(fun () -> ignore (Spsc.try_push q 1)) in
  let consumer () =
    let out = Spsc.make_out q in
    if Spsc.pop_into q out then got := out.Spsc.value
    else begin
      let ticket = Parker.prepare p in
      if Spsc.length q > 0 then begin
        Parker.cancel p;
        if Spsc.pop_into q out then got := out.Spsc.value
      end
      else slept := Some ticket
    end
  in
  {
    Engine.processes = [| producer; consumer |];
    final_check =
      (fun () ->
        match !slept with
        | Some ticket ->
          Tatomic.check "parker-lost-wakeup" (Parker.signalled p ticket || Spsc.length q = 0)
        | None -> Tatomic.check "parker-consumed" (!got = 1));
    digest =
      (fun () ->
        Printf.sprintf "got=%d slept=%s queued=%d" !got
          (match !slept with Some t -> string_of_int t | None -> "-")
          (Spsc.length q));
  }

let notify_after_publish p ~publish =
  publish ();
  Parker.notify p

(* -- registry --------------------------------------------------------- *)

let all : t list =
  [
    {
      name = "spsc-push-pop";
      descr = "SPSC ring: try_push vs try_pop, FIFO + conservation";
      planted = false;
      expect = None;
      make = spsc_push_pop;
    };
    {
      name = "spsc-batch";
      descr = "SPSC ring: push_batch vs pop_batch_into, no torn batches";
      planted = false;
      expect = None;
      make = spsc_batch;
    };
    {
      name = "spsc-out-alias";
      descr = "SPSC pop_into: reused out-cell untouched on empty";
      planted = false;
      expect = None;
      make = spsc_out_alias;
    };
    {
      name = "mpmc-2x2";
      descr = "Vyukov MPMC: 2 producers x 2 consumers, conservation + per-producer FIFO";
      planted = false;
      expect = None;
      make = mpmc_2x2;
    };
    {
      name = "mpmc-cap1";
      descr = "Vyukov MPMC: capacity-1 request rounds to 2 slots, never overcommits";
      planted = false;
      expect = None;
      make = (fun ~bound -> mpmc_cap1_make (fun ~dummy ~capacity -> Mpmc.create ~dummy ~capacity) ~bound);
    };
    {
      name = "pool-recycle";
      descr = "Node pool: recycle/reacquire vs stale generation-snapshot validation";
      planted = false;
      expect = None;
      make = (fun ~bound -> pool_recycle_make Node.acquire ~bound);
    };
    {
      name = "seq-watermark";
      descr = "Sequencer publication: append-before-deliver watermark monotonicity";
      planted = false;
      expect = None;
      make = seq_watermark;
    };
    {
      name = "shard-merge";
      descr = "cross-shard merge: last arriver runs body at the agreed watermark, exactly once";
      planted = false;
      expect = None;
      make = shard_merge_make false;
    };
    {
      name = "suspend-handoff";
      descr = "waitset park vs fire: no lost wakeup, exactly-once stamp-ordered resume";
      planted = false;
      expect = None;
      make = (fun ~bound -> suspend_handoff_make Waitset.park ~bound);
    };
    {
      name = "parker-handoff";
      descr = "parker prepare/re-check vs push/notify: an idle consumer never sleeps on a queued item";
      planted = false;
      expect = None;
      make = parker_handoff_make notify_after_publish;
    };
    {
      name = "planted-mpmc-cap1";
      descr = "PLANTED: capacity-1 ring without the >=2 rounding (pre-fix Vyukov overwrite)";
      planted = true;
      expect = Some "mpmc-capacity-overcommit";
      make =
        (fun ~bound ->
          mpmc_cap1_make
            (fun ~dummy ~capacity -> Mpmc.unsafe_create_exact ~dummy ~capacity)
            ~bound);
    };
    {
      name = "planted-pool-gen";
      descr = "PLANTED: node reacquire that skips the generation bump (stale snapshot validates)";
      planted = true;
      expect = Some "pool-stale-generation";
      make = (fun ~bound -> pool_recycle_make Node.unsafe_acquire_skipping_gen ~bound);
    };
    {
      name = "planted-shard-merge";
      descr = "PLANTED: first arriver runs the cross-shard body without waiting for its partner";
      planted = true;
      expect = Some "merge-agreement";
      make = shard_merge_make true;
    };
    {
      name = "planted-suspend-lossy-park";
      descr = "PLANTED: park with a get-then-set window (racing fire buried, waiter stuck)";
      planted = true;
      expect = Some "suspend-lost-wakeup";
      make = (fun ~bound -> suspend_handoff_make Waitset.unsafe_park_lossy ~bound);
    };
    {
      name = "planted-lost-wakeup";
      descr = "PLANTED: producer reads the waiter count before publishing its push";
      planted = true;
      expect = Some "parker-lost-wakeup";
      make = parker_handoff_make Parker.unsafe_notify_early;
    };
  ]

let registry () = List.filter (fun s -> not s.planted) all
let planted () = List.filter (fun s -> s.planted) all
let find name = List.find_opt (fun s -> s.name = name) all
