(* Domain-based stress and property tests for the queue substrate, beyond
   the unit tests in test_queue.ml: sustained cross-domain traffic at tiny
   (wrap-heavy) capacities, full/empty boundary churn, and the DST fault
   hooks under concurrency.  The host may have one core — OS preemption of
   the underlying threads still interleaves the domains, so these are real
   (if slowly interleaved) concurrency tests. *)

open Doradd_queue

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* SPSC: one producer domain, one consumer domain                      *)
(* ------------------------------------------------------------------ *)

(* FIFO order, no loss, no duplication, across many wraps of a tiny ring. *)
let spsc_stress ~capacity ~items () =
  let q = Spsc.create ~dummy:0 ~capacity in
  let consumer =
    Domain.spawn (fun () ->
        let b = Backoff.create () in
        let expected = ref 0 in
        let sum = ref 0 in
        while !expected < items do
          match Spsc.try_pop q with
          | Some v ->
            Backoff.reset b;
            (* strict FIFO: the single consumer must see 0,1,2,... *)
            if v <> !expected then
              Alcotest.failf "spsc out of order: got %d expected %d" v !expected;
            sum := !sum + v;
            incr expected
          | None -> Backoff.once b
        done;
        !sum)
  in
  for i = 0 to items - 1 do
    Spsc.push q i
  done;
  let sum = Domain.join consumer in
  checki "all items, each once" (items * (items - 1) / 2) sum;
  checki "drained" 0 (Spsc.length q)

let test_spsc_stress_tiny () = spsc_stress ~capacity:2 ~items:1_200 ()

let test_spsc_stress_paper_depth () = spsc_stress ~capacity:4 ~items:1_600 ()

(* The producer's push must block (not drop) on a full ring: count how
   many try_push rejections a slow consumer provokes, then verify nothing
   was lost. *)
let test_spsc_backpressure () =
  let q = Spsc.create ~dummy:0 ~capacity:2 in
  let items = 800 in
  let consumer =
    Domain.spawn (fun () ->
        let got = ref 0 in
        let b = Backoff.create () in
        while !got < items do
          match Spsc.try_pop q with
          | Some _ ->
            Backoff.reset b;
            incr got
          | None -> Backoff.once b
        done;
        !got)
  in
  let rejected = ref 0 in
  for i = 0 to items - 1 do
    let b = Backoff.create () in
    while not (Spsc.try_push q i) do
      incr rejected;
      Backoff.once b
    done
  done;
  checki "consumer saw every item" items (Domain.join consumer);
  (* a depth-2 ring against a same-speed consumer must hit full sometimes;
     if it never did, the test exercised nothing *)
  checkb "backpressure exercised" true (!rejected > 0)

(* ------------------------------------------------------------------ *)
(* MPMC: many producer and consumer domains                            *)
(* ------------------------------------------------------------------ *)

(* No loss, no duplication under p producers / c consumers: every pushed
   value is popped exactly once.  Values are tagged per producer so
   duplicates can't cancel out in the sum. *)
let mpmc_stress ~capacity ~producers ~consumers ~per_producer () =
  let q = Mpmc.create ~dummy:0 ~capacity in
  let total = producers * per_producer in
  let popped = Atomic.make 0 in
  let seen = Array.make total (Atomic.make 0) in
  Array.iteri (fun i _ -> seen.(i) <- Atomic.make 0) seen;
  let cons =
    Array.init consumers (fun _ ->
        Domain.spawn (fun () ->
            let b = Backoff.create () in
            let continue_ = ref true in
            while !continue_ do
              (match Mpmc.try_pop q with
              | Some v ->
                Backoff.reset b;
                Atomic.incr seen.(v);
                Atomic.incr popped
              | None -> Backoff.once b);
              if Atomic.get popped >= total then continue_ := false
            done))
  in
  let prods =
    Array.init producers (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to per_producer - 1 do
              Mpmc.push q ((p * per_producer) + i)
            done))
  in
  Array.iter Domain.join prods;
  Array.iter Domain.join cons;
  checki "popped count" total (Atomic.get popped);
  Array.iteri
    (fun v c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "value %d popped %d times (want exactly 1)" v (Atomic.get c))
    seen;
  checki "drained" 0 (Mpmc.length q)

let test_mpmc_stress_2p2c () = mpmc_stress ~capacity:4 ~producers:2 ~consumers:2 ~per_producer:500 ()

let test_mpmc_stress_3p1c () = mpmc_stress ~capacity:2 ~producers:3 ~consumers:1 ~per_producer:500 ()

let test_mpmc_stress_1p3c () = mpmc_stress ~capacity:16 ~producers:1 ~consumers:3 ~per_producer:1_500 ()

(* Fault hooks under concurrency: arm a deterministic per-probe pattern on
   both sides while domains hammer the queue.  Spurious full/empty must
   only delay clients that retry — never lose or duplicate an element —
   and clear_faults must restore clean behaviour. *)
let test_mpmc_faults_no_loss () =
  let q = Mpmc.create ~dummy:0 ~capacity:4 in
  let push_probes = Atomic.make 0 and pop_probes = Atomic.make 0 in
  Mpmc.set_faults q
    ~push:(Some (fun () -> Atomic.fetch_and_add push_probes 1 mod 3 = 0))
    ~pop:(Some (fun () -> Atomic.fetch_and_add pop_probes 1 mod 5 = 0));
  let total = 800 in
  let popped = Atomic.make 0 in
  let sum = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let b = Backoff.create () in
        while Atomic.get popped < total do
          match Mpmc.try_pop q with
          | Some v ->
            Backoff.reset b;
            ignore (Atomic.fetch_and_add sum v);
            Atomic.incr popped
          | None -> Backoff.once b
        done)
  in
  for i = 1 to total do
    Mpmc.push q i
  done;
  Domain.join consumer;
  checki "faulted run lost nothing" (total * (total + 1) / 2) (Atomic.get sum);
  checkb "push faults fired" true (Atomic.get push_probes > 0);
  checkb "pop faults fired" true (Atomic.get pop_probes > 0);
  Mpmc.clear_faults q;
  (* hooks gone: a full/empty cycle behaves exactly as unfaulted *)
  checkb "clean push" true (Mpmc.try_push q 1);
  Alcotest.check (Alcotest.option Alcotest.int) "clean pop" (Some 1) (Mpmc.try_pop q)

let test_spsc_faults_no_loss () =
  let q = Spsc.create ~dummy:0 ~capacity:2 in
  let k = Atomic.make 0 in
  Spsc.set_faults q
    ~push:(Some (fun () -> Atomic.fetch_and_add k 1 mod 4 = 0))
    ~pop:(Some (fun () -> Atomic.fetch_and_add k 1 mod 7 = 0));
  let total = 800 in
  let consumer =
    Domain.spawn (fun () ->
        let b = Backoff.create () in
        let expected = ref 0 in
        while !expected < total do
          match Spsc.try_pop q with
          | Some v ->
            Backoff.reset b;
            if v <> !expected then Alcotest.failf "faulted spsc out of order at %d" v;
            incr expected
          | None -> Backoff.once b
        done)
  in
  for i = 0 to total - 1 do
    Spsc.push q i
  done;
  Domain.join consumer;
  Spsc.clear_faults q;
  checki "drained" 0 (Spsc.length q)

(* ------------------------------------------------------------------ *)
(* Properties (single-domain): boundary behaviour at every capacity    *)
(* ------------------------------------------------------------------ *)

(* For any capacity request and any push/pop script, the queue behaves
   like a bounded FIFO of the rounded capacity. *)
let prop_mpmc_bounded_fifo =
  QCheck.Test.make ~name:"mpmc matches bounded-fifo model" ~count:300
    QCheck.(pair (int_range 1 9) (small_list bool))
    (fun (capacity, script) ->
      (* QCheck's int_range shrinker can step below the range *)
      let capacity = max 1 capacity in
      let q = Mpmc.create ~dummy:0 ~capacity in
      let cap = Mpmc.capacity q in
      let model = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun is_push ->
          if is_push then begin
            let fits = Queue.length model < cap in
            let ok = Mpmc.try_push q !next in
            if ok then Queue.push !next model;
            incr next;
            ok = fits
          end
          else
            match (Mpmc.try_pop q, Queue.is_empty model) with
            | None, true -> true
            | Some v, false -> v = Queue.pop model
            | _ -> false)
        script
      && Mpmc.length q = Queue.length model)

let prop_spsc_bounded_fifo =
  QCheck.Test.make ~name:"spsc matches bounded-fifo model" ~count:300
    QCheck.(pair (int_range 1 9) (small_list bool))
    (fun (capacity, script) ->
      let capacity = max 1 capacity in
      let q = Spsc.create ~dummy:0 ~capacity in
      let cap = Spsc.capacity q in
      let model = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun is_push ->
          if is_push then begin
            let fits = Queue.length model < cap in
            let ok = Spsc.try_push q !next in
            if ok then Queue.push !next model;
            incr next;
            ok = fits
          end
          else
            match (Spsc.try_pop q, Queue.is_empty model) with
            | None, true -> true
            | Some v, false -> v = Queue.pop model
            | _ -> false)
        script
      && Spsc.length q = Queue.length model)

(* Armed faults only ever turn a success into a refusal — clients that
   retry observe the same FIFO; a model tracking "faulted this probe"
   stays exact. *)
let prop_mpmc_faults_are_refusals =
  QCheck.Test.make ~name:"mpmc fault hooks only refuse, never corrupt" ~count:300
    QCheck.(triple (int_range 1 5) (small_list bool) (pair small_nat small_nat))
    (fun (capacity, script, (pf, qf)) ->
      let capacity = max 1 capacity in
      let q = Mpmc.create ~dummy:0 ~capacity in
      let cap = Mpmc.capacity q in
      let pushes = ref 0 and pops = ref 0 in
      let push_faulted () =
        incr pushes;
        pf > 0 && !pushes mod (pf + 1) = 0
      in
      let pop_faulted () =
        incr pops;
        qf > 0 && !pops mod (qf + 1) = 0
      in
      Mpmc.set_faults q ~push:(Some push_faulted) ~pop:(Some pop_faulted);
      let model = Queue.create () in
      let next = ref 0 in
      List.for_all
        (fun is_push ->
          if is_push then begin
            (* replicate the hook's decision: probe order is ours alone *)
            let will_fault = pf > 0 && (!pushes + 1) mod (pf + 1) = 0 in
            let fits = Queue.length model < cap in
            let ok = Mpmc.try_push q !next in
            if ok then Queue.push !next model;
            incr next;
            ok = ((not will_fault) && fits)
          end
          else begin
            let will_fault = qf > 0 && (!pops + 1) mod (qf + 1) = 0 in
            match (Mpmc.try_pop q, will_fault, Queue.is_empty model) with
            | None, true, _ -> true
            | None, false, true -> true
            | Some v, false, false -> v = Queue.pop model
            | _ -> false
          end)
        script)

(* ------------------------------------------------------------------ *)
(* Parker: spin-then-park consumers across domains                     *)
(* ------------------------------------------------------------------ *)

module Obs = Doradd_obs

let c_sleep = Obs.Counters.counter "parker.sleep"

(* One producer domain, [consumers] consumer domains sharing one parker
   (the runnable set's shape; one consumer is the dispatcher's).  Seeded
   pauses of 0.1–0.5 ms, far past [Parker.spin_budget], make the
   consumers park and wake over and over; consumer-side pauses fill the
   queue so the producer meets backpressure too.  The main thread is a
   watchdog: a lost wakeup fails the test instead of hanging it.  It
   first tries to rescue the sleeper with notifies, so the domains can
   be joined; a domain that still will not finish is left behind. *)
let parker_stress ~consumers ~items () =
  let q = Mpmc.create ~dummy:0 ~capacity:16 in
  let p = Parker.create () in
  let rng = Random.State.make [| 0x9a4c; consumers |] in
  let pause () = if Random.State.int rng 1500 = 0 then 1e-4 *. float (1 + Random.State.int rng 5) else 0. in
  let producer_pauses = Array.init items (fun _ -> pause ()) in
  let consumer_pauses = Array.init consumers (fun _ -> Array.init items (fun _ -> pause ())) in
  let taken = Atomic.make 0 in
  let consumer c () =
    let idle = Parker.idle p ~ready:(fun () -> Mpmc.length q > 0 || Atomic.get taken >= items) in
    let out = Mpmc.make_out q in
    let sum = ref 0 and last = ref (-1) and fifo = ref true and mine = ref 0 in
    while Atomic.get taken < items do
      if Mpmc.pop_into q out then begin
        Parker.progress idle;
        let v = out.Mpmc.value in
        if v <= !last then fifo := false;
        last := v;
        sum := !sum + v;
        Atomic.incr taken;
        let d = consumer_pauses.(c).(!mine) in
        incr mine;
        if d > 0. then Thread.delay d
      end
      else Parker.pause idle
    done;
    (* the last item's taker wakes siblings parked on an empty queue *)
    Parker.notify p;
    (!sum, !fifo)
  in
  let before = Obs.Counters.value c_sleep in
  Obs.Trace.arm ();
  let cs = Array.init consumers (fun c -> Domain.spawn (consumer c)) in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to items - 1 do
          let d = producer_pauses.(i) in
          if d > 0. then Thread.delay d;
          Mpmc.push q i;
          Parker.notify p
        done)
  in
  let finished () = Atomic.get taken >= items in
  let wait_for seconds tick =
    let deadline = Unix.gettimeofday () +. seconds in
    while (not (finished ())) && Unix.gettimeofday () < deadline do
      tick ();
      Thread.delay 0.01
    done
  in
  wait_for 20. ignore;
  let hung = not (finished ()) in
  if hung then wait_for 1. (fun () -> Parker.notify p);
  Obs.Trace.disarm ();
  if hung then
    Alcotest.failf "watchdog: a consumer slept through queued items (%d of %d taken)%s"
      (Atomic.get taken) items
      (if finished () then ", a notify rescued it" else "");
  Domain.join producer;
  let results = Array.map Domain.join cs in
  checki "every item once" (items * (items - 1) / 2) (Array.fold_left (fun a (s, _) -> a + s) 0 results);
  checkb "per-consumer order" true (Array.for_all snd results);
  checkb "consumers parked" true (Obs.Counters.value c_sleep > before)

let test_parker_one_consumer () = parker_stress ~consumers:1 ~items:100_000 ()

let test_parker_two_consumers () = parker_stress ~consumers:2 ~items:100_000 ()

let () =
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "doradd queue stress"
    [
      ( "spsc-stress",
        [
          slow "tiny ring, wrap-heavy" test_spsc_stress_tiny;
          slow "paper depth 4, wrap-heavy" test_spsc_stress_paper_depth;
          slow "backpressure on full" test_spsc_backpressure;
          slow "fault hooks lose nothing" test_spsc_faults_no_loss;
        ] );
      ( "mpmc-stress",
        [
          slow "2 producers, 2 consumers" test_mpmc_stress_2p2c;
          slow "3 producers, 1 consumer" test_mpmc_stress_3p1c;
          slow "1 producer, 3 consumers" test_mpmc_stress_1p3c;
          slow "fault hooks lose nothing" test_mpmc_faults_no_loss;
        ] );
      ( "park-stress",
        [
          slow "1 producer, 1 consumer, seeded pauses" test_parker_one_consumer;
          slow "1 producer, 2 consumers, seeded pauses" test_parker_two_consumers;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_mpmc_bounded_fifo;
          QCheck_alcotest.to_alcotest prop_spsc_bounded_fifo;
          QCheck_alcotest.to_alcotest prop_mpmc_faults_are_refusals;
        ] );
    ]
