(* Sharded multi-dispatcher front (see the .mli for the protocol).

   Plumbing: the sequencer (caller) thread owns one bounded SPSC queue
   per shard; each shard's dispatcher domain drains its queue in FIFO
   order and feeds its own Runtime.  SPSC is exactly right here — one
   producer (the sequencer), one consumer (the shard dispatcher) — and
   a full queue blocks the sequencer, which is the same bounded-queue
   backpressure the single-dispatcher pipeline has.

   Liveness: each shard links requests in stamp order, so every
   cross-shard wait points from a higher stamp to a lower one and the
   lowest incomplete stamp is always executable.  Early arrivers suspend
   (Effects.await) — the continuation parks on the barrier trigger and
   the worker moves on to other ready work; the last arriver runs the
   body and fires the trigger, which re-enqueues the parked participants
   exactly once each.  No polling, no re-park loop. *)

module Spsc = Doradd_queue.Spsc
module Backoff = Doradd_queue.Backoff
module Parker = Doradd_queue.Parker

type msg =
  | Single of Footprint.t * (unit -> unit)
  | Part of Footprint.t * (unit -> unit)
  | Stop

type shard = {
  rt : Runtime.t;
  input : msg Spsc.t;
  parker : Parker.t; (* the idle dispatcher sleeps here; [push] notifies *)
  consumed : int Atomic.t; (* msgs the dispatcher has fed to its runtime *)
  mutable enqueued : int; (* msgs pushed; sequencer thread only *)
  mutable domain : unit Domain.t option;
}

type t = {
  shard_tab : shard array;
  n : int;
  mutable stamps : int; (* global sequence number; sequencer thread only *)
  mutable cross_count : int;
  mutable extra_parts : int; (* participants beyond one per cross request; sequencer thread only *)
  idle_gap : (unit -> float) option; (* DST park class; sequencer thread *)
  fail_mu : Mutex.t;
  mutable fails : (int * exn) list; (* (stamp, exn), unordered *)
  mutable live : bool;
}

let dispatcher_loop sh =
  let out = Spsc.make_out sh.input in
  let idle =
    Parker.idle sh.parker
      ~hold:(fun () -> Runtime.saturated sh.rt)
      ~ready:(fun () -> Spsc.length sh.input > 0)
  in
  let rec loop () =
    if not (Spsc.pop_into sh.input out) then begin
      Parker.pause idle;
      loop ()
    end
    else begin
      Parker.progress idle;
      match out.Spsc.value with
      | Single (fp, work) ->
        Runtime.schedule sh.rt fp work;
        Atomic.incr sh.consumed;
        loop ()
      | Part (fp, work) ->
        Runtime.schedule_suspendable sh.rt fp work;
        Atomic.incr sh.consumed;
        loop ()
      | Stop -> Atomic.incr sh.consumed
    end
  in
  loop ()

let create ?(workers_per_shard = 1) ?queue_capacity ?(input_capacity = 1024) ?fuzz ~shards ()
    =
  if shards <= 0 then invalid_arg "Sharded_runtime.create";
  (* The idle gap belongs to the stamping thread: sleeping there leaves
     every dispatcher and worker of every shard idle at once. *)
  let idle_gap = Option.bind fuzz (fun (f : Runtime.fuzz) -> f.idle_gap) in
  let fuzz = Option.map (fun (f : Runtime.fuzz) -> { f with idle_gap = None }) fuzz in
  let shard_tab =
    Array.init shards (fun _ ->
        {
          rt = Runtime.create ~workers:workers_per_shard ?queue_capacity ?fuzz ();
          input = Spsc.create ~dummy:Stop ~capacity:input_capacity;
          parker = Parker.create ();
          consumed = Atomic.make 0;
          enqueued = 0;
          domain = None;
        })
  in
  let t =
    {
      shard_tab;
      n = shards;
      stamps = 0;
      cross_count = 0;
      extra_parts = 0;
      idle_gap;
      fail_mu = Mutex.create ();
      fails = [];
      live = true;
    }
  in
  Array.iter (fun sh -> sh.domain <- Some (Domain.spawn (fun () -> dispatcher_loop sh))) shard_tab;
  t

let shards t = t.n

let shard_of_slot t slot = Slot.shard ~shards:t.n slot

let record_failure t stamp e =
  Mutex.lock t.fail_mu;
  t.fails <- (stamp, e) :: t.fails;
  Mutex.unlock t.fail_mu

let push sh msg =
  Spsc.push sh.input msg;
  Parker.notify sh.parker;
  sh.enqueued <- sh.enqueued + 1

(* Cross-shard barrier.  Each shard's participant runs this step once its
   local sub-footprint is exclusively held.  The last arriver — at which
   point every touched resource on every shard is held — runs the body
   exactly once and fires the trigger; earlier arrivers suspend on it
   (the continuation parks, the worker moves on) and are resumed by the
   fire.  Publication: a park CAS-releases the continuation to the
   firer's exchange, and the resumed step reaches its next worker
   through a runnable-queue push/pop, so the body's writes are visible
   to every resumed participant's shard without a separate flag. *)
let schedule_cross t fp body touched =
  t.cross_count <- t.cross_count + 1;
  let parts = List.length touched in
  t.extra_parts <- t.extra_parts + parts - 1;
  let arrivals = Atomic.make 0 in
  let trig = Effects.trigger () in
  let part () =
    if 1 + Atomic.fetch_and_add arrivals 1 = parts then begin
      body ();
      Effects.fire trig
    end
    else Effects.await trig
  in
  List.iter
    (fun s -> push t.shard_tab.(s) (Part (Footprint.restrict ~shards:t.n ~shard:s fp, part)))
    touched

let idle_gap t =
  match t.idle_gap with
  | None -> ()
  | Some gap ->
    let s = gap () in
    if s > 0. then Thread.delay s

let schedule t fp work =
  if not t.live then invalid_arg "Sharded_runtime.schedule: shut down";
  idle_gap t;
  let stamp = t.stamps in
  t.stamps <- stamp + 1;
  let body () = try work () with e -> record_failure t stamp e in
  match Footprint.touched_shards ~shards:t.n fp with
  | [] | [ _ ] ->
    (* Single-shard fast path: the home dispatcher links it like any
       local request; no cross-shard synchronization, no handler, 0 B/op. *)
    let home = Footprint.home_shard ~shards:t.n fp in
    push t.shard_tab.(home) (Single (fp, body))
  | touched -> schedule_cross t fp body touched

let schedule_suspendable t fp work =
  if not t.live then invalid_arg "Sharded_runtime.schedule_suspendable: shut down";
  idle_gap t;
  let stamp = t.stamps in
  t.stamps <- stamp + 1;
  let body () = try work () with e -> record_failure t stamp e in
  match Footprint.touched_shards ~shards:t.n fp with
  | [] | [ _ ] ->
    (* Single-shard, but the body may await/yield: dispatch through the
       effects handler on the home shard. *)
    let home = Footprint.home_shard ~shards:t.n fp in
    push t.shard_tab.(home) (Part (fp, body))
  | touched ->
    (* cross-shard participants already run suspendably; the body may
       itself await/yield on top of the barrier *)
    schedule_cross t fp body touched

let stamped t = t.stamps

let cross t = t.cross_count

let completed t =
  let parts = Array.fold_left (fun acc sh -> acc + Runtime.completed sh.rt) 0 t.shard_tab in
  (* Each cross-shard request contributes one completed participant per
     touched shard; subtract the extras so a request counts once.  The
     extras are counted at stamping time, not from what the dispatchers
     have scheduled so far: a request still queued in a shard input must
     not count as complete. *)
  parts - t.extra_parts

let failures t =
  Mutex.lock t.fail_mu;
  let fs = t.fails in
  Mutex.unlock t.fail_mu;
  List.sort (fun (a, _) (b, _) -> compare a b) fs

let drain t =
  Array.iter
    (fun sh ->
      let target = sh.enqueued in
      let bk = Backoff.create () in
      while Atomic.get sh.consumed < target do
        Backoff.once bk
      done;
      Runtime.drain sh.rt)
    t.shard_tab

let shutdown t =
  if t.live then begin
    t.live <- false;
    Array.iter (fun sh -> push sh Stop) t.shard_tab;
    Array.iter
      (fun sh ->
        (match sh.domain with Some d -> Domain.join d | None -> ());
        sh.domain <- None)
      t.shard_tab;
    Array.iter (fun sh -> Runtime.shutdown sh.rt) t.shard_tab
  end

let run_log ?workers_per_shard ?queue_capacity ?input_capacity ?fuzz ~shards fp exec log =
  let t = create ?workers_per_shard ?queue_capacity ?input_capacity ?fuzz ~shards () in
  Array.iter (fun entry -> schedule t (fp entry) (fun () -> exec entry)) log;
  drain t;
  shutdown t
