module Backoff = Doradd_queue.Backoff
module Parker = Doradd_queue.Parker
module Obs = Doradd_obs

(* Observability (armed-guarded): worker duty cycle. *)
let c_worker_busy = Obs.Counters.counter "runtime.worker_busy"
let c_worker_idle = Obs.Counters.counter "runtime.worker_idle"

(* Worker-level schedule fuzz (DST): [rs] perturbs the runnable-set scan
   orders and injects queue faults; [stall_spins ~worker] asks worker
   [worker] to burn that many backoff iterations before its next pop —
   seeded stalls model straggling, descheduled, or crashed-and-restarted
   workers (a crash window is a stall during which the worker takes no
   work; its queue stays stealable, which is exactly the recovery story). *)
type fuzz = {
  rs_fuzz : Runnable_set.fuzz option;
  stall_spins : (worker:int -> int) option;
  idle_gap : (unit -> float) option; (* dispatcher sleep before a schedule *)
}

type failure = { seqno : int; exn_ : exn }

type t = {
  rs : Runnable_set.t;
  pool : Node.pool; (* node + dependent-cell free lists; acquire on dispatcher only *)
  stop : bool Atomic.t;
  scheduled : int Atomic.t;
  completed : int Atomic.t;
  failures : failure list Atomic.t;
  domains : unit Domain.t array;
  idle_gap : (unit -> float) option; (* DST park class; dispatcher thread *)
  mutable next_seq : int; (* dispatcher-thread private *)
}

let record_failure failures seqno exn_ =
  let rec add () =
    let cur = Atomic.get failures in
    if not (Atomic.compare_and_set failures cur ({ seqno; exn_ } :: cur)) then add ()
  in
  add ()

(* Unfinished requests past which the runtime counts as saturated and
   its idle consumers keep polling instead of parking: more work is
   bound to become ready soon, and a park there only adds a wake-up
   whose delay depends on the host.  On the served path each shard
   holds 600–900 unfinished requests at saturation and under 10 at
   7–8 k req/s.  A shard that polls serves 8 k req/s at about 17 ms,
   i.e. about 140 unfinished, still under the threshold, so a burst
   does not latch the shard into polling. *)
let saturation = 256

let saturated_counts ~scheduled ~completed =
  Atomic.get scheduled - Atomic.get completed >= saturation

let worker_loop rs ~worker ~stop ~scheduled ~completed ~failures ~stall =
  (* Idle policy: back off, then park on the runnable set's eventcount
     once the spin budget is spent, unless the runtime is saturated.
     The pre-sleep re-check covers both wake sources — a placement
     (every one notifies) and [shutdown] (which sets [stop] before
     notifying). *)
  let idle =
    Parker.idle (Runnable_set.parker rs)
      ~hold:(fun () -> saturated_counts ~scheduled ~completed)
      ~ready:(fun () -> Runnable_set.size rs > 0 || Atomic.get stop)
  in
  (* Per-worker reusable state, so the steady-state loop allocates
     nothing: one out-cell for pops and one on_ready closure shared by
     every completion. *)
  let out = Runnable_set.make_out rs in
  let on_ready = Runnable_set.push_worker rs ~worker in
  let rec loop () =
    (match stall with
    | None -> ()
    | Some spins ->
      let s = spins ~worker in
      if s > 0 then begin
        let sb = Backoff.create () in
        for _ = 1 to s do
          Backoff.once sb
        done
      end);
    if Runnable_set.pop_into rs ~worker out then begin
      let node = out.Doradd_queue.Mpmc.value in
      out.Doradd_queue.Mpmc.value <- Node.dummy;
      if Atomic.get Obs.Trace.armed then Obs.Counters.incr c_worker_busy;
      (* A raising procedure is still a *deterministic* outcome (same
         input, same exception), so the request completes — releasing its
         dependents — and the failure is recorded for the caller rather
         than tearing down the worker domain. *)
      (match try Node.run node with e -> record_failure failures (Node.seqno node) e; `Finished with
      | `Finished ->
        Node.complete node ~on_ready;
        Node.recycle node;
        Atomic.incr completed;
        Parker.progress idle
      | `Yielded ->
        (* park the procedure back in the runnable set; its dependents
           stay blocked until it finishes (§6).  A yield is a wait, not
           progress: back off instead of resetting, so a worker whose
           queue holds only parked procedures (a cross-shard participant
           waiting for a partner shard) yields the core rather than
           hot-cycling pop/park — on an oversubscribed host the partner
           can only arrive if this domain gives up the CPU. *)
        Runnable_set.push_worker rs ~worker node;
        Parker.pause idle
      | `Suspended ->
        (* The step captured its continuation on a fiber and parked it on
           a wait-set (Effects).  The node is out of the runnable set and
           out of our hands — the resume closure may already be running
           it on another domain — so touch nothing and move on.  Real
           work happened (a partial body), so reset the backoff. *)
        Parker.progress idle);
      loop ()
    end
    else begin
      if Atomic.get Obs.Trace.armed then Obs.Counters.incr c_worker_idle;
      if Atomic.get stop then ()
      else begin
        Parker.pause idle;
        loop ()
      end
    end
  in
  loop ()

let create ?workers ?(queue_capacity = 4096) ?fuzz () =
  let workers =
    match workers with
    | Some w ->
      if w <= 0 then invalid_arg "Runtime.create: workers must be positive";
      w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  let rs = Runnable_set.create ~workers ~queue_capacity in
  (* Node pool sized to the runnable set plus slack for in-flight and
     blocked nodes; dependent cells at a few edges per node.  Growable
     only here — an exhausted pool falls back to one-time allocations
     that then recycle like the preallocated ones. *)
  let pool_nodes = min 65_536 ((queue_capacity * workers) + 1024) in
  let pool = Node.create_pool ~nodes:pool_nodes ~cells:(2 * pool_nodes) in
  let stop = Atomic.make false in
  let scheduled = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let failures = Atomic.make [] in
  Runnable_set.set_inline_hooks rs
    ~on_failure:(fun node e -> record_failure failures (Node.seqno node) e)
    ~on_complete:(fun node ->
      Node.recycle node;
      Atomic.incr completed);
  (* installed before the domains spawn, so workers see it without races *)
  let stall =
    match fuzz with
    | None -> None
    | Some f ->
      Runnable_set.set_fuzz rs f.rs_fuzz;
      f.stall_spins
  in
  let domains =
    Array.init workers (fun worker ->
        Domain.spawn (fun () ->
            worker_loop rs ~worker ~stop ~scheduled ~completed ~failures ~stall))
  in
  let idle_gap = Option.bind fuzz (fun f -> f.idle_gap) in
  { rs; pool; stop; scheduled; completed; failures; domains; idle_gap; next_seq = 0 }

let workers t = Runnable_set.workers t.rs

let saturated t = saturated_counts ~scheduled:t.scheduled ~completed:t.completed

(* Sanitized mode: bracket every request step with the per-domain context
   so Resource accessors can validate against the declared footprint.
   Wrapping happens at schedule time, so the brackets travel with the
   closure through every execution path (workers, inline overflow runs,
   cooperative resumptions). *)
let sanitize_work fp ~seqno work () =
  Sanitizer.enter ~seqno fp;
  Fun.protect ~finally:Sanitizer.leave work

let rec sanitize_steps fp ~seqno work () =
  Sanitizer.enter ~seqno fp;
  Fun.protect ~finally:Sanitizer.leave (fun () ->
      match work () with
      | Node.Finished -> Node.Finished
      | Node.Yield k -> Node.Yield (sanitize_steps fp ~seqno k)
      (* suspendable procedures bracket their own resumptions (see
         [schedule_suspendable]'s wrap); a [Suspended] here just exits
         this step's context *)
      | Node.Suspended -> Node.Suspended)

(* Traced mode: bracket the procedure body with execute-start/commit span
   events.  Wrapped at schedule time like the sanitizer brackets, and kept
   outermost so Exec_start stamps before the sanitizer's context switch. *)
let traced_work ~seqno work () =
  Obs.Trace.record Obs.Trace.Exec_start ~seqno;
  work ();
  Obs.Trace.record Obs.Trace.Commit ~seqno

let traced_steps ~seqno work =
  let rec wrap ~first work () =
    if first then Obs.Trace.record Obs.Trace.Exec_start ~seqno;
    match work () with
    | Node.Finished ->
      Obs.Trace.record Obs.Trace.Commit ~seqno;
      Node.Finished
    | Node.Yield k -> Node.Yield (wrap ~first:false k)
    | Node.Suspended -> Node.Suspended
  in
  wrap ~first:true work

let idle_gap t =
  match t.idle_gap with
  | None -> ()
  | Some gap ->
    let s = gap () in
    if s > 0. then Thread.delay s

let schedule t fp work =
  idle_gap t;
  let seqno = t.next_seq in
  t.next_seq <- seqno + 1;
  Atomic.incr t.scheduled;
  let work = if Atomic.get Sanitizer.tracking then sanitize_work fp ~seqno work else work in
  let work =
    if Atomic.get Obs.Trace.armed then begin
      Obs.Trace.record Obs.Trace.Spawn ~seqno;
      traced_work ~seqno work
    end
    else work
  in
  let node = Node.acquire t.pool ~seqno work in
  Spawner.schedule t.rs node fp

let schedule_steps t fp work =
  idle_gap t;
  let seqno = t.next_seq in
  t.next_seq <- seqno + 1;
  Atomic.incr t.scheduled;
  let work = if Atomic.get Sanitizer.tracking then sanitize_steps fp ~seqno work else work in
  let work =
    if Atomic.get Obs.Trace.armed then begin
      Obs.Trace.record Obs.Trace.Spawn ~seqno;
      traced_steps ~seqno work
    end
    else work
  in
  let node = Node.acquire_steps t.pool ~seqno work in
  Spawner.schedule t.rs node fp

(* Suspendable dispatch: run the body inside the Effects handler so it
   can wait ([Effects.await], [yield]) without burning its worker.  The
   schedule-time brackets (sanitizer context, commit tracing) cannot
   simply wrap the whole body as in [schedule] — a suspension exits the
   worker mid-body — so they are packaged as a per-step [wrap] that the
   effect handler re-applies to every resumed continuation: each
   resumption enters and leaves the request's sanitizer context like a
   cooperative step, and the commit event fires on whichever step
   finishes.  Allocation on this path is fine (suspension is a wait);
   the handler-free [schedule] fast path is what the 0 B/op gate
   holds. *)
let schedule_suspendable t fp work =
  idle_gap t;
  let seqno = t.next_seq in
  t.next_seq <- seqno + 1;
  Atomic.incr t.scheduled;
  let sanitizing = Atomic.get Sanitizer.tracking in
  let tracing = Atomic.get Obs.Trace.armed in
  if tracing then Obs.Trace.record Obs.Trace.Spawn ~seqno;
  let commit_on_finish step () =
    match step () with
    | Node.Finished ->
      if tracing then Obs.Trace.record Obs.Trace.Commit ~seqno;
      Node.Finished
    | o -> o
  in
  let wrap step =
    if sanitizing then sanitize_steps fp ~seqno (commit_on_finish step)
    else commit_on_finish step
  in
  let node_ref = ref Node.dummy in
  let first () =
    if tracing then Obs.Trace.record Obs.Trace.Exec_start ~seqno;
    Effects.run ~rs:t.rs ~node:!node_ref ~wrap work
  in
  let node = Node.acquire_steps t.pool ~seqno (wrap first) in
  node_ref := node;
  Spawner.schedule t.rs node fp

let yield = Effects.yield

let scheduled t = Atomic.get t.scheduled

let failures t =
  List.sort compare (List.map (fun f -> (f.seqno, f.exn_)) (Atomic.get t.failures))

let completed t = Atomic.get t.completed

let drain t =
  let b = Backoff.create () in
  while Atomic.get t.completed < Atomic.get t.scheduled do
    Backoff.once b
  done

let checkpoint t f =
  (* The caller is the single dispatcher thread, so no new requests can be
     scheduled during this call; draining therefore quiesces the whole
     system and [f] observes the state after a request-boundary prefix of
     the log — a consistent snapshot (§6, failures and checkpointing). *)
  drain t;
  f ()

let shutdown t =
  drain t;
  Atomic.set t.stop true;
  Parker.notify (Runnable_set.parker t.rs);
  Array.iter Domain.join t.domains

let run_log ?workers ?queue_capacity ?fuzz fp exec log =
  let t = create ?workers ?queue_capacity ?fuzz () in
  Array.iter (fun req -> schedule t (fp req) (fun () -> exec req)) log;
  shutdown t

let run_sequential exec log = Array.iter exec log
