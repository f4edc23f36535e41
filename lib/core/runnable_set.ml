(* Schedule-fuzzing decision hooks (DST harness).  Any pick order over the
   runnable set is correct — the set is unordered by construction — so the
   fuzzer may rotate every scan start and fail any individual queue
   operation without compromising determinism of the outcome; it only
   steers which of the legal schedules this run takes. *)
type fuzz = {
  pop_rotate : worker:int -> n:int -> int;  (* offset added to the pop/steal scan start *)
  push_rotate : worker:int -> n:int -> int;  (* offset for the worker push scan *)
  dispatch_rotate : n:int -> int;  (* offset added to the dispatcher's round-robin cursor *)
  fail_push : (unit -> bool) option;  (* spurious queue-full, armed on every queue *)
  fail_pop : (unit -> bool) option;  (* spurious queue-empty, armed on every queue *)
}

module Mpmc = Doradd_queue.Mpmc
module Backoff = Doradd_queue.Backoff
module Parker = Doradd_queue.Parker
module Obs = Doradd_obs

type t = {
  queues : Node.t Mpmc.t array;
  parker : Parker.t; (* idle workers sleep here; every placement notifies *)
  mutable rr : int; (* only the single logical dispatcher advances this *)
  disp_backoff : Backoff.t; (* dispatcher-only, reused across pushes *)
  mutable on_failure : Node.t -> exn -> unit; (* inline-execution failure hook *)
  mutable on_complete : Node.t -> unit; (* inline-execution completion hook *)
  mutable fuzz : fuzz option; (* installed before the worker domains start *)
}

(* Observability (armed-guarded): runnable-set traffic and occupancy. *)
let c_dispatch_push = Obs.Counters.counter "runnable_set.dispatch_push"
let c_worker_push = Obs.Counters.counter "runnable_set.worker_push"
let c_pop_local = Obs.Counters.counter "runnable_set.pop_local"
let c_pop_steal = Obs.Counters.counter "runnable_set.pop_steal"
let w_occupancy = Obs.Counters.watermark "runnable_set.occupancy_hwm"

let create ~workers ~queue_capacity =
  if workers <= 0 then invalid_arg "Runnable_set.create";
  {
    queues = Array.init workers (fun _ -> Mpmc.create ~dummy:Node.dummy ~capacity:queue_capacity);
    parker = Parker.create ();
    rr = 0;
    disp_backoff = Backoff.create ();
    on_failure = (fun _ _ -> ());
    on_complete = (fun _ -> ());
    fuzz = None;
  }

let workers t = Array.length t.queues

let parker t = t.parker

let set_inline_hooks t ~on_failure ~on_complete =
  t.on_failure <- on_failure;
  t.on_complete <- on_complete

let set_fuzz t fuzz =
  t.fuzz <- fuzz;
  match fuzz with
  | None -> Array.iter Mpmc.clear_faults t.queues
  | Some f -> Array.iter (fun q -> Mpmc.set_faults q ~push:f.fail_push ~pop:f.fail_pop) t.queues

let size t = Array.fold_left (fun acc q -> acc + Mpmc.length q) 0 t.queues

(* Scan the queues once from [start]; [true] if [node] was placed.  Every
   successful placement — dispatcher push, worker push, overflow re-offer,
   Effects resume — notifies after the push is published, so a parked
   worker cannot sleep through it. *)
let rec try_place t node start i n =
  if i >= n then false
  else if Mpmc.try_push t.queues.((start + i) mod n) node then begin
    Parker.notify t.parker;
    true
  end
  else try_place t node start (i + 1) n

(* Overflow path: every queue was full when [push_worker] scanned.  Run
   work inline on the pushing worker, draining an explicit FIFO worklist.

   The previous implementation recursed ([run] called [push_from] for each
   newly-ready dependent, whose overflow case called [run] again), so a
   long dependency chain completing while the queues stayed full grew the
   stack one frame per chain link — a stack overflow for deep chains under
   small queue capacities.  It also restarted every re-push scan at queue
   0, biasing overflow work onto worker 0's queue; the scan now starts at
   the completing worker's own queue, like any worker push.

   Each drained node is first offered to the queues again (they may have
   emptied meanwhile); only if still full does it run inline.  Exceptions
   are reported through the failure hook and the node still completes, as
   in the worker loop.

   A node that yields inline is NOT spun to completion here: a yielded
   request may be parked on external progress — a cross-shard participant
   (Sharded_runtime) waits for its partner shards to arrive — and with
   every queue full and this worker pinned on the spin, the work that
   unparks it could sit unreachable in this very shard's queues (with one
   worker per shard that is a deadlock).  Instead the yielded node is
   re-offered to the queues, and while they stay full the worker swaps in
   one queued ready node and runs it — the drain stays work-conserving
   and the parked node retries after real progress.

   Allocation here (the stdlib queue, out-cell, closures) is fine: this
   path only runs when the system is saturated. *)
let rec sweep_pop t out start i n =
  if i >= n then false
  else if Mpmc.pop_into t.queues.((start + i) mod n) out then true
  else sweep_pop t out start (i + 1) n

let run_overflow t ~worker node =
  let pending = Queue.create () in
  let on_ready d = Queue.push d pending in
  Queue.push node pending;
  let n = Array.length t.queues in
  let out = Mpmc.make_out t.queues.(0) in
  let finish node =
    Node.complete node ~on_ready;
    t.on_complete node
  in
  while not (Queue.is_empty pending) do
    let node = Queue.pop pending in
    if not (try_place t node worker 0 n) then begin
      match (try Node.run node with e -> t.on_failure node e; `Finished) with
      | `Finished -> finish node
      (* [`Suspended]: the node left the runnable set through a wait-set
         park — the resume closure owns it now (it may already be running
         on another domain), so drop it from the worklist untouched. *)
      | `Suspended -> ()
      | `Yielded ->
        if not (try_place t node worker 0 n) then begin
          (* Still full: run one queued node inline so the retry of the
             parked node follows real progress, not a tight spin. *)
          if sweep_pop t out worker 0 n then begin
            let stolen = out.Mpmc.value in
            match (try Node.run stolen with e -> t.on_failure stolen e; `Finished) with
            | `Finished -> finish stolen
            | `Suspended -> ()
            | `Yielded -> Queue.push stolen pending
          end;
          Queue.push node pending
        end
    end
  done

(* Blocking placement scan for the dispatcher: all-queues-full waits for
   the workers to drain rather than running inline — the dispatcher must
   keep its own latency bounded, and blocking here is the backpressure the
   paper's bounded queues give.  Top-level recursion (compiled to a jump)
   instead of a local closure: this is the per-request dispatch path. *)
let rec disp_place t node n attempts idx =
  if Mpmc.try_push t.queues.(idx) node then begin
    t.rr <- (idx + 1) mod n;
    Parker.notify t.parker
  end
  else if attempts + 1 >= n then begin
    Backoff.once t.disp_backoff;
    disp_place t node n 0 ((idx + 1) mod n)
  end
  else disp_place t node n (attempts + 1) ((idx + 1) mod n)

let push_dispatcher t node =
  if Atomic.get Obs.Trace.armed then begin
    Obs.Trace.record Obs.Trace.Runnable ~seqno:(Node.seqno node);
    Obs.Counters.incr c_dispatch_push
  end;
  let n = Array.length t.queues in
  let start =
    match t.fuzz with None -> t.rr | Some f -> (t.rr + f.dispatch_rotate ~n) mod n
  in
  Backoff.reset t.disp_backoff;
  disp_place t node n 0 start;
  if Atomic.get Obs.Trace.armed then Obs.Counters.observe w_occupancy (size t)

let push_worker t ~worker node =
  if Atomic.get Obs.Trace.armed then begin
    (* A yielded node re-entering keeps only its first Runnable crossing
       (Timeline is first-wins), so double recording is harmless. *)
    Obs.Trace.record Obs.Trace.Runnable ~seqno:(Node.seqno node);
    Obs.Counters.incr c_worker_push;
    Obs.Counters.observe w_occupancy (size t + 1)
  end;
  let n = Array.length t.queues in
  let start =
    match t.fuzz with None -> worker | Some f -> worker + f.push_rotate ~worker ~n
  in
  if not (try_place t node start 0 n) then run_overflow t ~worker node

(* Unfuzzed: own queue first, then a stealing sweep — the paper's work-
   conserving order.  Fuzzed: the scan start rotates, so steal-first and
   every other legal pick order get exercised too. *)
let rec sweep t out start i n =
  if i >= n then false
  else if Mpmc.pop_into t.queues.((start + i) mod n) out then begin
    if Atomic.get Obs.Trace.armed then
      (* Unfuzzed, i = 0 is the worker's own queue; under fuzz rotation
         the local/steal attribution is approximate. *)
      Obs.Counters.incr (if i = 0 then c_pop_local else c_pop_steal);
    true
  end
  else sweep t out start (i + 1) n

let make_out t = Mpmc.make_out t.queues.(0)

let pop_into t ~worker out =
  let n = Array.length t.queues in
  let start =
    match t.fuzz with None -> worker | Some f -> worker + f.pop_rotate ~worker ~n
  in
  sweep t out start 0 n

let pop t ~worker =
  let out = make_out t in
  if pop_into t ~worker out then Some out.Mpmc.value else None
