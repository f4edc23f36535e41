(** The DORADD runtime: worker pool plus dispatcher entry points.

    The runtime owns the runnable set and a pool of worker domains running
    the loop of §3.3: pull a ready request, run it to completion, resolve
    its outgoing DAG edges, push newly-ready dependents, steal when idle.
    Scheduling — turning the serial request stream into the DAG — is done
    either by the caller's thread ({!schedule}, the single-dispatcher
    configuration) or by a {!Pipeline} built on top of this module.

    Determinism contract: all {!schedule} calls must come from one thread
    (the single logical dispatcher), in the serial-log order; procedures
    must only touch resources in their declared footprint.  Under that
    contract the final state equals the state after serial execution of the
    log, for any number of workers.

    The footprint half of the contract is checkable: with
    {!Sanitizer.start} in effect, the runtime brackets every request step
    with a per-domain context and resource accessors validate each touch
    against the declared footprint (see {!Sanitizer} and the
    [doradd_analysis] library). *)

type t

(** Schedule-fuzzing hooks for deterministic-simulation testing: [rs]
    perturbs runnable-set pick orders and injects queue faults (see
    {!Runnable_set.fuzz}); [stall_spins ~worker] makes worker [worker]
    burn that many backoff iterations before its next pop — seeded stalls
    model stragglers, descheduling, and crash-restart windows;
    [idle_gap ()] is called by the dispatcher before each schedule and
    returns seconds to sleep first — gaps longer than
    {!Doradd_queue.Parker.spin_budget} make the idle workers park and
    wake mid-run.  Every fuzzed schedule is a legal schedule: the
    determinism contract must hold under all of them, which is exactly
    what the DST harness checks. *)
type fuzz = {
  rs_fuzz : Runnable_set.fuzz option;
  stall_spins : (worker:int -> int) option;
  idle_gap : (unit -> float) option;
}

val create : ?workers:int -> ?queue_capacity:int -> ?fuzz:fuzz -> unit -> t
(** Start the worker domains.  [workers] defaults to
    [max 1 (Domain.recommended_domain_count () - 1)]; [queue_capacity] is
    the per-worker runnable-queue capacity (default 4096).  [fuzz]
    installs schedule-fuzzing hooks before the workers start; the hook
    functions are probed from every worker domain and must be
    domain-safe. *)

val workers : t -> int

val schedule : t -> Footprint.t -> (unit -> unit) -> unit
(** [schedule t fp work] appends a request to the serial order.  Single
    dispatcher thread only. *)

val schedule_steps : t -> Footprint.t -> (unit -> Node.outcome) -> unit
(** Schedule a cooperative (long-running) procedure that may
    [Node.Yield] between steps (§6).  While parked, it keeps exclusive
    access to its footprint — dependents run only after the final step —
    so yielding never violates determinism; it only lets the worker
    interleave other ready requests. *)

val schedule_suspendable : t -> Footprint.t -> (unit -> unit) -> unit
(** Schedule a transaction that may suspend mid-body: the work runs
    inside the {!Effects} handler, so it can {!Effects.await} a trigger
    or call {!yield} without burning its worker — the continuation is
    captured as a one-shot fiber, parked on the trigger's wait-set keyed
    by the request's stamp, and resumed in stamp order when the trigger
    fires (on any worker domain).  While parked the transaction keeps
    exclusive access to its footprint (dependents release only at
    completion), so any schedule of suspends and resumes is
    byte-identical to serial.  This path allocates (fiber + handler,
    ~tens of bytes per request even suspend-free); latency-critical
    suspend-free work belongs on {!schedule}. *)

val yield : unit -> unit
(** Reschedule the calling transaction, letting its worker interleave
    other ready requests.  Only meaningful inside a body scheduled with
    {!schedule_suspendable}; a no-op everywhere else, so application
    code may call it unconditionally.  (Re-export of {!Effects.yield}.) *)

val scheduled : t -> int
(** Requests scheduled so far. *)

val completed : t -> int
(** Requests fully executed so far. *)

val saturated : t -> bool
(** At least 256 scheduled requests are unfinished.  While this holds,
    idle workers (and a {!Sharded_runtime} shard's dispatcher) keep
    polling instead of parking: work is bound to become ready soon, and
    parking there made saturated throughput depend on how fast the host
    wakes a halted core.  Light and moderate load stays far below the
    threshold, so consumers still park between requests. *)

val failures : t -> (int * exn) list
(** Requests whose procedure raised, as (log position, exception), in log
    order.  A raising procedure still completes deterministically — its
    dependents run and the runtime keeps going; exceptions are outcomes,
    not crashes.  (A yielding procedure that raises in a later step fails
    at that step.) *)

val drain : t -> unit
(** Block until every scheduled request has completed. *)

val checkpoint : t -> (unit -> 'a) -> 'a
(** [checkpoint t f] quiesces the runtime — no new dispatch (the caller
    is the dispatcher thread), workers drain — then runs [f] over the
    quiesced state and returns its result; execution resumes with the
    next [schedule].  This is the paper's §6 checkpointing recipe: stop
    the dispatcher, wait for the worker queues to drain, snapshot. *)

val shutdown : t -> unit
(** Drain, then stop and join the worker domains.  The runtime cannot be
    used afterwards. *)

val run_log :
  ?workers:int ->
  ?queue_capacity:int ->
  ?fuzz:fuzz ->
  ('a -> Footprint.t) ->
  ('a -> unit) ->
  'a array ->
  unit
(** [run_log fp exec log] creates a runtime, schedules every entry of
    [log] in order, drains, and shuts down: deterministic parallel replay
    of a request log — the DPS replica-execution use case. *)

val run_sequential : ('a -> unit) -> 'a array -> unit
(** Reference executor: run the log serially in this thread.  The
    determinism tests compare parallel replay against this. *)
