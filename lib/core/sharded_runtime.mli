(** Sharded multi-dispatcher front: N independent dispatcher pipelines
    with deterministic cross-shard transactions.

    The single logical dispatcher is the paper's stated scalability
    ceiling (Fig. 10: the pipeline saturates long before the workers
    do).  This front partitions the resource space into [shards]
    disjoint sets with the deterministic partition function
    {!Slot.shard} and runs one full {!Runtime} — dispatcher, runnable
    set, worker pool — per shard, so DAG construction itself scales.

    Determinism comes from a sequence-number merge (the per-partition
    dependency-log recipe of Yao et al., see PAPERS.md): the caller's
    thread acts as the global sequencer, stamping every request with a
    monotonically increasing sequence number and enqueueing it — in
    stamp order — onto the SPSC input queue of every shard its footprint
    touches.  Each shard's dispatcher drains its input in FIFO order, so
    every shard links requests into its DAG in global stamp order; the
    per-resource execution order is therefore the stamp order restricted
    to that resource, independent of the shard count.  Single-shard
    requests take the fast path ({!Runtime.schedule} on the home shard)
    and never synchronize with other shards.

    A request whose footprint spans shards is scheduled at its merged
    position on {e every} touched shard as a suspendable participant
    ({!Runtime.schedule_suspendable}): each participant holds that
    shard's sub-footprint ({!Footprint.restrict}) exclusively, arrivals
    are counted on a shared atomic, and the last arriver runs the body
    exactly once — at that point every touched resource on every shard
    has granted the request exclusive access, so the body may legally
    touch all of them.  Earlier arrivers suspend exactly once
    ({!Effects.await} on the barrier trigger): the continuation parks on
    the trigger's wait-set and the worker moves on to other ready work —
    no yield-poll spinning.  The last arriver's {!Effects.fire} resumes
    them in stamp order (the park CAS / fire exchange pair plus the
    runnable-queue hand-off publish the body's writes to every resumed
    shard).  Because every shard links in stamp order, all cross-shard
    waits point from higher stamps to lower ones and the wait graph is
    acyclic.

    Determinism contract: all {!schedule} calls from one thread, in
    serial-log order, procedures touch only their declared footprint —
    and additionally the final state {e and} the per-resource commit
    order are identical for any shard count (the shard-count-invariance
    battery in [test/test_sharded.ml] checks exactly this).

    The {!Sanitizer} cannot be armed across a sharded run: the body of a
    cross-shard request runs on whichever shard arrives last, under that
    participant's restricted footprint, and deliberately touches the
    other shards' resources.  Sharded gates therefore run unsanitized;
    the single-shard configuration is unchanged and stays sanitizable. *)

type t

val create :
  ?workers_per_shard:int ->
  ?queue_capacity:int ->
  ?input_capacity:int ->
  ?fuzz:Runtime.fuzz ->
  shards:int ->
  unit ->
  t
(** Start [shards] dispatcher domains and their worker pools.
    [workers_per_shard] defaults to 1; [queue_capacity] is each shard's
    per-worker runnable-queue capacity; [input_capacity] (default 1024)
    bounds each sequencer→shard input queue — a full input exerts
    backpressure on the sequencer.  [fuzz] is installed into every
    shard's runtime (the DST harness fuzzes all shards with one plan),
    except its [idle_gap], which runs on the caller's thread before each
    {!schedule} so that the shard dispatchers idle and park too.
    @raise Invalid_argument if [shards <= 0]. *)

val shards : t -> int

val shard_of_slot : t -> Slot.t -> int
(** The partition function this front uses ({!Slot.shard}). *)

val schedule : t -> Footprint.t -> (unit -> unit) -> unit
(** [schedule t fp work] stamps the request with the next global
    sequence number and enqueues it to every touched shard.  Global
    sequencer thread only (single caller thread, serial-log order). *)

val schedule_suspendable : t -> Footprint.t -> (unit -> unit) -> unit
(** Like {!schedule}, but the body runs inside the {!Effects} handler
    even on the single-shard path, so it may {!Effects.await} a trigger
    or call {!Runtime.yield} mid-body.  (Cross-shard bodies are always
    suspendable — the barrier itself suspends — so for a spanning
    footprint the two entry points are equivalent.)  Same sequencer
    contract and determinism guarantees as {!schedule}. *)

val stamped : t -> int
(** Requests stamped by the global sequencer so far. *)

val cross : t -> int
(** How many of them spanned more than one shard. *)

val completed : t -> int
(** Requests fully executed (a cross-shard request counts once). *)

val failures : t -> (int * exn) list
(** Requests whose procedure raised, as (global stamp, exception),
    stamp-ascending.  As in {!Runtime.failures}, a raising procedure
    still completes and its dependents run. *)

val drain : t -> unit
(** Block until every stamped request has completed on every shard. *)

val shutdown : t -> unit
(** Drain, stop the dispatcher domains, then shut every shard's runtime
    down.  The front cannot be used afterwards. *)

val run_log :
  ?workers_per_shard:int ->
  ?queue_capacity:int ->
  ?input_capacity:int ->
  ?fuzz:Runtime.fuzz ->
  shards:int ->
  ('a -> Footprint.t) ->
  ('a -> unit) ->
  'a array ->
  unit
(** [run_log ~shards fp exec log]: create, schedule every entry in
    order, drain, shut down — the sharded analogue of
    {!Runtime.run_log}. *)
