(** The runnable-procedures set (§3.3/§4).

    An unordered set of requests whose dependencies are all resolved;
    executing them in any order, on any worker, preserves determinism.
    Implemented exactly as the paper describes: one lock-free MPMC queue
    per worker.  The dispatcher inserts round-robin; a worker inserts into
    its own queue; a worker removes from its own queue first and steals
    from the others when empty — giving work conservation without any
    dispatcher–worker coordination. *)

type t

(** Schedule-fuzzing decision hooks (deterministic-simulation testing).
    Every pick order over the runnable set is a legal schedule, so the
    hooks can only steer {e which} legal schedule a run takes — never
    break determinism of the outcome.  [fail_push]/[fail_pop] are armed as
    fault hooks on every worker queue (see {!Doradd_queue.Mpmc.set_faults}):
    spurious full forces the dispatcher-backpressure and worker
    overflow-to-inline paths, spurious empty forces extra steal sweeps. *)
type fuzz = {
  pop_rotate : worker:int -> n:int -> int;
  push_rotate : worker:int -> n:int -> int;
  dispatch_rotate : n:int -> int;
  fail_push : (unit -> bool) option;
  fail_pop : (unit -> bool) option;
}

val create : workers:int -> queue_capacity:int -> t

val workers : t -> int

val parker : t -> Doradd_queue.Parker.t
(** The eventcount idle workers sleep on.  Every placement ({!push_dispatcher},
    {!push_worker}, including the overflow path's re-offers) notifies it
    after publishing the node. *)

val set_fuzz : t -> fuzz option -> unit
(** Install (or clear) the fuzz hooks.  Install before the worker domains
    start; the hook functions themselves may be probed concurrently from
    every domain and must be domain-safe. *)

val set_inline_hooks :
  t -> on_failure:(Node.t -> exn -> unit) -> on_complete:(Node.t -> unit) -> unit
(** Hooks for nodes executed {e inline} (the overflow path of
    {!push_worker}): [on_failure] fires if the procedure raises (the node
    still completes), [on_complete] after every inline completion.  The
    worker pool installs its failure recorder and completion counter here
    — without the completion hook, inline completions would be invisible
    to [Runtime.drain]. *)

val push_dispatcher : t -> Node.t -> unit
(** Insert from the dispatcher, round-robin over worker queues.  Blocks
    (with backoff) when every queue is full: backpressure to the input. *)

val push_worker : t -> worker:int -> Node.t -> unit
(** Insert a newly-ready node from worker [worker]'s completion path.
    Prefers the worker's own queue; overflows to siblings; as a last
    resort runs the node inline (still deterministic — the node was ready
    — and keeps the system deadlock-free when all queues are full).  The
    inline path drains an explicit worklist, so arbitrarily deep ready
    chains use constant stack, and re-push scans start at [worker]'s own
    queue. *)

val make_out : t -> Node.t Doradd_queue.Mpmc.out
(** Preallocated out-cell for {!pop_into}: one per worker, reused. *)

val pop_into : t -> worker:int -> Node.t Doradd_queue.Mpmc.out -> bool
(** Zero-alloc remove for execution: own queue first, then a stealing
    sweep over the other queues.  On success the node is in [out.value];
    [false] when every queue appears empty. *)

val pop : t -> worker:int -> Node.t option
(** Allocating convenience wrapper around {!pop_into} (tests). *)

val size : t -> int
(** Racy total occupancy; monitoring and tests only. *)
