(** Shared request ring for the pipelined dispatcher.

    The paper's Figure 5: all pipeline cores share one ring of request
    entries and "process requests in place"; adjacent stages signal each
    other through bounded SPSC queues carrying batch counts, never the
    entries themselves.  Ownership of slot [i] therefore passes from stage
    [k] to stage [k+1] when the count covering [i] is pushed, so entries
    need no per-slot synchronisation — the SPSC queue's release/acquire
    pair orders the in-place writes.

    Capacity: [min_capacity] ([s*q*b + b] for [s] stages, count-queues of
    depth [q] and maximum batch [b]) sizes the ring, but it does not bound
    the slots in flight — interior stages coalesce queued counts, so a
    stage can forward up to [q*b] entries as one count.  The pipeline's
    RPC handler therefore reuses a slot only once the Spawner has
    consumed the entry it held. *)

type 'a t

val create : capacity:int -> (int -> 'a) -> 'a t
(** [create ~capacity f] builds a ring whose slot [i] is initialised with
    [f i].  Capacity is rounded up to a power of two.  Slots are reused
    cyclically and never reallocated (the paper's memory-pool discipline). *)

val capacity : 'a t -> int

val get : 'a t -> int -> 'a
(** [get ring seq] returns the slot for global sequence number [seq]
    (wrapping).  The caller must own that sequence number per the stage
    protocol above. *)

val min_capacity : stages:int -> queue_depth:int -> max_batch:int -> int
(** The ring capacity the pipeline allocates for the given shape. *)
