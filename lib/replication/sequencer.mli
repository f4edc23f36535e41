(** A minimal in-process sequencing layer.

    DORADD assumes an external sequencer (Raft/Paxos/…) that fixes a total
    order over client requests and logs them durably (§2, system model).
    This module is the in-process equivalent: any number of client
    threads {!submit} concurrently; a sequencer domain assigns dense,
    monotonically increasing sequence numbers, appends each request to a
    retained log, and delivers it — in order, from a single thread — to
    the consumer (typically [Runtime.schedule] or [Pipeline.submit]).
    An idle sequencer domain spins briefly, then sleeps on a
    {!Doradd_queue.Parker} until the next {!submit} or {!stop}.

    The retained log is the recovery story: {!log} returns the exact
    ordered prefix delivered so far, and replaying it through a fresh
    runtime reproduces the pre-crash state bit-for-bit (deterministic
    execution is what makes this sound); see the recovery tests.

    {2 Durable mode}

    With {!type-durability}, the sequencer also implements the "logs them
    durably" half of the system model: each request is appended to a
    {!Doradd_persist.Wal} and group-committed {e before} delivery
    (append-before-deliver), so a consumer never observes a request that
    a crash could lose.  Batching is adaptive like the pipeline's —
    whatever queued during the previous fsync commits as one batch,
    capped at [max_batch] — so fsync cost amortises under load without
    adding idle latency. *)

(** The sequencer's lock-free publication core, exposed for the model
    checker: the log entry is published {e before} delivery, and the
    delivered watermark is bumped only {e after} delivery, so a reader
    observing [delivered = n] must find at least [n] log entries
    ({!Publication.S.snapshot} reads in exactly that order).  The
    toplevel instantiation is the zero-cost stdlib one the sequencer
    domain below runs; [doradd_chk]'s seq-watermark scenario instantiates
    {!Publication.Make} with a traced atomic and enumerates every
    writer/reader interleaving. *)
module Publication : sig
  module type S = sig
    type 'req t

    val create : unit -> 'req t

    val publish : 'req t -> 'req -> deliver:('req -> unit) -> unit
    (** Single writer only: append to the log, deliver, then bump the
        delivered watermark. *)

    val delivered : 'req t -> int
    (** Any thread: requests delivered so far. *)

    val log_newest_first : 'req t -> 'req list
    (** Any thread: the published log, newest entry first. *)

    val snapshot : 'req t -> int * 'req list
    (** Any thread: [(delivered, log_newest_first)], reading the
        watermark first — append-before-deliver guarantees
        [List.length log >= delivered]. *)
  end

  module Make (A : Doradd_queue.Atomic_intf.ATOMIC) : S

  include S
end

type 'req t

type 'req durability = {
  wal : Doradd_persist.Wal.t;  (** open log; the caller keeps ownership *)
  encode : 'req -> string;  (** wire format for WAL records *)
}

val create :
  ?queue_capacity:int ->
  ?durability:'req durability ->
  ?max_batch:int ->
  ?first_seqno:int ->
  deliver:(seqno:int -> 'req -> unit) ->
  unit ->
  'req t
(** Start the sequencer domain.  [deliver] runs on that domain, in
    sequence order, exactly once per request.  With [durability], a
    request is delivered only after the group commit covering it;
    [max_batch] (default 64) caps the commit batch.  [first_seqno]
    (default 0) is the seqno assigned to the first request — a restarted
    or newly promoted primary passes [Wal.next_seqno] so stamps continue
    the existing log instead of re-numbering from zero.  {!stop} does
    not close the WAL — the caller owns it (recovery needs it after the
    sequencer is gone). *)

val submit : 'req t -> 'req -> unit
(** Thread-safe: callable from any domain.  Blocks (with backoff) when
    the input queue is full. *)

val delivered : 'req t -> int
(** Requests sequenced and delivered so far (racy snapshot). *)

val durable_watermark : 'req t -> int
(** Highest sequence number guaranteed on disk, [-1] if none (always
    [-1] without {!type-durability}).  Safe from any thread, before or
    after {!stop}. *)

val log_prefix : 'req t -> 'req array
(** Snapshot of the delivered log so far, in sequence order.  Safe from
    any thread at any time; in durable mode every entry is covered by
    {!durable_watermark}.  Grows monotonically — each call returns a
    prefix of any later call's result. *)

val stop : 'req t -> unit
(** Stop accepting input, drain, and join the sequencer domain.  After
    [stop], {!log} is stable. *)

val log : 'req t -> 'req array
(** The totally ordered request log (index = sequence number).  Stable
    only after {!stop}; intended for recovery replay and audits. *)
