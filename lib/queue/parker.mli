(** Eventcount: lets an idle consumer domain sleep instead of spinning,
    without losing a wakeup.

    The consumer side is a three-step protocol: {!S.prepare} announces a
    waiter and returns a ticket (the current epoch); the consumer then
    re-checks its queue; if it found work it calls {!S.cancel}, otherwise
    {!S.wait} sleeps until the epoch moves past the ticket.  The producer
    publishes its item first and then calls {!S.notify}, which costs one
    atomic load while nobody waits.

    No lost wakeup: the producer's push precedes its load of the waiter
    count, and the consumer's waiter increment precedes its re-check
    (OCaml atomics are sequentially consistent).  Either the producer
    sees the waiter and bumps the epoch — so {!S.wait} returns, or never
    blocks if the bump came first — or the waiter increment came after
    the producer's load, hence after the push, and the re-check sees the
    item.

    Functorized over {!Atomic_intf.ATOMIC} like {!Spsc} and {!Mpmc}: the
    model checker ([doradd_chk], scenario "parker-handoff") interleaves
    prepare/re-check against push/notify exhaustively.  The blocking
    itself (mutex and condition variable) is not virtualized; the checker
    judges the consumer's decision to sleep through {!S.signalled}. *)

module type S = sig
  type t

  val create : unit -> t

  val prepare : t -> int
  (** Consumer: register as a waiter and return the ticket.  Must be
      followed by exactly one {!cancel} or {!wait}. *)

  val cancel : t -> unit
  (** Consumer: the re-check after {!prepare} found work; unregister. *)

  val wait : t -> int -> unit
  (** Consumer: sleep until a {!notify} after [prepare] returned the
      ticket, then unregister.  Returns at once if one already happened. *)

  val signalled : t -> int -> bool
  (** [signalled t ticket]: a {!notify} has moved the epoch past [ticket]
      ({!wait} would not block). *)

  val notify : t -> unit
  (** Producer, after publishing its item: wake every waiter.  One atomic
      load when there is none. *)

  val unsafe_notify_early : t -> publish:(unit -> unit) -> unit
  (** Planted twin for [chk.exe --self-test]: reads the waiter count
      {e before} running [publish], so a consumer that registers in
      between sleeps on an item nobody will signal.  Never use outside
      [doradd_chk]. *)
end

module Make (_ : Atomic_intf.ATOMIC) : S
(** The eventcount over an arbitrary atomic implementation (model
    checking). *)

include S
(** The production instantiation: [Make (Atomic_intf.Passthrough)]. *)

(** {1 Spin, then park} *)

val spin_budget : int
(** {!Backoff.once} rounds an idle consumer spins before it parks: 8,
    the backoff's doubling ramp up to 128 relax iterations, about 7 µs on
    the 2-core development host.  Chosen by the served-path benchmark on
    that host: a budget of 16 or 24 rounds (0.2–0.4 ms, into the
    [Thread.yield] rounds) kept 1.1–1.6 cores busy at 1000 req/s,
    because the sequencer, the shard dispatcher and the worker each spin
    out the budget after every request; 4 and 8 measured alike.  Only
    consecutive empty polls count, so a consumer that keeps finding work
    never parks. *)

type idle
(** One consumer's spin-then-park state: its backoff, its spent rounds,
    the parker it sleeps on, the re-check it runs before sleeping and
    the hold that keeps it from sleeping. *)

val idle : ?hold:(unit -> bool) -> t -> ready:(unit -> bool) -> idle
(** [ready ()] must return [true] if the consumer has work (or must stop)
    — it is the re-check between {!prepare} and {!wait}, so it must read
    the same atomics the producer writes before it calls {!notify}.

    [hold ()] (default: never) returns [true] while work is certain to
    come soon, so the consumer keeps spinning past {!spin_budget}
    instead of parking.  The served path holds a consumer while its
    runtime is saturated ([Doradd_core.Runtime.saturated]): there, a
    park lasts only until the next request, and each wake depends on how
    fast the host schedules a halted core, which made saturated
    throughput vary from run to run. *)

val pause : idle -> unit
(** Nothing to do: spin one backoff round, or, once {!spin_budget}
    rounds are spent, park until notified (skipped if [ready ()]).
    While [hold ()], spin at the backoff's ceiling instead of parking. *)

val progress : idle -> unit
(** The consumer made progress: restart the spin budget and the backoff. *)
