(** Truncated exponential backoff for spin loops.

    Workers and pipeline stages spin briefly when their queues are empty or
    full; backing off keeps a waiting domain from saturating the memory bus
    with failed CAS attempts (and, on a host with fewer cores than busy
    domains and threads, from starving the one that would produce the
    work).  The served path's idle consumers spin only a short budget of
    these rounds and then park ({!Parker}). *)

type t

val create : ?min_wait:int -> ?max_wait:int -> unit -> t
(** [create ()] starts at [min_wait] spin iterations (default 1) and doubles
    up to [max_wait] (default 1024). *)

val once : t -> unit
(** Spin for the current wait, then double it (up to the maximum).  Calls
    [Domain.cpu_relax] in the loop so sibling hardware threads can
    progress. *)

val reset : t -> unit
(** Return to the minimum wait; call after making progress. *)

(** {1 Deterministic spinning (DST / model checking)}

    In the same spirit as the {!Spsc.S.set_faults} / {!Mpmc.S.set_faults}
    fault hooks: an injectable replacement for the spin/yield decision, so
    a harness-controlled run has no [Domain.cpu_relax] / [Thread.yield]
    side effects and every schedule is exactly replayable.  The hook
    receives the current wait (the would-be spin count); the exponential
    wait state still advances, so hooked runs cover the same saturation
    transitions. *)

val set_spin : (int -> unit) option -> unit
(** Install (or with [None] remove) the global spin hook. *)

val clear_spin : unit -> unit
(** [clear_spin () = set_spin None]. *)

val with_spin : (int -> unit) option -> (unit -> 'a) -> 'a
(** Run a thunk with the hook installed, restoring the previous hook on
    exit (exception-safe) — what chk and the DST runner use. *)
