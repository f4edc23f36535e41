(** A perturbation plan: everything one DST run does differently from a
    plain run, derived deterministically from the seed.

    A plan never changes {e what} the workload computes — only which legal
    schedule the runtime takes (rotations, stalls, queue faults) and how
    much harmless timing noise is injected (dropped prefetches, straggler
    requests, idle gaps that park the dispatchers and workers).  The
    serial-equivalence oracle must therefore hold under every plan; a
    plan that makes it fail is a runtime bug, and the shrinker reports
    the minimal set of perturbation classes needed. *)

type t = {
  seed : int;
  workers : int;  (** 1–3 worker domains *)
  queue_capacity : int;  (** per-worker runnable-queue capacity *)
  rotate : bool;  (** perturb pop/push/dispatch scan orders *)
  stall_per_64k : int;  (** worker stall probability per pop, /65536 *)
  stall_spins : int;  (** backoff iterations per stall (crash window) *)
  push_fault_per_64k : int;  (** spurious queue-full probability *)
  pop_fault_per_64k : int;  (** spurious queue-empty probability *)
  drop_prefetch_per_64k : int;  (** dropped-prefetch probability *)
  straggler_per_64k : int;  (** straggler-request probability *)
  straggler_spins : int;  (** extra service time per straggler *)
  park_every : int;  (** dispatcher idles before every k-th request, 0 = off *)
  park_gap_us : int;  (** idle gap length, far past the consumers' spin budget *)
}

val derive : seed:int -> t
(** The fuzzed plan for [seed]. *)

val quiet : seed:int -> t
(** [derive ~seed] with every perturbation class disabled — same workers
    and capacity, no fuzz.  The all-disabled end point of shrinking. *)

val class_names : string list
(** The independently-disablable perturbation classes, in shrink order:
    ["rotate"; "stall"; "qfault"; "prefetch"; "straggler"; "park"]. *)

val disable : t -> string -> t
(** Disable one class by name.  @raise Invalid_argument on unknown
    names. *)

val disable_all : t -> string list -> t

val active : t -> string list
(** The classes actually enabled in this plan. *)

val to_string : t -> string
