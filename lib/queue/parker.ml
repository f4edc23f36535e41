(* Eventcount (see the .mli for the protocol and the lost-wakeup
   argument).

   [waiters] counts consumers between prepare and the end of their
   cancel/wait; [epoch] counts notifies that found a waiter.  The mutex
   and condition variable only carry the sleep itself: a waiter tests the
   epoch under the mutex before every Condition.wait, and a notifier
   takes the mutex after bumping the epoch, so a bump can never fall
   between a waiter's test and its sleep. *)

module Obs = Doradd_obs

(* Observability (armed-guarded): consumers that actually slept. *)
let c_sleep = Obs.Counters.counter "parker.sleep"

module type S = sig
  type t

  val create : unit -> t
  val prepare : t -> int
  val cancel : t -> unit
  val wait : t -> int -> unit
  val signalled : t -> int -> bool
  val notify : t -> unit
  val unsafe_notify_early : t -> publish:(unit -> unit) -> unit
end

module Make (A : Atomic_intf.ATOMIC) = struct
  type t = { waiters : int A.t; epoch : int A.t; mu : Mutex.t; cond : Condition.t }

  let create () =
    { waiters = A.make 0; epoch = A.make 0; mu = Mutex.create (); cond = Condition.create () }

  let prepare t =
    A.incr t.waiters;
    A.get t.epoch

  let cancel t = A.decr t.waiters

  let signalled t ticket = A.get t.epoch <> ticket

  let wait t ticket =
    if not (signalled t ticket) then begin
      if Atomic.get Obs.Trace.armed then Obs.Counters.incr c_sleep;
      Mutex.lock t.mu;
      while not (signalled t ticket) do
        Condition.wait t.cond t.mu
      done;
      Mutex.unlock t.mu
    end;
    A.decr t.waiters

  let wake t =
    A.incr t.epoch;
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

  let notify t = if A.get t.waiters > 0 then wake t

  (* Planted (checker self-test only): the waiter count is read before
     the item is published, so a consumer registering in the window
     re-checks an empty queue and sleeps through the push. *)
  let unsafe_notify_early t ~publish =
    let waiting = A.get t.waiters > 0 in
    publish ();
    if waiting then wake t
end

include Make (Atomic_intf.Passthrough)

(* Measured, see the .mli: past this, spinning consumers starve the
   I/O threads they share the cores with. *)
let spin_budget = 8

type idle = {
  parker : t;
  ready : unit -> bool;
  hold : unit -> bool;
  backoff : Backoff.t;
  mutable rounds : int;
}

let never () = false

let idle ?(hold = never) parker ~ready =
  { parker; ready; hold; backoff = Backoff.create (); rounds = 0 }

let progress i =
  Backoff.reset i.backoff;
  i.rounds <- 0

let pause i =
  if i.rounds < spin_budget then begin
    i.rounds <- i.rounds + 1;
    Backoff.once i.backoff
  end
  else if i.hold () then Backoff.once i.backoff
  else begin
    let ticket = prepare i.parker in
    if i.ready () then cancel i.parker else wait i.parker ticket;
    progress i
  end
