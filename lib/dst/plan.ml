module Rng = Doradd_stats.Rng

type t = {
  seed : int;
  workers : int;
  queue_capacity : int;
  rotate : bool;
  stall_per_64k : int;
  stall_spins : int;
  push_fault_per_64k : int;
  pop_fault_per_64k : int;
  drop_prefetch_per_64k : int;
  straggler_per_64k : int;
  straggler_spins : int;
  park_every : int;
  park_gap_us : int;
}

let capacities = [| 2; 4; 16; 256; 4096 |]

(* Probabilities are drawn log-uniformly-ish: most seeds get gentle
   perturbation, a few get a storm.  Fault rates are kept below the level
   where the run degenerates into pure backoff (the container has one
   CPU; a 50% pop-fault rate would just burn wall clock, not find
   schedules). *)
let derive ~seed =
  let rng = Rng.create ((seed * 2_654_435_761) lxor 0x5bf0_3635) in
  let rate rng hi = if Rng.bool rng then 0 else 1 lsl Rng.int_in rng 0 hi in
  (* Own stream, so adding the class left every older field's draws as
     they were.  Gaps of 0.1–0.8 ms dwarf Parker.spin_budget (~7 us):
     every consumer of the run parks in each one. *)
  let park = Rng.create ((seed * 2_654_435_761) lxor 0x7061_726b) in
  let park_every = if Rng.bool park then 0 else 1 lsl Rng.int_in park 2 5 in
  let park_gap_us = 100 * Rng.int_in park 1 8 in
  {
    seed;
    workers = Rng.int_in rng 1 3;
    queue_capacity = capacities.(Rng.int rng (Array.length capacities));
    rotate = Rng.bool rng;
    stall_per_64k = rate rng 10 (* up to ~1.6% of pops *);
    stall_spins = 1 lsl Rng.int_in rng 2 7;
    push_fault_per_64k = rate rng 12 (* up to ~6% *);
    pop_fault_per_64k = rate rng 12;
    drop_prefetch_per_64k = rate rng 14 (* up to 25% *);
    straggler_per_64k = rate rng 10;
    straggler_spins = 1 lsl Rng.int_in rng 4 10;
    park_every;
    park_gap_us;
  }

let quiet ~seed =
  let p = derive ~seed in
  {
    p with
    rotate = false;
    stall_per_64k = 0;
    push_fault_per_64k = 0;
    pop_fault_per_64k = 0;
    drop_prefetch_per_64k = 0;
    straggler_per_64k = 0;
    park_every = 0;
  }

(* One entry per independently-disablable perturbation class, for the
   shrinker's greedy pass: a minimal repro names only the classes the
   failure actually needs. *)
let classes =
  [
    ("rotate", fun p -> { p with rotate = false });
    ("stall", fun p -> { p with stall_per_64k = 0 });
    ("qfault", fun p -> { p with push_fault_per_64k = 0; pop_fault_per_64k = 0 });
    ("prefetch", fun p -> { p with drop_prefetch_per_64k = 0 });
    ("straggler", fun p -> { p with straggler_per_64k = 0 });
    ("park", fun p -> { p with park_every = 0 });
  ]

let class_names = List.map fst classes

let disable p name =
  match List.assoc_opt name classes with
  | Some f -> f p
  | None -> invalid_arg ("Plan.disable: unknown class " ^ name)

let disable_all p names = List.fold_left disable p names

let active p =
  List.filter_map
    (fun (name, f) -> if f p <> p then Some name else None)
    classes

let to_string p =
  Printf.sprintf
    "seed=%d workers=%d cap=%d rotate=%b stall=%d/64k*%d qfault=%d/%d drop=%d straggle=%d/64k*%d \
     park=every %d*%dus"
    p.seed p.workers p.queue_capacity p.rotate p.stall_per_64k p.stall_spins
    p.push_fault_per_64k p.pop_fault_per_64k p.drop_prefetch_per_64k
    p.straggler_per_64k p.straggler_spins p.park_every p.park_gap_us
