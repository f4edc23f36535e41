module Core = Doradd_core

(* Straggler hook: case bodies call [straggle ()] at the top of every
   request procedure; when armed, a seeded fraction of requests burn extra
   "service time".  Global (like Service.drop_prefetch) because the hook
   has to reach closures scheduled deep inside Runtime.run_log. *)
let straggle_hook : (unit -> int) Atomic.t = Atomic.make (fun () -> 0)

let straggle () =
  let spins = (Atomic.get straggle_hook) () in
  if spins > 0 then
    for _ = 1 to spins do
      ignore (Sys.opaque_identity 0)
    done

let clear () =
  Atomic.set straggle_hook (fun () -> 0);
  Core.Service.set_drop_prefetch None;
  Core.Service.set_fetch_miss None
(* NOT cleared here: Effects.unsafe_set_lifo_fire.  [clear] runs between
   every shrinker re-execution (with_plan's finally), and the self-test
   arms that planted bug around a whole run_case call — resetting it here
   would disarm the canary mid-shrink.  The self-test manages the flag
   with its own Fun.protect. *)

let fuzz_of_plan dec (p : Plan.t) : Core.Runtime.fuzz option =
  let rotations =
    if not p.rotate then None
    else begin
      let s_pop = Decision.shared dec "pop-rotate"
      and s_push = Decision.shared dec "push-rotate"
      and s_disp = Decision.shared dec "dispatch-rotate" in
      Some
        ( (fun ~worker:_ ~n -> Decision.pick s_pop ~n),
          (fun ~worker:_ ~n -> Decision.pick s_push ~n),
          fun ~n -> Decision.pick s_disp ~n )
    end
  in
  let fail_push =
    if p.push_fault_per_64k <= 0 then None
    else begin
      let s = Decision.shared dec "push-fault" in
      Some (fun () -> Decision.flip s ~per_64k:p.push_fault_per_64k)
    end
  in
  let fail_pop =
    if p.pop_fault_per_64k <= 0 then None
    else begin
      let s = Decision.shared dec "pop-fault" in
      Some (fun () -> Decision.flip s ~per_64k:p.pop_fault_per_64k)
    end
  in
  let rs_fuzz =
    match (rotations, fail_push, fail_pop) with
    | None, None, None -> None
    | _ ->
      let pop_rotate, push_rotate, dispatch_rotate =
        match rotations with
        | Some r -> r
        | None ->
          ((fun ~worker:_ ~n:_ -> 0), (fun ~worker:_ ~n:_ -> 0), fun ~n:_ -> 0)
      in
      Some { Core.Runnable_set.pop_rotate; push_rotate; dispatch_rotate; fail_push; fail_pop }
  in
  let stall_spins =
    if p.stall_per_64k <= 0 then None
    else begin
      let s = Decision.shared dec "stall" in
      Some
        (fun ~worker:_ ->
          if Decision.flip s ~per_64k:p.stall_per_64k then p.stall_spins else 0)
    end
  in
  let idle_gap =
    if p.park_every <= 0 then None
    else begin
      (* bursts of [park_every] requests separated by idle gaps; a count,
         not a draw, so the gaps fall on the same requests every run *)
      let scheduled = Atomic.make 0 in
      let gap = float_of_int p.park_gap_us *. 1e-6 in
      Some
        (fun () ->
          if (Atomic.fetch_and_add scheduled 1 + 1) mod p.park_every = 0 then gap else 0.)
    end
  in
  match (rs_fuzz, stall_spins, idle_gap) with
  | None, None, None -> None
  | _ -> Some { Core.Runtime.rs_fuzz; stall_spins; idle_gap }

let arm dec (p : Plan.t) =
  (if p.drop_prefetch_per_64k > 0 then begin
     let s = Decision.shared dec "drop-prefetch" in
     Core.Service.set_drop_prefetch
       (Some (fun () -> Decision.flip s ~per_64k:p.drop_prefetch_per_64k))
   end);
  (if p.straggler_per_64k > 0 then begin
     let s = Decision.shared dec "straggler" in
     Atomic.set straggle_hook (fun () ->
         if Decision.flip s ~per_64k:p.straggler_per_64k then p.straggler_spins else 0)
   end);
  fuzz_of_plan dec p

let with_plan ~seed (p : Plan.t) f =
  let dec = Decision.create ~seed in
  let fuzz = arm dec p in
  Fun.protect ~finally:clear (fun () -> f fuzz)
