module Mpmc = Doradd_queue.Mpmc
module Spsc = Doradd_queue.Spsc
module Ring = Doradd_queue.Ring
module Backoff = Doradd_queue.Backoff
module Obs = Doradd_obs

(* Observability (armed-guarded): dispatcher batch sizes and submissions.
   Pipeline span events are attributed by submission / ring-entry index,
   which equals the runtime seqno exactly when a fresh runtime is fed only
   by this pipeline (the supported tracing setup; see Trace's doc). *)
let h_batch = Obs.Counters.histogram "pipeline.batch"
let c_submit = Obs.Counters.counter "pipeline.submit"

type stages = One_core_no_prefetch | One_core | Two_core | Three_core | Four_core

let core_count = function
  | One_core_no_prefetch | One_core -> 1
  | Two_core -> 2
  | Three_core -> 3
  | Four_core -> 4

type 'input t = {
  input : 'input Mpmc.t;
  stop : bool Atomic.t;
  spawned : int Atomic.t;
  domains : unit Domain.t array;
  rpc_seq : int Atomic.t; (* submission index, for span attribution *)
}

(* Sentinel batch count signalling end-of-stream between stages. *)
let eos = -1

(* Work each logical sub-task performs on a ring entry, per variant.  The
   first group always starts with the RPC handler (inject), the last always
   ends with the Spawner.  Groups are kept as labels (rather than bare
   closures) so the runner can record the matching span stage after each
   sub-task. *)
let stage_groups stages : [ `Index | `Prefetch ] list list =
  match stages with
  | One_core_no_prefetch -> [ [ `Index ] ]
  | One_core -> [ [ `Index; `Prefetch ] ]
  | Two_core -> [ [ `Index; `Prefetch ]; [] ]
  | Three_core -> [ [ `Index ]; [ `Prefetch ]; [] ]
  | Four_core -> [ []; [ `Index ]; [ `Prefetch ]; [] ]

(* Run a group's sub-tasks on one ring entry.  Top-level recursion over
   the label list: the old [List.iter (fun label -> ...)] allocated a
   closure per entry on every stage loop. *)
let rec apply_labels service idx entry fns =
  match fns with
  | [] -> ()
  | `Index :: tl ->
    service.Service.index entry;
    if Atomic.get Obs.Trace.armed then Obs.Trace.record Obs.Trace.Index ~seqno:idx;
    apply_labels service idx entry tl
  | `Prefetch :: tl ->
    service.Service.prefetch entry;
    if Atomic.get Obs.Trace.armed then Obs.Trace.record Obs.Trace.Prefetch ~seqno:idx;
    apply_labels service idx entry tl

let start ?(queue_depth = 4) ?(max_batch = 8) ?(input_capacity = 1024) ~stages ~runtime
    (service : ('input, 'entry) Service.t) =
  let groups = stage_groups stages in
  let n_groups = List.length groups in
  let ring_cap = Ring.min_capacity ~stages:n_groups ~queue_depth ~max_batch in
  let ring = Ring.create ~capacity:ring_cap service.Service.entry_create in
  let ring_cap = Ring.capacity ring in
  let input = Mpmc.create ~dummy:service.Service.dummy_input ~capacity:input_capacity in
  let stop = Atomic.make false in
  let spawned = Atomic.make 0 in
  (* count queues linking group k to group k+1 *)
  let links = Array.init (n_groups - 1) (fun _ -> Spsc.create ~dummy:0 ~capacity:queue_depth) in
  let spawn_entry entry =
    Runtime.schedule runtime (service.Service.footprint entry) (service.Service.work entry);
    Atomic.incr spawned
  in
  (* First group: pull raw inputs, fill ring entries, run the group's
     sub-tasks, forward an adaptive batch count.  All loop state (out-cell,
     backoffs, counters-as-refs) is allocated once, outside the loop. *)
  let handler_loop fns ~is_last =
    let b = Backoff.create () in
    let fwd_bo = Backoff.create () in
    let in_out = Mpmc.make_out input in
    let in_dummy = Mpmc.dummy input in
    let seq = ref 0 in
    let running = ref true in
    let batch = ref 0 in
    let continue = ref true in
    let ring_full = ref false in
    while !running do
      batch := 0;
      continue := true;
      ring_full := false;
      while !batch < max_batch && !continue do
        (* Flow control: slot [seq + batch] still holds entry
           [seq + batch - ring_cap] until the Spawner has consumed it.
           Interior stages coalesce queued counts, so no fixed ring size
           bounds the entries in flight; waiting on [spawned] does. *)
        if !seq + !batch - Atomic.get spawned >= ring_cap then begin
          ring_full := true;
          continue := false
        end
        else if Mpmc.pop_into input in_out then begin
          let entry = Ring.get ring (!seq + !batch) in
          service.Service.inject entry in_out.Mpmc.value;
          in_out.Mpmc.value <- in_dummy;
          apply_labels service (!seq + !batch) entry fns;
          if is_last then spawn_entry entry;
          incr batch
        end
        else continue := false
      done;
      if !batch > 0 then begin
        Backoff.reset b;
        if Atomic.get Obs.Trace.armed then Obs.Counters.record h_batch !batch;
        if not is_last then Spsc.push_with links.(0) fwd_bo !batch;
        seq := !seq + !batch
      end
      else if (not !ring_full) && Atomic.get stop then begin
        if not is_last then Spsc.push_with links.(0) fwd_bo eos;
        running := false
      end
      else Backoff.once b
    done
  in
  (* Interior / final groups: consume batch counts, process entries in
     order, forward the count (or spawn, for the final group).  The
     blocking pop takes the first count; [pop_batch_into] then drains any
     queued backlog in one head publish, coalescing small batches into a
     single pass over the ring (and a single forwarded count). *)
  let stage_loop k fns ~is_last =
    let src = links.(k - 1) in
    let bo = Backoff.create () in
    let fwd_bo = Backoff.create () in
    let pop_out = Spsc.make_out src in
    let scratch = Array.make (Spsc.capacity src) 0 in
    let seq = ref 0 in
    let running = ref true in
    let saw_eos = ref false in
    let total = ref 0 in
    while !running do
      let first = Spsc.pop_with src bo pop_out in
      let extra = Spsc.pop_batch_into src scratch in
      saw_eos := first = eos;
      total := (if first = eos then 0 else first);
      for i = 0 to extra - 1 do
        let c = scratch.(i) in
        if c = eos then saw_eos := true else total := !total + c
      done;
      for i = !seq to !seq + !total - 1 do
        let entry = Ring.get ring i in
        apply_labels service i entry fns;
        if is_last then spawn_entry entry
      done;
      if not is_last then begin
        if !total > 0 then Spsc.push_with links.(k) fwd_bo !total;
        if !saw_eos then Spsc.push_with links.(k) fwd_bo eos
      end;
      seq := !seq + !total;
      if !saw_eos then running := false
    done
  in
  let domains =
    Array.of_list
      (List.mapi
         (fun k fns ->
           let is_last = k = n_groups - 1 in
           if k = 0 then Domain.spawn (fun () -> handler_loop fns ~is_last)
           else Domain.spawn (fun () -> stage_loop k fns ~is_last))
         groups)
  in
  { input; stop; spawned; domains; rpc_seq = Atomic.make 0 }

(* Rpc_enqueue is stamped before the (possibly blocking) push so the span
   starts at arrival, ahead of any backpressure wait.  With concurrent
   submitters the submission index may disagree with the ring-entry order;
   traced runs are single-submitter by convention. *)
let submit t x =
  if Atomic.get Obs.Trace.armed then begin
    Obs.Counters.incr c_submit;
    Obs.Trace.record Obs.Trace.Rpc_enqueue ~seqno:(Atomic.fetch_and_add t.rpc_seq 1)
  end;
  Mpmc.push t.input x

let try_submit t x =
  let ok = Mpmc.try_push t.input x in
  if ok && Atomic.get Obs.Trace.armed then begin
    Obs.Counters.incr c_submit;
    Obs.Trace.record Obs.Trace.Rpc_enqueue ~seqno:(Atomic.fetch_and_add t.rpc_seq 1)
  end;
  ok

let spawned t = Atomic.get t.spawned

let flush_and_stop t =
  Atomic.set t.stop true;
  Array.iter Domain.join t.domains
