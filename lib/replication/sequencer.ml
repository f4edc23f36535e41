module Mpmc = Doradd_queue.Mpmc
module Parker = Doradd_queue.Parker
module Wal = Doradd_persist.Wal

(* The lock-free heart of the sequencer: the append-before-deliver
   publication protocol.  The sequencer domain is the single writer; any
   thread may read.  Ordering contract: the log entry is published
   (atomically) BEFORE the request is delivered, and the delivered
   counter is bumped only after delivery — so a reader that observes
   [delivered = n] is guaranteed to find at least [n] entries in the log.
   Functorized over the atomics so the model checker can enumerate every
   writer/reader interleaving of exactly this code. *)
module Publication = struct
  module type S = sig
    type 'req t

    val create : unit -> 'req t
    val publish : 'req t -> 'req -> deliver:('req -> unit) -> unit
    val delivered : 'req t -> int
    val log_newest_first : 'req t -> 'req list
    val snapshot : 'req t -> int * 'req list
  end

  module Make (A : Doradd_queue.Atomic_intf.ATOMIC) = struct
    type 'req t = {
      log : 'req list A.t; (* newest first; written by the sequencer domain *)
      delivered : int A.t;
    }

    let create () = { log = A.make []; delivered = A.make 0 }

    let publish t req ~deliver =
      (* single-writer: plain read-modify-write is race-free; the A.set
         publishes the new head to log readers *)
      A.set t.log (req :: A.get t.log);
      deliver req;
      A.incr t.delivered

    let delivered t = A.get t.delivered

    let log_newest_first t = A.get t.log

    (* Read [delivered] BEFORE the log: append-before-deliver means the
       log read that follows must already cover every delivered entry —
       the watermark-monotonicity invariant chk's seq-watermark scenario
       checks. *)
    let snapshot t =
      let d = A.get t.delivered in
      let l = A.get t.log in
      (d, l)
  end

  include Make (Doradd_queue.Atomic_intf.Passthrough)
end

type 'req durability = { wal : Wal.t; encode : 'req -> string }

type 'req t = {
  input : 'req option Mpmc.t; (* None = shutdown *)
  parker : Parker.t; (* the idle sequencer domain sleeps here *)
  domain : unit Domain.t;
  pub : 'req Publication.t;
  wal : Wal.t option;
  mutable stopped : bool;
}

let create ?(queue_capacity = 4096) ?durability ?(max_batch = 64) ?(first_seqno = 0)
    ~deliver () =
  if max_batch < 1 then invalid_arg "Sequencer.create: max_batch < 1";
  if first_seqno < 0 then invalid_arg "Sequencer.create: first_seqno < 0";
  let input = Mpmc.create ~dummy:None ~capacity:queue_capacity in
  let parker = Parker.create () in
  let pub = Publication.create () in
  let domain =
    Domain.spawn (fun () ->
        (* Spin, then park: [submit] and [stop] notify after their push,
           and the pre-sleep re-check looks at the same queue. *)
        let idle = Parker.idle parker ~ready:(fun () -> Mpmc.length input > 0) in
        let seqno = ref first_seqno in
        let publish req =
          Publication.publish pub req ~deliver:(fun req ->
              deliver ~seqno:!seqno req;
              incr seqno)
        in
        match durability with
        | None ->
          let rec loop () =
            match Mpmc.try_pop input with
            | Some (Some req) ->
              Parker.progress idle;
              publish req;
              loop ()
            | Some None -> ()
            | None ->
              Parker.pause idle;
              loop ()
          in
          loop ()
        | Some { wal; encode } ->
          (* Adaptive group commit, mirroring the pipeline's bounded
             batching: each round drains whatever queued during the
             previous round's fsync (capped at max_batch), appends the
             whole batch, syncs once, and only then delivers — requests
             are never visible to the consumer before they are durable. *)
          let rec grab acc n =
            if n >= max_batch then (List.rev acc, false)
            else
              match Mpmc.try_pop input with
              | Some (Some req) ->
                Parker.progress idle;
                grab (req :: acc) (n + 1)
              | Some None -> (List.rev acc, true)
              | None ->
                if acc = [] then begin
                  Parker.pause idle;
                  grab acc n
                end
                else (List.rev acc, false)
          in
          let rec loop () =
            let batch, stop = grab [] 0 in
            (match batch with
            | [] -> ()
            | batch ->
              List.iter (fun req -> ignore (Wal.append wal (encode req))) batch;
              Wal.sync wal;
              List.iter publish batch);
            if not stop then loop ()
          in
          loop ())
  in
  let wal = Option.map (fun (d : _ durability) -> d.wal) durability in
  { input; parker; domain; pub; wal; stopped = false }

let submit t req =
  if t.stopped then invalid_arg "Sequencer.submit: stopped";
  Mpmc.push t.input (Some req);
  Parker.notify t.parker

let delivered t = Publication.delivered t.pub

let durable_watermark t = match t.wal with None -> -1 | Some w -> Wal.durable_seqno w

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Mpmc.push t.input None;
    Parker.notify t.parker;
    Domain.join t.domain
  end

let log_prefix t =
  let arr = Array.of_list (Publication.log_newest_first t.pub) in
  (* stored newest-first *)
  let n = Array.length arr in
  Array.init n (fun i -> arr.(n - 1 - i))

let log t =
  if not t.stopped then invalid_arg "Sequencer.log: stop the sequencer first";
  log_prefix t
