(* The traced run's drivers: each times calls into one layer's public
   functions, in this process, over the workload's own generated bodies.
   Every driver that executes requests checks the final state against
   the serial replay, so a driver cannot report the speed of a wrong
   answer.  Spans go into one {!Spans} store; the span-derived metrics
   are read off it once every driver has run. *)

module Net = Doradd_net
module Core = Doradd_core
module Persist = Doradd_persist
module Sequencer = Doradd_replication.Sequencer

type out = {
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable errors : string list;
}

let emit o name value unit_ = o.metrics <- (name, value, unit_) :: o.metrics
let error o fmt = Printf.ksprintf (fun s -> o.errors <- s :: o.errors) fmt
let secs_since t0 = float_of_int (Clock.now_ns () - t0) /. 1e9
let median xs = Gen.median xs

(* Allocation and GC activity of one driver, per request.  Allocation is
   the calling domain's; collections are counted over all domains. *)
let with_gc o driver ~reqs f =
  let s0 = Gc.quick_stat () and a0 = Gc.allocated_bytes () in
  let r = f () in
  let a1 = Gc.allocated_bytes () and s1 = Gc.quick_stat () in
  let per_k n = float_of_int n *. 1000. /. float_of_int reqs in
  emit o ("alloc_bytes_per_req." ^ driver) ((a1 -. a0) /. float_of_int reqs) "B";
  emit o ("gc.minor_per_kreq." ^ driver)
    (per_k (s1.Gc.minor_collections - s0.Gc.minor_collections))
    "count";
  emit o ("gc.major_per_kreq." ^ driver)
    (per_k (s1.Gc.major_collections - s0.Gc.major_collections))
    "count";
  r

let prepare_all (b : Net.Backend.t) bodies =
  Array.mapi
    (fun stamp body ->
      match b.prepare ~stamp body with
      | Ok p -> p
      | Error e -> failwith ("generated body rejected: " ^ e))
    bodies

let check_digest o driver (b : Net.Backend.t) ~expect =
  let d = b.digest () in
  if d <> expect then error o "%s: digest %d, serial replay %d" driver d expect

let fresh_dir dir =
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)
  else Sys.mkdir dir 0o755

(* {2 net + backend: the serial per-request path} *)

(* encode → frame → reassemble → decode → prepare → run, one request at
   a time, each step a child span of the request's span. *)
let path_pass sp ~parent make_backend bodies =
  let (b : Net.Backend.t) = make_backend () in
  let reader = Net.Frame_reader.create () in
  let n_encode = Spans.name_id sp "net.encode"
  and n_decode = Spans.name_id sp "net.decode"
  and n_prepare = Spans.name_id sp "backend.prepare"
  and n_run = Spans.name_id sp "backend.run"
  and n_req = Spans.name_id sp "request" in
  let results =
    Array.mapi
      (fun i body ->
        let req = Spans.open_ sp ~name:n_req ~req:i ~parent in
        let s = Spans.open_ sp ~name:n_encode ~req:i ~parent:req in
        let frame = Persist.Codec.frame (Net.Wire.encode_request ~req_id:i ~body) in
        Spans.close sp s;
        let s = Spans.open_ sp ~name:n_decode ~req:i ~parent:req in
        Net.Frame_reader.feed reader (Bytes.unsafe_of_string frame) ~pos:0
          ~len:(String.length frame);
        let body' =
          match Net.Frame_reader.next reader with
          | `Frame payload -> (
            match Net.Wire.decode_request payload with
            | Ok (_, body') -> body'
            | Error e -> failwith e)
          | `Need_more | `Error _ -> failwith "frame did not reassemble"
        in
        Spans.close sp s;
        let s = Spans.open_ sp ~name:n_prepare ~req:i ~parent:req in
        let p = b.prepare ~stamp:i body' in
        Spans.close sp s;
        match p with
        | Error _ ->
          Spans.close sp req;
          None
        | Ok p ->
          Spans.count sp "backend.slots" (Core.Footprint.length p.fp);
          let s = Spans.open_ sp ~name:n_run ~req:i ~parent:req in
          let r = p.run () in
          Spans.close sp s;
          Spans.close sp req;
          Some r)
      bodies
  in
  (b, results)

let path o sp ~parent make_backend bodies ~serial =
  let serial_digest, serial_results = serial in
  let n = Array.length bodies in
  let b, results =
    with_gc o "path" ~reqs:n (fun () -> path_pass sp ~parent make_backend bodies)
  in
  if results <> serial_results then error o "path: per-request results differ from serial replay";
  check_digest o "path" b ~expect:serial_digest;
  emit o "backend.slots_per_req"
    (float_of_int (Spans.get_count sp "backend.slots") /. float_of_int n)
    "count"

(* Tracing overhead: the same path driver with spans off and on, in
   alternating passes, compared by median wall time. *)
let overhead o make_backend bodies ~passes =
  let time enabled =
    let sp = Spans.create () in
    sp.Spans.enabled <- enabled;
    let t0 = Clock.now_ns () in
    ignore (path_pass sp ~parent:(-1) make_backend bodies);
    secs_since t0
  in
  let off = Array.make passes 0. and on = Array.make passes 0. in
  for k = 0 to passes - 1 do
    if k land 1 = 0 then begin
      off.(k) <- time false;
      on.(k) <- time true
    end
    else begin
      on.(k) <- time true;
      off.(k) <- time false
    end
  done;
  emit o "trace.overhead_pct" (100. *. ((median on /. median off) -. 1.)) "%"

(* {2 replication.Sequencer} *)

(* Non-durable: one request at a time, submit → deliver. *)
let sequencer o sp ~parent bodies =
  let n = Array.length bodies in
  let sub = Array.make n 0 and dlv = Array.make n 0 in
  with_gc o "sequencer" ~reqs:n (fun () ->
      let seq = Sequencer.create ~deliver:(fun ~seqno _ -> dlv.(seqno) <- Clock.now_ns ()) () in
      Array.iteri
        (fun i body ->
          sub.(i) <- Clock.now_ns ();
          Sequencer.submit seq body;
          while Sequencer.delivered seq <= i do
            Domain.cpu_relax ()
          done)
        bodies;
      Sequencer.stop seq);
  let name = Spans.name_id sp "sequencer.deliver" in
  for i = 0 to n - 1 do
    ignore (Spans.add sp ~name ~req:i ~parent ~start:sub.(i) ~stop:dlv.(i))
  done

(* Durable, fsync on: a window of requests in flight so group commit
   has something to batch.  A batch is a distinct durable watermark
   seen at delivery.  Leaves its WAL in [dir] for the recovery driver. *)
let durable_sequencer o sp ~parent bodies ~dir ~window =
  let n = Array.length bodies in
  let sub = Array.make n 0 and dlv = Array.make n 0 and wm = Array.make n 0 in
  fresh_dir dir;
  with_gc o "sequencer_durable" ~reqs:n (fun () ->
      let wal = Persist.Wal.open_ ~fsync:true ~dir () in
      let seq =
        Sequencer.create
          ~durability:{ Sequencer.wal; encode = Fun.id }
          ~deliver:(fun ~seqno _ ->
            dlv.(seqno) <- Clock.now_ns ();
            wm.(seqno) <- Persist.Wal.durable_seqno wal)
          ()
      in
      Array.iteri
        (fun i body ->
          while i - Sequencer.delivered seq >= window do
            Domain.cpu_relax ()
          done;
          sub.(i) <- Clock.now_ns ();
          Sequencer.submit seq body)
        bodies;
      Sequencer.stop seq;
      Persist.Wal.close wal);
  let name = Spans.name_id sp "sequencer.durable_deliver" in
  let batches = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || wm.(i) <> wm.(i - 1) then incr batches;
    ignore (Spans.add sp ~name ~req:i ~parent ~start:sub.(i) ~stop:dlv.(i))
  done;
  Spans.count sp "sequencer.batches" !batches;
  emit o "sequencer.batch_mean" (float_of_int n /. float_of_int !batches) "count"

(* {2 persist.Wal and persist.Recovery} *)

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Append every body, group-committing every [batch] appends. *)
let wal o sp ~parent bodies ~dir ~batch =
  let n = Array.length bodies in
  fresh_dir dir;
  let n_append = Spans.name_id sp "wal.append" and n_sync = Spans.name_id sp "wal.sync" in
  with_gc o "wal" ~reqs:n (fun () ->
      let w = Persist.Wal.open_ ~fsync:true ~dir () in
      Array.iteri
        (fun i body ->
          let s = Spans.open_ sp ~name:n_append ~req:i ~parent in
          ignore (Persist.Wal.append w body);
          Spans.close sp s;
          if (i + 1) mod batch = 0 || i = n - 1 then begin
            let s = Spans.open_ sp ~name:n_sync ~req:i ~parent in
            Persist.Wal.sync w;
            Spans.close sp s
          end)
        bodies;
      Persist.Wal.close w);
  emit o "wal.bytes_per_req" (float_of_int (dir_bytes dir) /. float_of_int n) "B"

(* Scan and replay [dir]'s WAL into a fresh backend. *)
let recovery o make_backend ~dir ~expect_digest =
  let t0 = Clock.now_ns () in
  let scan = Persist.Wal.scan ~dir in
  emit o "recovery.scan_s" (secs_since t0) "s";
  let n = Array.length scan.Persist.Wal.records in
  let b = make_backend () in
  let st =
    with_gc o "recovery" ~reqs:n (fun () ->
        Persist.Recovery.recover ~dir
          ~replay:(fun ~seqno body ->
            match b.Net.Backend.prepare ~stamp:seqno body with
            | Ok p -> ignore (p.run ())
            | Error _ -> ())
          ())
  in
  emit o "recovery.replay_rps"
    (float_of_int st.Persist.Recovery.replayed /. (float_of_int st.duration_ns /. 1e9))
    "req/s";
  check_digest o "recovery" b ~expect:expect_digest

(* {2 core} *)

(* The server's dispatch: Sharded_runtime.schedule from one caller
   thread, at the server's shard count. *)
let sharded o sp ~parent make_backend bodies ~shards ~expect_digest =
  let n = Array.length bodies in
  let b = make_backend () in
  let prepared = prepare_all b bodies in
  let name = Spans.name_id sp "sharded.schedule" in
  let t0 = Clock.now_ns () in
  let cross, stamped =
    with_gc o "sharded" ~reqs:n (fun () ->
        let rt = Core.Sharded_runtime.create ~workers_per_shard:1 ~shards () in
        Array.iteri
          (fun i (p : Net.Backend.prepared) ->
            let s = Spans.open_ sp ~name ~req:i ~parent in
            Core.Sharded_runtime.schedule rt p.fp (fun () -> ignore (p.run ()));
            Spans.close sp s)
          prepared;
        Core.Sharded_runtime.drain rt;
        let r = (Core.Sharded_runtime.cross rt, Core.Sharded_runtime.stamped rt) in
        Core.Sharded_runtime.shutdown rt;
        r)
  in
  emit o "sharded.replay_rps" (float_of_int n /. secs_since t0) "req/s";
  emit o "sharded.cross_ratio" (float_of_int cross /. float_of_int stamped) "ratio";
  Spans.count sp "sharded.cross" cross;
  check_digest o "sharded" b ~expect:expect_digest

let runtime o make_backend bodies ~workers ~expect_digest =
  let n = Array.length bodies in
  let b = make_backend () in
  let prepared = prepare_all b bodies in
  let driver = Printf.sprintf "runtime_w%d" workers in
  let t0 = Clock.now_ns () in
  with_gc o driver ~reqs:n (fun () ->
      Core.Runtime.run_log ~workers
        (fun (p : Net.Backend.prepared) -> p.fp)
        (fun p -> ignore (p.run ()))
        prepared);
  emit o (Printf.sprintf "runtime.replay_rps.w%d" workers) (float_of_int n /. secs_since t0) "req/s";
  check_digest o driver b ~expect:expect_digest

(* DAG linking alone: each node is linked behind its predecessors and
   completed at once, so every link sees a settled DAG. *)
let spawner o sp ~parent make_backend bodies =
  let n = Array.length bodies in
  let b = make_backend () in
  let prepared = prepare_all b bodies in
  let name = Spans.name_id sp "spawner.link" in
  let ready = ref None in
  let sink node = ready := Some node in
  with_gc o "spawner" ~reqs:n (fun () ->
      Array.iteri
        (fun i (p : Net.Backend.prepared) ->
          let node = Core.Node.create ~seqno:i (fun () -> ()) in
          let s = Spans.open_ sp ~name ~req:i ~parent in
          Core.Spawner.schedule_ready sink node p.fp;
          Spans.close sp s;
          match !ready with
          | Some nd ->
            ready := None;
            Core.Node.complete nd ~on_ready:ignore
          | None -> error o "spawner: request %d not ready behind completed predecessors" i)
        prepared)

type entry = { mutable ix : int }

(* The paper's pipelined dispatcher (handler+indexer+prefetcher /
   spawner) over one worker. *)
let pipeline o make_backend bodies ~expect_digest =
  let n = Array.length bodies in
  let b = make_backend () in
  let prepared = prepare_all b bodies in
  let service =
    {
      Core.Service.entry_create = (fun _ -> { ix = -1 });
      dummy_input = -1;
      inject = (fun e i -> e.ix <- i);
      index = ignore;
      prefetch = ignore;
      footprint = (fun e -> prepared.(e.ix).Net.Backend.fp);
      work =
        (fun e ->
          let p = prepared.(e.ix) in
          fun () -> ignore (p.Net.Backend.run ()));
    }
  in
  let t0 = Clock.now_ns () in
  with_gc o "pipeline" ~reqs:n (fun () ->
      let runtime = Core.Runtime.create ~workers:1 () in
      let pl = Core.Pipeline.start ~stages:Core.Pipeline.Two_core ~runtime service in
      for i = 0 to n - 1 do
        Core.Pipeline.submit pl i
      done;
      Core.Pipeline.flush_and_stop pl;
      Core.Runtime.shutdown runtime);
  emit o "pipeline.replay_rps" (float_of_int n /. secs_since t0) "req/s";
  check_digest o "pipeline" b ~expect:expect_digest

(* {2 span-derived metrics} *)

(* Interquartile mean: the typical call, robust to preemptions and
   finer-grained than a median of whole nanoseconds. *)
let iq_mean xs =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  let lo = n / 4 and hi = n - (n / 4) in
  let sum = ref 0. in
  for i = lo to hi - 1 do
    sum := !sum +. s.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* Typical self time (ns) of each per-request layer span, plus the
   percentiles the sequencer and WAL rows ask for. *)
let span_metrics o sp =
  let self = Spans.self_times sp in
  let of_ name = Spans.self_of sp self name in
  List.iter
    (fun name -> emit o (name ^ "_ns") (iq_mean (of_ name)) "ns")
    [
      "net.encode"; "net.decode"; "backend.prepare"; "backend.run"; "sharded.schedule";
      "spawner.link"; "wal.append";
    ];
  List.iter
    (fun (span, metric, unit_, scale) ->
      let xs = of_ span in
      emit o (metric ^ ".p50") (Gen.percentile xs 50. /. scale) unit_;
      emit o (metric ^ ".p99") (Gen.percentile xs 99. /. scale) unit_)
    [
      ("sequencer.deliver", "sequencer.deliver_ns", "ns", 1.);
      ("sequencer.durable_deliver", "sequencer.durable_deliver_ns", "ns", 1.);
      ("wal.sync", "wal.sync_us", "us", 1e3);
    ]
