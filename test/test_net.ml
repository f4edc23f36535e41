(* TCP front-end tests: wire codecs, incremental frame reassembly over
   adversarial chunk boundaries, the hardened syscall helpers, and the
   live loopback server — whose central claim is the wire-determinism
   win condition: whatever a client observes over TCP must match an
   in-process serial replay of the server's request log. *)

module Net = Doradd_net
module Wire = Net.Wire
module Codec = Doradd_persist.Codec
module Sysio = Doradd_persist.Sysio
module Db = Doradd_db
module Rng = Doradd_stats.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)
(* ------------------------------------------------------------------ *)

let test_wire_roundtrips () =
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let req_id = Rng.int rng (Wire.max_req_id + 1) in
    let body = String.init (Rng.int rng 64) (fun _ -> Char.chr (Rng.int rng 256)) in
    (match Wire.decode_request (Wire.encode_request ~req_id ~body) with
    | Ok (id, b) -> checkb "request roundtrip" true (id = req_id && b = body)
    | Error e -> Alcotest.fail e);
    let reply =
      {
        Wire.req_id;
        stamp = Rng.int rng max_int;
        status = Rng.int rng 2;
        result = Int64.to_int (Rng.next_int64 rng);
      }
    in
    (match Wire.decode_reply (Wire.encode_reply reply) with
    | Ok r -> checkb "reply roundtrip" true (r = reply)
    | Error e -> Alcotest.fail e);
    let kv =
      {
        Wire.work = Rng.int rng 10_000;
        ops =
          Array.init (Rng.int rng 8) (fun _ ->
              { Wire.key = Rng.int rng 100_000; update = Rng.bool rng });
      }
    in
    (match Wire.decode_kv (Wire.encode_kv kv) with
    | Ok k -> checkb "kv roundtrip" true (k = kv)
    | Error e -> Alcotest.fail e)
  done

let test_tpcc_roundtrip () =
  let cfg = { Db.Tpcc_db.warehouses = 4; customers_per_district = 50; items = 200 } in
  let txns = Db.Tpcc_db.generate ~remote_pct:30 (Db.Tpcc_db.create cfg) (Rng.create 3) ~n:100 in
  Array.iter
    (fun txn ->
      match Wire.decode_tpcc (Wire.encode_tpcc txn) with
      | Ok t -> checkb "tpcc roundtrip" true (t = txn)
      | Error e -> Alcotest.fail e)
    txns

let test_wire_rejects () =
  let err = function Error _ -> true | Ok _ -> false in
  checkb "short request" true (err (Wire.decode_request "abc"));
  checkb "wrong reply length" true (err (Wire.decode_reply "short"));
  checkb "kv wrong tag" true (err (Wire.decode_kv "Xtail"));
  checkb "kv short header" true (err (Wire.decode_kv "K"));
  (* op count says 2, body carries 1 *)
  let one_op = Wire.encode_kv { Wire.work = 0; ops = [| { Wire.key = 5; update = true } |] } in
  let lying = Bytes.of_string one_op in
  Bytes.set lying 5 '\x02';
  checkb "kv op count lies" true (err (Wire.decode_kv (Bytes.to_string lying)));
  (* bad op kind *)
  let bad_kind = Bytes.of_string one_op in
  Bytes.set bad_kind 7 'Z';
  checkb "kv bad op kind" true (err (Wire.decode_kv (Bytes.to_string bad_kind)));
  checkb "tpcc wrong tag" true (err (Wire.decode_tpcc "K"));
  checkb "tpcc bad kind" true (err (Wire.decode_tpcc "TZ"));
  let no =
    Wire.encode_tpcc
      (Db.Tpcc_db.New_order { no_w = 0; no_d = 1; no_c = 2; lines = [| (0, 3, 4) |] })
  in
  checkb "tpcc truncated lines" true
    (err (Wire.decode_tpcc (String.sub no 0 (String.length no - 5))))

(* ------------------------------------------------------------------ *)
(* Codec u32 hardening (the 32-bit sign-extension bugfix)               *)
(* ------------------------------------------------------------------ *)

let test_codec_u32_boundary () =
  (* all-0xFF header: decodes as u32 length 2^32-1 (or saturates to
     max_int on 31-bit ints) — always > max_payload, always Bad_length,
     never a negative length slipping past the guards *)
  (match Codec.read_at (String.make 16 '\xFF') ~pos:0 with
  | Codec.Torn (Codec.Bad_length n) -> checkb "all-FF length positive" true (n > Codec.max_payload)
  | _ -> Alcotest.fail "all-FF header must be Bad_length");
  (* high-bit headers across the whole top byte: never Record, never raises *)
  for b3 = 0x01 to 0xFF do
    let h = Bytes.make 8 '\x00' in
    Bytes.set h 3 (Char.chr b3);
    match Codec.read_at (Bytes.to_string h) ~pos:0 with
    | Codec.Torn (Codec.Bad_length n) -> checkb "u32 length positive" true (n > 0)
    | Codec.Torn Codec.Truncated -> ()
    | _ -> Alcotest.fail "high length field must be Bad_length or Truncated"
  done;
  (* the exact boundary: len = max_payload is a valid (truncated here)
     frame; len = max_payload + 1 is corruption *)
  let header len =
    let h = Bytes.make 8 '\x00' in
    Bytes.set h 0 (Char.chr (len land 0xFF));
    Bytes.set h 1 (Char.chr ((len lsr 8) land 0xFF));
    Bytes.set h 2 (Char.chr ((len lsr 16) land 0xFF));
    Bytes.set h 3 (Char.chr ((len lsr 24) land 0xFF));
    Bytes.to_string h
  in
  (match Codec.read_at (header Codec.max_payload) ~pos:0 with
  | Codec.Torn Codec.Truncated -> ()
  | _ -> Alcotest.fail "len = max_payload with short buffer must be Truncated");
  match Codec.read_at (header (Codec.max_payload + 1)) ~pos:0 with
  | Codec.Torn (Codec.Bad_length _) -> ()
  | _ -> Alcotest.fail "len = max_payload + 1 must be Bad_length"

let prop_codec_header_never_crashes =
  QCheck.Test.make ~name:"random 8-byte headers: decode is total and non-negative"
    ~count:500
    QCheck.(string_of_size (QCheck.Gen.return 8))
    (fun h ->
      match Codec.read_at h ~pos:0 with
      | Codec.Torn (Codec.Bad_length n) -> n > Codec.max_payload || n < 0 = false
      | Codec.Torn Codec.Truncated | Codec.Torn (Codec.Bad_crc _) -> true
      | Codec.Record _ -> true (* len 0 frame whose crc happens to match *)
      | Codec.End -> false)

(* ------------------------------------------------------------------ *)
(* Frame reassembly                                                    *)
(* ------------------------------------------------------------------ *)

(* split [0, n) at random boundaries; chunk size 1 is common *)
let random_chunks rng n =
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let len = min (n - pos) (1 + Rng.int rng 7) in
      go (pos + len) ((pos, len) :: acc)
  in
  go 0 []

let prop_reassembly_any_chunking =
  QCheck.Test.make
    ~name:"reassembly over random chunk boundaries = the frame sequence" ~count:200
    QCheck.(pair small_int (small_list (string_of_size QCheck.Gen.small_nat)))
    (fun (seed, payloads) ->
      let rng = Rng.create seed in
      let stream = String.concat "" (List.map Codec.frame payloads) in
      let reader = Net.Frame_reader.create ~initial_capacity:8 () in
      let got = ref [] in
      List.iter
        (fun (pos, len) ->
          Net.Frame_reader.feed reader (Bytes.of_string stream) ~pos ~len;
          let rec drain () =
            match Net.Frame_reader.next reader with
            | `Frame p ->
              got := p :: !got;
              drain ()
            | `Need_more -> ()
            | `Error _ -> QCheck.Test.fail_report "unexpected framing error"
          in
          drain ())
        (random_chunks rng (String.length stream));
      List.rev !got = payloads && Net.Frame_reader.at_eof reader = None)

let test_reassembly_one_byte_feeds () =
  let payloads = [ ""; "a"; String.make 300 'x'; "tail" ] in
  let stream = String.concat "" (List.map Codec.frame payloads) in
  let reader = Net.Frame_reader.create ~initial_capacity:4 () in
  let got = ref [] in
  String.iteri
    (fun i _ ->
      Net.Frame_reader.feed reader (Bytes.of_string stream) ~pos:i ~len:1;
      let rec drain () =
        match Net.Frame_reader.next reader with
        | `Frame p ->
          got := p :: !got;
          drain ()
        | `Need_more -> ()
        | `Error e -> Alcotest.fail (Codec.error_to_string e)
      in
      drain ())
    stream;
  checkb "all frames out" true (List.rev !got = payloads);
  checkb "clean eof" true (Net.Frame_reader.at_eof reader = None)

let test_reassembly_torn_and_corrupt () =
  (* torn: missing tail bytes never yield a frame, and eof says Truncated *)
  let frame = Codec.frame "payload-bytes" in
  let reader = Net.Frame_reader.create () in
  Net.Frame_reader.feed reader (Bytes.of_string frame) ~pos:0
    ~len:(String.length frame - 3);
  checkb "torn frame pends" true (Net.Frame_reader.next reader = `Need_more);
  checkb "eof mid-frame is Truncated" true
    (Net.Frame_reader.at_eof reader = Some Codec.Truncated);
  (* bad crc: a complete lying frame is a fatal stream error *)
  let corrupt = Bytes.of_string frame in
  Bytes.set corrupt (Codec.header_bytes + 2) 'X';
  let reader = Net.Frame_reader.create () in
  Net.Frame_reader.feed reader corrupt ~pos:0 ~len:(Bytes.length corrupt);
  (match Net.Frame_reader.next reader with
  | `Error (Codec.Bad_crc _) -> ()
  | _ -> Alcotest.fail "corrupt frame must surface Bad_crc");
  (* bad length: poisoned header *)
  let reader = Net.Frame_reader.create () in
  Net.Frame_reader.feed reader (Bytes.make 12 '\xFF') ~pos:0 ~len:12;
  match Net.Frame_reader.next reader with
  | `Error (Codec.Bad_length _) -> ()
  | _ -> Alcotest.fail "oversized length must surface Bad_length"

(* ------------------------------------------------------------------ *)
(* Sysio hardening                                                     *)
(* ------------------------------------------------------------------ *)

let test_sysio_retry () =
  let attempts = ref 0 in
  let v =
    Sysio.retry (fun () ->
        incr attempts;
        if !attempts < 4 then raise (Unix.Unix_error (Unix.EINTR, "write", ""))
        else 42)
  in
  checki "value after retries" 42 v;
  checki "three EINTRs retried" 4 !attempts;
  (* other errors propagate *)
  checkb "EIO propagates" true
    (match Sysio.retry (fun () -> raise (Unix.Unix_error (Unix.EIO, "fsync", ""))) with
    | exception Unix.Unix_error (Unix.EIO, _, _) -> true
    | _ -> false)

let test_sysio_write_read_pipe () =
  (* short writes are real on pipes: push 1 MiB through a 64 KiB pipe
     with a concurrent reader and compare checksums *)
  let r, w = Unix.pipe ~cloexec:true () in
  let payload = String.init 1_048_576 (fun i -> Char.chr (i * 31 land 0xff)) in
  let received = Buffer.create (String.length payload) in
  let reader =
    Thread.create
      (fun () ->
        let buf = Bytes.create 8192 in
        let rec loop () =
          match Sysio.read r buf ~pos:0 ~len:(Bytes.length buf) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes received buf 0 n;
            loop ()
        in
        loop ())
      ()
  in
  Sysio.write_all w payload ~pos:0 ~len:(String.length payload);
  Unix.close w;
  Thread.join reader;
  Unix.close r;
  checkb "pipe roundtrip" true (Buffer.contents received = payload)

let test_sysio_fsync_dir () =
  let dir = Filename.temp_dir "doradd_test_net_fsync" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* must not raise on a real directory (EINVAL-class errors are the
     only ones swallowed) *)
  Sysio.fsync_dir dir;
  (* a missing directory is a real error and must propagate *)
  checkb "ENOENT propagates" true
    (match Sysio.fsync_dir (Filename.concat dir "nope") with
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Live loopback server                                                *)
(* ------------------------------------------------------------------ *)

let with_server ?(shards = 2) ?wal_dir backend_of f =
  let server =
    Net.Server.start
      { Net.Server.default_config with shards; wal_dir; wal_fsync = false }
      (backend_of ())
  in
  Fun.protect ~finally:(fun () -> Net.Server.stop server) (fun () -> f server)

let kv_keys = 512

let kv_backend () = Net.Backend.kv ~n_keys:kv_keys ()

let kv_body rng =
  Wire.encode_kv
    {
      Wire.work = 0;
      ops =
        Array.init
          (1 + Rng.int rng 4)
          (fun _ -> { Wire.key = Rng.int rng kv_keys; update = Rng.bool rng });
    }

(* the win condition, straight from ISSUE.md: N concurrent loopback
   clients, and everything they observed — per-request results and the
   final digest — equals the serial replay of the server's log *)
let test_concurrent_clients_deterministic () =
  with_server kv_backend @@ fun server ->
  let n_clients = 4 and per_client = 150 in
  let observed = Array.make (n_clients * per_client) None in
  let clients =
    Array.init n_clients (fun c ->
        Thread.create
          (fun () ->
            let client = Net.Client.connect ~port:(Net.Server.port server) () in
            let rng = Rng.create (1000 + c) in
            for i = 0 to per_client - 1 do
              let r = Net.Client.call client ~req_id:i ~body:(kv_body rng) in
              checki "req_id echoed" i r.Wire.req_id;
              observed.((c * per_client) + i) <-
                Some (r.Wire.stamp, r.Wire.status, r.Wire.result)
            done;
            Net.Client.close client)
          ())
  in
  Array.iter Thread.join clients;
  Net.Server.stop server;
  let log = Net.Server.request_log server in
  checki "every request sequenced" (n_clients * per_client) (Array.length log);
  let sdigest, sresults = Net.Backend.replay_serial kv_backend log in
  checkb "state digest = serial replay" true (Net.Server.digest server = sdigest);
  Array.iter
    (function
      | None -> Alcotest.fail "reply missing"
      | Some (stamp, status, result) -> (
        match sresults.(stamp) with
        | Some r ->
          checkb "result = serial replay" true (status = Wire.status_ok && result = r)
        | None -> Alcotest.fail "serial replay lost a stamp"))
    observed

let test_malformed_body_consumes_stamp () =
  with_server kv_backend @@ fun server ->
  let client = Net.Client.connect ~port:(Net.Server.port server) () in
  let rng = Rng.create 11 in
  let r0 = Net.Client.call client ~req_id:0 ~body:(kv_body rng) in
  let r1 = Net.Client.call client ~req_id:1 ~body:"Zgarbage" in
  (* an out-of-range key decodes fine but fails name resolution: same
     malformed path, state untouched *)
  let oob =
    Wire.encode_kv { Wire.work = 0; ops = [| { Wire.key = kv_keys; update = true } |] }
  in
  let r2 = Net.Client.call client ~req_id:2 ~body:oob in
  let r3 = Net.Client.call client ~req_id:3 ~body:(kv_body rng) in
  Net.Client.close client;
  Net.Server.stop server;
  checki "garbage is malformed" Wire.status_malformed r1.Wire.status;
  checki "out-of-range key is malformed" Wire.status_malformed r2.Wire.status;
  checkb "good requests ok" true
    (r0.Wire.status = Wire.status_ok && r3.Wire.status = Wire.status_ok);
  checkb "stamps dense" true
    (List.map (fun (r : Wire.reply) -> r.stamp) [ r0; r1; r2; r3 ] = [ 0; 1; 2; 3 ]);
  let log = Net.Server.request_log server in
  checki "malformed kept in log" 4 (Array.length log);
  checki "malformed counted" 2 (Net.Server.stats server).Net.Server.malformed;
  let sdigest, sresults = Net.Backend.replay_serial kv_backend log in
  checkb "replay marks the same stamps malformed" true
    (sresults.(1) = None && sresults.(2) = None);
  checkb "digest matches replay with no-op stamps" true
    (Net.Server.digest server = sdigest)

let test_bad_crc_poisons_connection () =
  with_server kv_backend @@ fun server ->
  let client = Net.Client.connect ~port:(Net.Server.port server) () in
  let good = Codec.frame (Wire.encode_request ~req_id:0 ~body:"anything") in
  let corrupt = Bytes.of_string good in
  Bytes.set corrupt (Codec.header_bytes + 1) 'X';
  Net.Client.send_raw client (Bytes.to_string corrupt);
  (* the server must close without replying *)
  checkb "connection closed, no reply" true
    (match Net.Client.recv client with Error (Eof | Torn) -> true | _ -> false);
  Net.Client.close client;
  (* oversized length field: same poison path *)
  let client2 = Net.Client.connect ~port:(Net.Server.port server) () in
  Net.Client.send_raw client2 (String.make 16 '\xFF');
  checkb "bad length closes too" true
    (match Net.Client.recv client2 with Error (Eof | Torn) -> true | _ -> false);
  Net.Client.close client2;
  (* fresh connections keep working; nothing was sequenced *)
  let client3 = Net.Client.connect ~port:(Net.Server.port server) () in
  let r = Net.Client.call client3 ~req_id:9 ~body:(kv_body (Rng.create 5)) in
  Net.Client.close client3;
  Net.Server.stop server;
  checkb "survivor gets stamp 0" true (r.Wire.stamp = 0 && r.Wire.status = Wire.status_ok);
  let s = Net.Server.stats server in
  checki "two framing errors" 2 s.Net.Server.framing_errors;
  checki "nothing from poisoned conns sequenced" 1
    (Array.length (Net.Server.request_log server))

let test_disconnect_mid_request () =
  (* seeded: clients vanish mid-frame at random points; the server keeps
     serving everyone else and determinism is unaffected *)
  let rng = Rng.create 23 in
  with_server kv_backend @@ fun server ->
  for _ = 1 to 8 do
    let body = kv_body rng in
    let frame = Codec.frame (Wire.encode_request ~req_id:0 ~body) in
    let cut = 1 + Rng.int rng (String.length frame - 1) in
    let client = Net.Client.connect ~port:(Net.Server.port server) () in
    Net.Client.send_raw client (String.sub frame 0 cut);
    Net.Client.close client
  done;
  (* a full request then an abrupt close before reading the reply: the
     sequenced request must still execute (reply write may be dropped) *)
  let client = Net.Client.connect ~port:(Net.Server.port server) () in
  Net.Client.send client ~req_id:0 ~body:(kv_body rng);
  Net.Client.close client;
  let survivor = Net.Client.connect ~port:(Net.Server.port server) () in
  let replies =
    Array.init 20 (fun i -> Net.Client.call survivor ~req_id:i ~body:(kv_body rng))
  in
  Net.Client.close survivor;
  Net.Server.stop server;
  let log = Net.Server.request_log server in
  checki "abandoned + survivor requests sequenced" 21 (Array.length log);
  let sdigest, sresults = Net.Backend.replay_serial kv_backend log in
  checkb "digest matches replay" true (Net.Server.digest server = sdigest);
  Array.iter
    (fun (r : Wire.reply) ->
      checkb "survivor results match replay" true
        (sresults.(r.stamp) = Some r.result && r.status = Wire.status_ok))
    replies;
  let s = Net.Server.stats server in
  checkb "torn disconnects counted" true (s.Net.Server.torn_disconnects >= 8)

let test_one_byte_trickle_over_tcp () =
  with_server kv_backend @@ fun server ->
  let client = Net.Client.connect ~port:(Net.Server.port server) () in
  let body = kv_body (Rng.create 31) in
  let frame = Codec.frame (Wire.encode_request ~req_id:77 ~body) in
  String.iter (fun c -> Net.Client.send_raw client (String.make 1 c)) frame;
  (match Net.Client.recv client with
  | Ok r -> checkb "trickled request answered" true (r.Wire.req_id = 77)
  | Error e -> Alcotest.fail (Net.Client.recv_error_to_string e));
  Net.Client.close client

let test_durable_wal_matches_log () =
  let dir = Filename.temp_dir "doradd_test_net_wal" "" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let log =
    with_server ~wal_dir:dir kv_backend @@ fun server ->
    let client = Net.Client.connect ~port:(Net.Server.port server) () in
    let rng = Rng.create 13 in
    for i = 0 to 49 do
      let r = Net.Client.call client ~req_id:i ~body:(kv_body rng) in
      checki "durable run ok" Wire.status_ok r.Wire.status
    done;
    Net.Client.close client;
    Net.Server.stop server;
    Net.Server.request_log server
  in
  let scan = (Doradd_persist.Wal.scan ~dir).Doradd_persist.Wal.records in
  checki "one WAL record per request" (Array.length log) (Array.length scan);
  Array.iteri
    (fun i (seqno, data) ->
      checkb "WAL record = logged body" true (seqno = i && data = log.(i)))
    scan

let test_loadgen_open_loop () =
  with_server kv_backend @@ fun server ->
  let report =
    Net.Loadgen.run
      {
        Net.Loadgen.default_cfg with
        port = Net.Server.port server;
        connections = 3;
        requests = 300;
        rate = 20_000.0;
        seed = 9;
        workload =
          Net.Loadgen.Kv
            {
              n_keys = kv_keys;
              ops_per_txn = 3;
              update_pct = 50;
              heavy_pct = 10;
              light_work = 10;
              heavy_work = 500;
            };
        collect_replies = true;
      }
  in
  Net.Server.stop server;
  checki "all sent" 300 report.Net.Loadgen.sent;
  checki "all answered" 300 report.Net.Loadgen.received;
  checki "none malformed" 0 report.Net.Loadgen.malformed;
  checki "stamps collected" 300 (Array.length report.Net.Loadgen.replies);
  (* collected stamps are exactly 0..n-1 (sorted, dense) *)
  Array.iteri
    (fun i (stamp, _, _) -> checki "dense stamps" i stamp)
    report.Net.Loadgen.replies;
  checkb "percentiles ordered" true
    (report.Net.Loadgen.p50_ns <= report.Net.Loadgen.p99_ns
    && report.Net.Loadgen.p99_ns <= report.Net.Loadgen.p999_ns
    && report.Net.Loadgen.p999_ns <= report.Net.Loadgen.max_ns);
  let sdigest, sresults =
    Net.Backend.replay_serial kv_backend (Net.Server.request_log server)
  in
  checkb "loadgen run deterministic" true (Net.Server.digest server = sdigest);
  Array.iter
    (fun (stamp, status, result) ->
      checkb "loadgen replies match replay" true
        (status = Wire.status_ok && sresults.(stamp) = Some result))
    report.Net.Loadgen.replies

(* An idle server must sleep, not spin: its sequencer, shard dispatchers
   and workers park once their spin budget runs out.  [Unix.times] is
   process-wide, and this process is otherwise idle while it sleeps. *)
let test_idle_server_cpu () =
  with_server kv_backend @@ fun _ ->
  Thread.delay 0.1;
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let c0 = cpu () and w0 = Unix.gettimeofday () in
  Thread.delay 0.5;
  let cores = (cpu () -. c0) /. (Unix.gettimeofday () -. w0) in
  if cores >= 0.25 then Alcotest.failf "idle server burns %.2f cores (limit 0.25)" cores

let () =
  Alcotest.run "net"
    [
      ( "wire",
        [
          Alcotest.test_case "request/reply/kv roundtrips" `Quick test_wire_roundtrips;
          Alcotest.test_case "tpcc roundtrip" `Quick test_tpcc_roundtrip;
          Alcotest.test_case "hostile inputs rejected" `Quick test_wire_rejects;
        ] );
      ( "codec-u32",
        [
          Alcotest.test_case "unsigned boundary + all-FF headers" `Quick
            test_codec_u32_boundary;
          QCheck_alcotest.to_alcotest prop_codec_header_never_crashes;
        ] );
      ( "reassembly",
        [
          QCheck_alcotest.to_alcotest prop_reassembly_any_chunking;
          Alcotest.test_case "one-byte feeds" `Quick test_reassembly_one_byte_feeds;
          Alcotest.test_case "torn / bad-crc / bad-length" `Quick
            test_reassembly_torn_and_corrupt;
        ] );
      ( "sysio",
        [
          Alcotest.test_case "retry eats EINTR, propagates EIO" `Quick test_sysio_retry;
          Alcotest.test_case "write_all/read across a pipe" `Quick
            test_sysio_write_read_pipe;
          Alcotest.test_case "fsync_dir error policy" `Quick test_sysio_fsync_dir;
        ] );
      ( "server",
        [
          Alcotest.test_case "concurrent clients = serial replay" `Quick
            test_concurrent_clients_deterministic;
          Alcotest.test_case "malformed body consumes a stamp" `Quick
            test_malformed_body_consumes_stamp;
          Alcotest.test_case "bad crc / bad length poison the connection" `Quick
            test_bad_crc_poisons_connection;
          Alcotest.test_case "disconnect mid-request" `Quick test_disconnect_mid_request;
          Alcotest.test_case "one-byte trickle over tcp" `Quick
            test_one_byte_trickle_over_tcp;
          Alcotest.test_case "durable WAL = request log" `Quick
            test_durable_wal_matches_log;
          Alcotest.test_case "open-loop loadgen end to end" `Quick test_loadgen_open_loop;
          Alcotest.test_case "idle server parks its domains" `Quick test_idle_server_cpu;
        ] );
    ]
