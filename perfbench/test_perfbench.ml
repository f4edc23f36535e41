(* The benchmark's own checks, checked: the reply check must pass an
   honest run and catch a planted wrong reply, a lost stamp and a wrong
   digest; the span arithmetic must subtract child coverage. *)

open Doradd_perfbench
module Net = Doradd_net

let w = Option.get (Workload.of_name "kv-uniform")
let make = Workload.make_backend w

(* A live in-process server, driven by the benchmark's generator. *)
let served_log () =
  let server = Net.Server.start Net.Server.default_config (make ()) in
  let log = Gen.create_log () in
  let g = Gen.create log in
  Gen.connect g ~port:(Net.Server.port server) ~n:2 ~timeout_s:5.;
  let stream = Workload.stream w ~seed:7 in
  let p =
    Gen.closed_loop g ~next_body:(fun () -> Workload.next_body stream) ~window:8
      ~requests:500 ~drain_s:5.
  in
  Gen.close g;
  Net.Server.stop server;
  Alcotest.(check int) "every request answered" 0 (Gen.failed log ~timeout_ns:max_int p);
  (log, Net.Server.digest server, Array.length (Net.Server.request_log server))

let rebuild_ok log ~logged =
  match Verify.rebuild ~make_backend:make ~log ~logged () with
  | Ok r -> r
  | Error es -> Alcotest.failf "rebuild failed: %s" (String.concat "; " es)

let test_honest_run_passes () =
  let log, server_digest, logged = served_log () in
  let r = rebuild_ok log ~logged in
  Alcotest.(check (list string)) "no mismatches" [] (Verify.mismatches log r ~server_digest:(Some server_digest))

let test_planted_wrong_reply_caught () =
  let log, server_digest, logged = served_log () in
  let r = rebuild_ok log ~logged in
  Alcotest.(check bool) "canary caught" true (Verify.canary_caught log r ~server_digest:(Some server_digest));
  log.Gen.result.(log.n / 2) <- log.result.(log.n / 2) lxor 1;
  Alcotest.(check bool) "wrong reply reported" true
    (Verify.mismatches log r ~server_digest:(Some server_digest) <> [])

let test_wrong_digest_caught () =
  let log, server_digest, logged = served_log () in
  let r = rebuild_ok log ~logged in
  Alcotest.(check bool) "wrong digest reported" true
    (Verify.mismatches log r ~server_digest:(Some (server_digest + 1)) <> [])

let test_lost_stamp_caught () =
  let log, _, logged = served_log () in
  let lost = Verify.rebuild ~make_backend:make ~log ~logged:(logged + 1) () in
  Alcotest.(check bool) "stamp never sent" true (Result.is_error lost);
  let i = log.Gen.n - 1 in
  log.recv.(i) <- -1;
  Alcotest.(check bool) "unanswered logged request" true
    (Result.is_error (Verify.rebuild ~make_backend:make ~log ~logged ()))

let test_self_time () =
  let sp = Spans.create () in
  let root = Spans.add sp ~name:0 ~req:0 ~parent:(-1) ~start:0 ~stop:100 in
  ignore (Spans.add sp ~name:1 ~req:0 ~parent:root ~start:10 ~stop:40);
  ignore (Spans.add sp ~name:1 ~req:0 ~parent:root ~start:30 ~stop:50);
  ignore (Spans.add sp ~name:1 ~req:0 ~parent:root ~start:90 ~stop:120);
  let self = Spans.self_times sp in
  Alcotest.(check int) "root self = 100 - covered 50" 50 self.(root);
  Alcotest.(check int) "leaf self = duration" 30 self.(1)

let () =
  Alcotest.run "perfbench"
    [
      ( "reply-check",
        [
          Alcotest.test_case "honest run passes" `Quick test_honest_run_passes;
          Alcotest.test_case "planted wrong reply caught" `Quick test_planted_wrong_reply_caught;
          Alcotest.test_case "wrong digest caught" `Quick test_wrong_digest_caught;
          Alcotest.test_case "lost stamp caught" `Quick test_lost_stamp_caught;
        ] );
      ("spans", [ Alcotest.test_case "self time subtracts children" `Quick test_self_time ]);
    ]
