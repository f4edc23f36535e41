(* The benchmark's workloads: what the server is started with, how the
   request bodies are generated from the seed, and the fresh backend a
   serial replay of those bodies runs through.  The server never sees
   the seed, only the generated bodies. *)

module Net = Doradd_net
module Db = Doradd_db
module Rng = Doradd_stats.Rng

type kind = Kv | Tpcc

type t = {
  name : string;
  kind : kind;
  durable : bool;
      (** single-node cluster with an fsynced WAL, killed and restarted *)
  light_rps : float;  (** the unloaded latency floor's fixed rate *)
  heavy_rps : float;  (** about half the saturation throughput at d998d15 *)
}

let all =
  [
    { name = "kv-uniform"; kind = Kv; durable = false; light_rps = 1000.; heavy_rps = 8000. };
    { name = "tpcc-hot"; kind = Tpcc; durable = false; light_rps = 1000.; heavy_rps = 7000. };
    { name = "kv-durable"; kind = Kv; durable = true; light_rps = 1000.; heavy_rps = 8000. };
  ]

let of_name n = List.find_opt (fun w -> w.name = n) all

(* The server's own defaults: 65536 kv keys, the small TPC-C scale. *)
let kv_keys = 65_536
let tpcc_config = Net.Backend.small_tpcc_config

let make_backend w () =
  match w.kind with
  | Kv -> Net.Backend.kv ~n_keys:kv_keys ()
  | Tpcc -> Net.Backend.tpcc ~config:tpcc_config ()

(* Only the flags the workload needs on top of the server's defaults:
   an ephemeral port, the backend, and for kv-durable the single-node
   cluster (the only shipped durable mode that rebuilds its state on
   restart; fsync stays at its default, on). *)
let server_args w ~data_dir =
  [ "-p"; "0" ]
  @ (match w.kind with Kv -> [] | Tpcc -> [ "--backend"; "tpcc" ])
  @
  match data_dir with
  | Some dir when w.durable ->
    [ "--node-id"; "0"; "--primary"; "--sync-replicas"; "0"; "--durable"; dir ]
  | _ -> []

type stream = { w : t; rng : Rng.t; mutable i : int }

let stream w ~seed = { w; rng = Rng.create seed; i = 0 }

(* kv: 4 ops, 50 % updates, uniform keys, no spin work.
   tpcc: NewOrder/Payment alternating, 5-15 lines, 10 % remote lines. *)
let next_body s =
  let rng = s.rng in
  let i = s.i in
  s.i <- i + 1;
  match s.w.kind with
  | Kv ->
    Net.Wire.encode_kv
      {
        Net.Wire.work = 0;
        ops =
          Array.init 4 (fun _ ->
              { Net.Wire.key = Rng.int rng kv_keys; update = Rng.int rng 100 < 50 });
      }
  | Tpcc ->
    let c = tpcc_config in
    let w = Rng.int rng c.warehouses in
    let d = Rng.int rng 10 in
    let cust = Rng.int rng c.customers_per_district in
    Net.Wire.encode_tpcc
      (if i land 1 = 0 then
         Db.Tpcc_db.New_order
           {
             no_w = w;
             no_d = d;
             no_c = cust;
             lines =
               Array.init
                 (5 + Rng.int rng 11)
                 (fun _ ->
                   let supply =
                     if c.warehouses > 1 && Rng.int rng 100 < 10 then
                       (w + 1 + Rng.int rng (c.warehouses - 1)) mod c.warehouses
                     else w
                   in
                   (supply, Rng.int rng c.items, 1 + Rng.int rng 10));
           }
       else
         Db.Tpcc_db.Payment
           { p_w = w; p_d = d; p_c = cust; amount = 100 + Rng.int rng 500_000 })

let bodies w ~seed n =
  let s = stream w ~seed in
  Array.init n (fun _ -> next_body s)
