(* Monotonic nanoseconds (CLOCK_MONOTONIC, allocation-free) for every
   latency and span in the benchmark; wall time only for reports. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let ms_of_ns ns = float_of_int ns /. 1e6
