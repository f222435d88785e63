(* CLOCK_MONOTONIC in nanoseconds; allocation-free. *)
external now_ns : unit -> (int[@untagged]) = "perfbench_now_ns_byte" "perfbench_now_ns"
[@@noalloc]

let seconds_of_ns ns = float_of_int ns *. 1e-9
let since_s t0 = seconds_of_ns (now_ns () - t0)
