(* bechamel's monotonic clock, bound directly so the read is noalloc
   and unboxed (its [Monotonic_clock.now] wrapper boxes the int64). *)
external now64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (now64 ())
let s_of_ns ns = Float.of_int ns *. 1e-9
