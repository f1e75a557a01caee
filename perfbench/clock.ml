(* Monotonic seconds (CLOCK_MONOTONIC), comparable across the
   processes of one machine, so a child can timestamp events that its
   parent started the clock for. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
