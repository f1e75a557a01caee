(* Order statistics over float samples. *)

(* Nearest-rank quantile, [p] in [0, 1]. *)
let quantile p = function
  | [||] -> 0.
  | xs ->
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile 0.5 xs

let mean = function
  | [||] -> 0.
  | xs -> Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)
