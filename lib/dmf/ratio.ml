type t = { parts : int array; d : int; names : string array }

(* Names are immutable strings, so every ratio of up to [shared_names]
   fluids takes its default names from one table instead of printing
   them anew on every parse. *)
let shared_names = 64
let name_table = Array.init shared_names (fun i -> Fluid.default_name (Fluid.make i))

let default_names n =
  if n <= shared_names then Array.sub name_table 0 n
  else Array.init n (fun i -> Fluid.default_name (Fluid.make i))

(* [parts] and [names] are owned by the result: callers pass copies. *)
let create ~names parts =
  let n = Array.length parts in
  if n < 2 then invalid_arg "Ratio.make: a mixture needs at least two fluids";
  Array.iter
    (fun a -> if a < 1 then invalid_arg "Ratio.make: every part must be >= 1")
    parts;
  let sum = Array.fold_left ( + ) 0 parts in
  if not (Binary.is_power_of_two sum) then
    invalid_arg "Ratio.make: the ratio-sum must be a power of two";
  let names =
    match names with
    | None -> default_names n
    | Some names ->
      if Array.length names <> n then
        invalid_arg "Ratio.make: names and parts lengths differ";
      names
  in
  { parts; d = Binary.log2_exact sum; names }

let make ?names parts =
  create ~names:(Option.map Array.copy names) (Array.copy parts)

(* Fields are the ':'-separated pieces, parsed left to right; the
   first one that is not an integer (surrounding blanks allowed) is
   reported as written. *)
let of_string s =
  let n = String.length s in
  let count = ref 1 in
  String.iter (fun c -> if c = ':' then incr count) s;
  let parts = Array.make !count 0 in
  let start = ref 0 in
  for i = 0 to !count - 1 do
    let stop = ref !start in
    while !stop < n && String.unsafe_get s !stop <> ':' do
      incr stop
    done;
    let field = String.sub s !start (!stop - !start) in
    (parts.(i) <-
       match int_of_string (String.trim field) with
       | a -> a
       | exception Failure _ -> invalid_arg ("Ratio.of_string: bad part " ^ field));
    start := !stop + 1
  done;
  create ~names:None parts

let parts r = Array.copy r.parts

let part r i =
  if i < 0 || i >= Array.length r.parts then
    invalid_arg "Ratio.part: index out of range";
  r.parts.(i)

let n_fluids r = Array.length r.parts
let sum r = Binary.pow2 r.d
let accuracy r = r.d
let names r = Array.copy r.names
let fluids r = List.init (n_fluids r) Fluid.make

let equal a b =
  Array.length a.parts = Array.length b.parts
  && Array.for_all2 ( = ) a.parts b.parts

let compare a b =
  let la = Array.length a.parts and lb = Array.length b.parts in
  match Int.compare la lb with
  | 0 ->
    let rec go i =
      if i >= la then 0
      else
        match Int.compare a.parts.(i) b.parts.(i) with
        | 0 -> go (i + 1)
        | c -> c
    in
    go 0
  | c -> c

let hash r = Hashtbl.hash r.parts

let key r =
  String.concat ":" (Array.to_list (Array.map string_of_int r.parts))

(* Largest-remainder rounding of [ideal.(i)] values to non-negative
   integers that sum to [total], with a floor of one part per fluid. *)
let round_to_sum ~total ideal =
  let n = Array.length ideal in
  if n > total then invalid_arg "Ratio.approximate: more fluids than parts";
  let base = Array.map (fun x -> max 1 (int_of_float (floor x))) ideal in
  let current = ref (Array.fold_left ( + ) 0 base) in
  (* Distribute missing parts to the largest fractional remainders. *)
  if !current < total then begin
    let by_remainder =
      List.sort
        (fun i j ->
          Float.compare
            (ideal.(j) -. float_of_int base.(j))
            (ideal.(i) -. float_of_int base.(i)))
        (List.init n Fun.id)
    in
    let order = ref by_remainder in
    while !current < total do
      (match !order with
      | [] -> order := by_remainder
      | i :: rest ->
        base.(i) <- base.(i) + 1;
        incr current;
        order := rest)
    done
  end
  (* Remove excess parts where the rounding overshot the most, while
     keeping every part at least one. *)
  else if !current > total then begin
    while !current > total do
      let victim = ref (-1) in
      let worst = ref neg_infinity in
      for i = 0 to n - 1 do
        if base.(i) > 1 then begin
          let overshoot = float_of_int base.(i) -. ideal.(i) in
          if overshoot > !worst then begin
            worst := overshoot;
            victim := i
          end
        end
      done;
      if !victim < 0 then invalid_arg "Ratio.approximate: infeasible rounding";
      base.(!victim) <- base.(!victim) - 1;
      decr current
    done
  end;
  base

let approximate ?names ~d percents =
  let n = Array.length percents in
  if n < 2 then
    invalid_arg "Ratio.approximate: a mixture needs at least two fluids";
  Array.iter
    (fun p ->
      if not (p > 0.) then
        invalid_arg "Ratio.approximate: percentages must be positive")
    percents;
  let total = Binary.pow2 d in
  let psum = Array.fold_left ( +. ) 0. percents in
  let ideal = Array.map (fun p -> p /. psum *. float_of_int total) percents in
  make ?names (round_to_sum ~total ideal)

let rescale r ~d =
  approximate ~names:r.names ~d (Array.map float_of_int r.parts)

let approximation_error r percents =
  let psum = Array.fold_left ( +. ) 0. percents in
  let total = float_of_int (sum r) in
  let err i a = abs_float ((float_of_int a /. total) -. (percents.(i) /. psum)) in
  let worst = ref 0. in
  Array.iteri (fun i a -> worst := max !worst (err i a)) r.parts;
  !worst

let to_string r =
  String.concat ":" (Array.to_list (Array.map string_of_int r.parts))

let pp ppf r = Format.pp_print_string ppf (to_string r)
