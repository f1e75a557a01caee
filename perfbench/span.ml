(* Spans recorded by the benchmark around its own calls into a layer
   of the program.  Off (a plain call) unless the run is traced; on,
   each span adds its duration and one count under the layer's name. *)

let enabled = ref false

let totals : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 16

let cell name =
  match Hashtbl.find_opt totals name with
  | Some c -> c
  | None ->
    let c = (ref 0., ref 0) in
    Hashtbl.add totals name c;
    c

let add name seconds =
  let total, count = cell name in
  total := !total +. seconds;
  incr count

let record name f =
  if not !enabled then f ()
  else begin
    let t0 = Clock.now () in
    let v = f () in
    add name (Clock.now () -. t0);
    v
  end

let total name = !(fst (cell name))

let ms name = 1000. *. total name

let count name = !(snd (cell name))

