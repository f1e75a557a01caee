type pass = {
  demand : int;
  plan : Plan.t;
  schedule : Schedule.t;
  tc : int;
  q : int;
  waste : int;
}

type t = {
  passes : pass list;
  per_pass_demand : int;
  total_cycles : int;
  total_waste : int;
  total_inputs : int;
  storage_limit : int;
  within_limit : bool;
}

let make_pass ?instr ~algorithm ~ratio ~mixers ~scheduler demand =
  let plan = Forest.build ~algorithm ~ratio ~demand in
  let schedule = Scheduler.schedule ?instr scheduler ~plan ~mixers in
  {
    demand;
    plan;
    schedule;
    tc = Schedule.completion_time schedule;
    q = Storage.units ~plan schedule;
    waste = Plan.waste plan;
  }

let max_demand_per_pass ~algorithm ~ratio ~mixers ~storage_limit ~scheduler
    ~max_demand =
  let rec search best candidate =
    if candidate > max_demand then best
    else
      let pass = make_pass ~algorithm ~ratio ~mixers ~scheduler candidate in
      let best = if pass.q <= storage_limit then Some candidate else best in
      search best (candidate + 2)
  in
  search None 2

(* Only the final passes are instrumented: the per-pass-demand probes
   explore candidate plans that never run, so their counters would
   pollute the aggregate.

   q is not monotone in the demand, so the remainder pass after the
   full [D'] passes can need more storage than they do.  A remainder
   that overflows is split again with the largest demand that fits,
   found by the same search that picks [D']; only when nothing smaller
   fits does the overflowing pass stay, and [within_limit] reports
   it. *)
let run_general ?instr ~pass_size ~algorithm ~ratio ~demand ~mixers
    ~storage_limit ~scheduler () =
  if demand < 1 then invalid_arg "Streaming.run: demand must be >= 1";
  if mixers < 1 then invalid_arg "Streaming.run: at least one mixer";
  let fitting max_demand =
    max_demand_per_pass ~algorithm ~ratio ~mixers ~storage_limit ~scheduler
      ~max_demand
  in
  let per_pass_demand =
    match pass_size with
    | Some d' ->
      if d' < 2 || d' land 1 = 1 then
        invalid_arg "Streaming.run: pass size must be even and positive";
      d'
    | None -> Option.value ~default:2 (fitting (demand + (demand land 1)))
  in
  let overflows d =
    (make_pass ~algorithm ~ratio ~mixers ~scheduler d).q > storage_limit
  in
  let rec pass_demands size remaining =
    if remaining <= 0 then []
    else
      let this = min size remaining in
      match if this < size && overflows this then fitting (this - 1) else None with
      | Some smaller -> pass_demands smaller remaining
      | None -> this :: pass_demands size (remaining - this)
  in
  let passes =
    List.map
      (make_pass ?instr ~algorithm ~ratio ~mixers ~scheduler)
      (pass_demands per_pass_demand demand)
  in
  {
    passes;
    per_pass_demand;
    total_cycles = List.fold_left (fun acc p -> acc + p.tc) 0 passes;
    total_waste = List.fold_left (fun acc p -> acc + p.waste) 0 passes;
    total_inputs =
      List.fold_left (fun acc p -> acc + Plan.input_total p.plan) 0 passes;
    storage_limit;
    within_limit = List.for_all (fun p -> p.q <= storage_limit) passes;
  }

let run ?instr ~algorithm ~ratio ~demand ~mixers ~storage_limit ~scheduler () =
  run_general ?instr ~pass_size:None ~algorithm ~ratio ~demand ~mixers
    ~storage_limit ~scheduler ()

let run_fixed ?instr ~pass_size ~algorithm ~ratio ~demand ~mixers
    ~storage_limit ~scheduler () =
  run_general ?instr ~pass_size:(Some pass_size) ~algorithm ~ratio ~demand
    ~mixers ~storage_limit ~scheduler ()

let n_passes t = List.length t.passes
