type spec = {
  ratio : Dmf.Ratio.t;
  demand : int;
  algorithm : Mixtree.Algorithm.t;
  scheduler : Scheduler.t;
  mixers : int option;
}

type result = {
  spec : spec;
  mixers : int;
  plan : Plan.t;
  schedule : Schedule.t;
  metrics : Metrics.t;
}

let default_mixers ratio =
  Mixtree.Hu.min_mixers_for_fastest
    (Mixtree.Algorithm.build Mixtree.Algorithm.MM ratio)

let scheme_name algorithm scheduler =
  Mixtree.Algorithm.name algorithm ^ "+" ^ Scheduler.name scheduler

let resolve_mixers (spec : spec) =
  match spec.mixers with
  | Some m ->
    if m < 1 then invalid_arg "Engine: at least one mixer";
    m
  | None -> default_mixers spec.ratio

let prepare ?instr spec =
  let mixers = resolve_mixers spec in
  let plan =
    Forest.build ~algorithm:spec.algorithm ~ratio:spec.ratio
      ~demand:spec.demand
  in
  let schedule = Scheduler.schedule ?instr spec.scheduler ~plan ~mixers in
  let metrics =
    Metrics.of_schedule
      ~scheme:(scheme_name spec.algorithm spec.scheduler)
      ~plan schedule
  in
  { spec; mixers; plan; schedule; metrics }

let baseline_metrics spec =
  let mixers = resolve_mixers spec in
  Baseline.metrics ~algorithm:spec.algorithm ~ratio:spec.ratio
    ~demand:spec.demand ~mixers
