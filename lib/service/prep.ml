let resolved_mixers (spec : Request.spec) =
  match spec.Request.mixers with
  | Some m -> m
  | None -> Mdst.Engine.default_mixers spec.Request.ratio

type prepared = {
  summary : Response.summary;
  instr : Mdst.Instr.counters;
  plan : Mdst.Plan.t option;
  schedule : Mdst.Schedule.t option;
  answer : Response.answer;
}

let make ~summary ~instr ~plan ~schedule =
  { summary; instr; plan; schedule; answer = Response.answer summary (Some instr) }

let run (spec : Request.spec) =
  let mixers = resolved_mixers spec in
  let hooks, counters = Mdst.Instr.collector ~mixers in
  match spec.Request.storage_limit with
  | None ->
    let result =
      Mdst.Engine.prepare ~instr:hooks
        {
          Mdst.Engine.ratio = spec.Request.ratio;
          demand = spec.Request.demand;
          algorithm = spec.Request.algorithm;
          scheduler = spec.Request.scheduler;
          mixers = spec.Request.mixers;
        }
    in
    make
      ~summary:(Response.summary_of_metrics result.Mdst.Engine.metrics)
      ~instr:(counters ()) ~plan:(Some result.Mdst.Engine.plan)
      ~schedule:(Some result.Mdst.Engine.schedule)
  | Some storage_limit ->
    let r =
      Mdst.Streaming.run ~instr:hooks ~algorithm:spec.Request.algorithm
        ~ratio:spec.Request.ratio ~demand:spec.Request.demand ~mixers
        ~storage_limit ~scheduler:spec.Request.scheduler ()
    in
    let fold f = List.fold_left f 0 r.Mdst.Streaming.passes in
    let summary =
      {
        Response.scheme =
          Mdst.Engine.scheme_name spec.Request.algorithm spec.Request.scheduler;
        mixers;
        demand = spec.Request.demand;
        tc = r.Mdst.Streaming.total_cycles;
        q =
          fold (fun acc pass -> max acc pass.Mdst.Streaming.q);
        tms =
          fold (fun acc pass -> acc + Mdst.Plan.tms pass.Mdst.Streaming.plan);
        waste = r.Mdst.Streaming.total_waste;
        input_total = r.Mdst.Streaming.total_inputs;
        trees =
          fold (fun acc pass -> acc + Mdst.Plan.trees pass.Mdst.Streaming.plan);
        passes = Mdst.Streaming.n_passes r;
        within_limit = r.Mdst.Streaming.within_limit;
      }
    in
    make ~summary ~instr:(counters ()) ~plan:None ~schedule:None
