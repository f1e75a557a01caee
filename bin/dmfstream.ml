(* dmfstream — command-line front end of the MDST droplet-streaming engine.

   Subcommands: plan, schedule, algorithms, compare, stream, layout,
   simulate, dilute, robust, wear, multi, assay, pins, export, recover,
   protocols, client.
   Run [dmfstream --help] for details. *)

open Cmdliner

(* Malformed inputs (a ratio that does not sum to a power of two, a
   non-positive demand, an infeasible mixer count) raise
   [Invalid_argument] deep inside the engine; surface them as one-line
   errors with a nonzero exit instead of a raw exception.  The daemon
   rejects the same inputs through the same [Service.Validate]
   helpers, as a JSON error response. *)
let protect = Service.Validate.run_cli

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

(* Every conv below parses through [Service.Validate] — the exact
   helpers the daemon runs on the matching JSON fields. *)
let msg r = Result.map_error (fun m -> `Msg m) r

let int_conv ~what validate =
  let parse s =
    match int_of_string_opt s with
    | None -> Error (`Msg (Printf.sprintf "%s must be an integer (got %s)" what s))
    | Some v -> msg (validate v)
  in
  Arg.conv (parse, Format.pp_print_int)

let ratio_conv =
  let print ppf r = Dmf.Ratio.pp ppf r in
  Arg.conv ((fun s -> msg (Service.Validate.ratio s)), print)

let ratio_arg =
  let doc =
    "Target ratio, either colon-separated integers summing to a power of \
     two (e.g. 2:1:1:1:1:1:9) or a protocol id (pcr16, ex1..ex5)."
  in
  Arg.(
    required
    & opt (some ratio_conv) None
    & info [ "r"; "ratio" ] ~docv:"RATIO" ~doc)

let demand_arg =
  let doc = "Number of target droplets to produce." in
  Arg.(
    value
    & opt (int_conv ~what:"demand D" Service.Validate.demand) 20
    & info [ "D"; "demand" ] ~docv:"N" ~doc)

let algorithm_conv =
  Arg.conv
    ((fun s -> msg (Service.Validate.algorithm s)), Mixtree.Algorithm.pp)

let algorithm_arg =
  let doc = "Base mixing algorithm: MM, RMA, MTCS or RSM." in
  Arg.(
    value
    & opt algorithm_conv Mixtree.Algorithm.MM
    & info [ "a"; "algorithm" ] ~docv:"ALGO" ~doc)

let scheduler_conv =
  Arg.conv ((fun s -> msg (Service.Validate.scheduler s)), Mdst.Scheduler.pp)

let scheduler_arg =
  let doc =
    "Forest scheduler, looked up in the registry (run the algorithms \
     subcommand for the full list): MMS (fastest), SRS (storage-reduced), \
     OMS (critical-path baseline)."
  in
  Arg.(
    value
    & opt scheduler_conv Mdst.Scheduler.srs
    & info [ "s"; "scheduler" ] ~docv:"SCHED" ~doc)

let instrument_arg =
  Arg.(
    value & flag
    & info [ "instrument" ]
        ~doc:
          "Print the scheduler-core counters (cycles, fired nodes, \
           store/evict traffic, peak/average storage, ready-set high-water, \
           mixer occupancy) gathered through the instrumentation hooks.")

let mixers_arg =
  let doc = "On-chip mixers (default: Mlb of the MM tree)." in
  Arg.(
    value
    & opt (some (int_conv ~what:"mixer count Mc" Service.Validate.mixers)) None
    & info [ "m"; "mixers" ] ~docv:"MC" ~doc)

let storage_arg =
  let doc = "On-chip storage units available." in
  Arg.(
    value
    & opt (int_conv ~what:"storage budget q'" Service.Validate.storage) 5
    & info [ "q"; "storage" ] ~docv:"Q" ~doc)

let spec_of ratio demand algorithm scheduler mixers =
  { Mdst.Engine.ratio; demand; algorithm; scheduler; mixers }

(* ------------------------------------------------------------------ *)
(* plan                                                                *)

let plan_cmd =
  let run ratio demand algorithm show_tree =
    protect @@ fun () ->
    let tree = Mixtree.Algorithm.build algorithm ratio in
    let plan = Mdst.Forest.build ~algorithm ~ratio ~demand in
    Format.printf "%a@." Mdst.Plan.pp_summary plan;
    if show_tree then
      Format.printf "@.Base mixing tree (%a):@.%a@." Mixtree.Algorithm.pp
        algorithm
        (Mixtree.Tree.pp ~names:(Dmf.Ratio.names ratio))
        tree
  in
  let show_tree =
    Arg.(value & flag & info [ "tree" ] ~doc:"Also print the base mixing tree.")
  in
  let term = Term.(const run $ ratio_arg $ demand_arg $ algorithm_arg $ show_tree) in
  Cmd.v
    (Cmd.info "plan" ~doc:"Build a mixing forest and print its statistics")
    term

(* ------------------------------------------------------------------ *)
(* schedule                                                            *)

let schedule_cmd =
  let run ratio demand algorithm scheduler mixers gantt instrument =
    protect @@ fun () ->
    let spec = spec_of ratio demand algorithm scheduler mixers in
    let result =
      if instrument then begin
        let mc =
          match mixers with
          | Some m -> m
          | None -> Mdst.Engine.default_mixers ratio
        in
        let hooks, counters = Mdst.Instr.collector ~mixers:mc in
        let result = Mdst.Engine.prepare ~instr:hooks spec in
        Format.printf "%a@." Mdst.Instr.pp_counters (counters ());
        result
      end
      else Mdst.Engine.prepare spec
    in
    Format.printf "%a@." Mdst.Metrics.pp result.Mdst.Engine.metrics;
    if gantt then
      print_string
        (Mdst.Gantt.render ~plan:result.Mdst.Engine.plan
           result.Mdst.Engine.schedule)
  in
  let gantt =
    Arg.(value & flag & info [ "gantt" ] ~doc:"Print the Gantt chart.")
  in
  let term =
    Term.(
      const run $ ratio_arg $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ gantt $ instrument_arg)
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a mixing forest on Mc mixers")
    term

(* ------------------------------------------------------------------ *)
(* algorithms                                                          *)

let algorithms_cmd =
  let run () =
    protect @@ fun () ->
    print_string "Base mixing algorithms (-a):\n";
    print_string
      (Mdst.Report.table ~header:[ "name" ]
         ~rows:
           (List.map
              (fun a -> [ Mixtree.Algorithm.name a ])
              Mixtree.Algorithm.all));
    print_string "\nForest schedulers (-s), from the registry:\n";
    print_string
      (Mdst.Report.table ~header:[ "name"; "description" ]
         ~rows:
           (List.map
              (fun s -> [ Mdst.Scheduler.name s; Mdst.Scheduler.describe s ])
              (Mdst.Scheduler.all ())))
  in
  Cmd.v
    (Cmd.info "algorithms"
       ~doc:"List the base mixing algorithms and the registered schedulers")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* compare                                                             *)

let compare_cmd =
  let run ratio demand mixers =
    protect @@ fun () ->
    let results =
      Mdst.Compare.evaluate_all ?mixers ~ratio ~demand
        Mdst.Compare.table2_schemes
    in
    let rows =
      List.map
        (fun (scheme, m) ->
          [
            Mdst.Compare.scheme_name scheme;
            string_of_int m.Mdst.Metrics.tc;
            string_of_int m.Mdst.Metrics.q;
            string_of_int m.Mdst.Metrics.tms;
            string_of_int m.Mdst.Metrics.waste;
            string_of_int m.Mdst.Metrics.input_total;
            string_of_int m.Mdst.Metrics.passes;
          ])
        results
    in
    print_string
      (Mdst.Report.table
         ~header:[ "scheme"; "Tc"; "q"; "Tms"; "W"; "I"; "passes" ]
         ~rows)
  in
  let term = Term.(const run $ ratio_arg $ demand_arg $ mixers_arg) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare the nine schemes of Table 2 on one target ratio")
    term

(* ------------------------------------------------------------------ *)
(* stream                                                              *)

let stream_cmd =
  let run ratio demand algorithm scheduler mixers storage instrument =
    protect @@ fun () ->
    let mixers =
      match mixers with
      | Some m -> m
      | None -> Mdst.Engine.default_mixers ratio
    in
    let instr, counters =
      if instrument then
        let hooks, read = Mdst.Instr.collector ~mixers in
        (Some hooks, Some read)
      else (None, None)
    in
    let result =
      Mdst.Streaming.run ?instr ~algorithm ~ratio ~demand ~mixers
        ~storage_limit:storage ~scheduler ()
    in
    (match counters with
    | Some read -> Format.printf "%a@." Mdst.Instr.pp_counters (read ())
    | None -> ());
    Format.printf
      "demand %d with <= %d storage units: %d pass(es) of up to %d droplets%s@."
      demand storage
      (Mdst.Streaming.n_passes result)
      result.Mdst.Streaming.per_pass_demand
      (if result.Mdst.Streaming.within_limit then ""
       else " (budget infeasible even for one pair; running at D'=2)");
    let rows =
      List.mapi
        (fun i pass ->
          [
            string_of_int (i + 1);
            string_of_int pass.Mdst.Streaming.demand;
            string_of_int pass.Mdst.Streaming.tc;
            string_of_int pass.Mdst.Streaming.q;
            string_of_int pass.Mdst.Streaming.waste;
          ])
        result.Mdst.Streaming.passes
    in
    print_string
      (Mdst.Report.table ~header:[ "pass"; "D'"; "Tc"; "q"; "W" ] ~rows);
    Format.printf "total: Tc=%d W=%d I=%d@." result.Mdst.Streaming.total_cycles
      result.Mdst.Streaming.total_waste result.Mdst.Streaming.total_inputs
  in
  let term =
    Term.(
      const run $ ratio_arg $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ storage_arg $ instrument_arg)
  in
  Cmd.v
    (Cmd.info "stream"
       ~doc:"Run the multi-pass streaming engine under a storage budget")
    term

(* ------------------------------------------------------------------ *)
(* layout                                                              *)

let layout_cmd =
  let run ratio mixers storage =
    protect @@ fun () ->
    let mixers =
      match mixers with
      | Some m -> m
      | None -> Mdst.Engine.default_mixers ratio
    in
    let layout =
      Chip.Layout.default ~mixers ~storage_units:storage
        ~n_fluids:(Dmf.Ratio.n_fluids ratio) ()
    in
    print_string (Chip.Layout.render layout);
    let matrix = Chip.Cost_matrix.build layout in
    let mixer_ids =
      List.map (fun m -> m.Chip.Chip_module.id) (Chip.Layout.mixers layout)
    in
    let rows =
      List.map
        (fun m -> m.Chip.Chip_module.id)
        (Chip.Layout.reservoirs layout
        @ Chip.Layout.storage_units layout
        @ Chip.Layout.wastes layout)
    in
    print_newline ();
    print_string (Chip.Cost_matrix.render ~rows ~columns:mixer_ids matrix)
  in
  let term = Term.(const run $ ratio_arg $ mixers_arg $ storage_arg) in
  Cmd.v
    (Cmd.info "layout"
       ~doc:"Show the default chip layout and its transport-cost matrix")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)

let simulate_cmd =
  let run ratio demand algorithm scheduler mixers storage show_trace =
    protect @@ fun () ->
    let spec = spec_of ratio demand algorithm scheduler mixers in
    let result = Mdst.Engine.prepare spec in
    let needed =
      Mdst.Storage.units ~plan:result.Mdst.Engine.plan
        result.Mdst.Engine.schedule
    in
    let layout =
      Chip.Layout.default ~mixers:result.Mdst.Engine.mixers
        ~storage_units:(max storage needed)
        ~n_fluids:(Dmf.Ratio.n_fluids ratio) ()
    in
    match
      Sim.Executor.run ~layout ~plan:result.Mdst.Engine.plan
        ~schedule:result.Mdst.Engine.schedule
    with
    | Error e ->
      Format.eprintf "simulation failed: %s@." e;
      exit 1
    | Ok (trace, stats) ->
      if show_trace then Format.printf "%a@." Sim.Trace.pp trace;
      Format.printf
        "cycles=%d moves=%d electrodes=%d dispensed=%d emitted=%d \
         discarded=%d violations=%d@."
        stats.Sim.Executor.cycles stats.Sim.Executor.moves
        stats.Sim.Executor.electrodes stats.Sim.Executor.dispensed
        (List.length stats.Sim.Executor.emitted)
        stats.Sim.Executor.discarded stats.Sim.Executor.violations;
      (match Sim.Executor.check ~plan:result.Mdst.Engine.plan stats with
      | Ok () -> Format.printf "verification: every target droplet correct@."
      | Error e ->
        Format.eprintf "verification failed: %s@." e;
        exit 1)
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full event trace.")
  in
  let term =
    Term.(
      const run $ ratio_arg $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ storage_arg $ show_trace)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Execute the schedule droplet-by-droplet on a simulated chip")
    term

(* ------------------------------------------------------------------ *)
(* dilute                                                              *)

let dilute_cmd =
  let run c d demand scheduler mixers use_twm =
    protect @@ fun () ->
    let ratio = Mixtree.Dilution.ratio ~c ~d in
    let tree =
      if use_twm then Mixtree.Dilution.twm ~c ~d
      else Mixtree.Dilution.dmrw ~c ~d
    in
    let plan = Mdst.Forest.of_tree ~ratio ~demand ~sharing:true tree in
    let mixers =
      match mixers with
      | Some m -> m
      | None -> Mdst.Engine.default_mixers ratio
    in
    let schedule = Mdst.Scheduler.schedule scheduler ~plan ~mixers in
    Format.printf "dilution target %d/%d via %s:@." c (Dmf.Binary.pow2 d)
      (if use_twm then "two-way mix" else "DMRW binary search");
    Format.printf "%a@." Mdst.Plan.pp_summary plan;
    print_string (Mdst.Gantt.render ~plan schedule)
  in
  let c_arg =
    Arg.(required & opt (some int) None & info [ "c" ] ~docv:"C"
           ~doc:"Target CF numerator (over 2^d).")
  in
  let d_arg =
    Arg.(value & opt int 4 & info [ "d" ] ~docv:"D" ~doc:"Accuracy level.")
  in
  let twm_flag =
    Arg.(value & flag & info [ "twm" ] ~doc:"Use the bit-scan tree instead of DMRW.")
  in
  let term =
    Term.(
      const run $ c_arg $ d_arg $ demand_arg $ scheduler_arg $ mixers_arg
      $ twm_flag)
  in
  Cmd.v
    (Cmd.info "dilute"
       ~doc:"Run the dilution engine (the N = 2 case, after Roy et al. [20])")
    term

(* ------------------------------------------------------------------ *)
(* robust                                                              *)

let robust_cmd =
  let run ratio demand epsilon =
    protect @@ fun () ->
    Format.printf
      "worst-case CF error under a %.1f%% split-volume imbalance:@."
      (epsilon *. 100.);
    let rows =
      List.map
        (fun algorithm ->
          let plan = Mdst.Forest.build ~algorithm ~ratio ~demand in
          let report = Mdst.Split_error.analyze ~plan ~epsilon in
          [
            Mixtree.Algorithm.name algorithm;
            Printf.sprintf "%.5f" report.Mdst.Split_error.max_cf_error;
            Printf.sprintf "%.5f" report.Mdst.Split_error.mean_cf_error;
            Printf.sprintf "%.4f" report.Mdst.Split_error.worst_volume_skew;
          ])
        Mixtree.Algorithm.all
    in
    print_string
      (Mdst.Report.table
         ~header:[ "base algo"; "max CF err"; "mean CF err"; "vol skew" ]
         ~rows);
    Format.printf "(exact preparation error floor: 1/2^d = %.5f)@."
      (1. /. float_of_int (Dmf.Ratio.sum ratio))
  in
  let epsilon_arg =
    Arg.(value & opt float 0.05 & info [ "e"; "epsilon" ] ~docv:"EPS"
           ~doc:"Per-split volume imbalance bound (e.g. 0.05).")
  in
  let term = Term.(const run $ ratio_arg $ demand_arg $ epsilon_arg) in
  Cmd.v
    (Cmd.info "robust"
       ~doc:"Bound the CF error of every target under imbalanced splits")
    term

(* ------------------------------------------------------------------ *)
(* wear                                                                *)

let wear_cmd =
  let run ratio demand scheduler mixers =
    protect @@ fun () ->
    let spec = spec_of ratio demand Mixtree.Algorithm.MM scheduler mixers in
    let result = Mdst.Engine.prepare spec in
    let needed =
      Mdst.Storage.units ~plan:result.Mdst.Engine.plan
        result.Mdst.Engine.schedule
    in
    let layout =
      Chip.Layout.default ~mixers:result.Mdst.Engine.mixers
        ~storage_units:(max 1 needed)
        ~n_fluids:(Dmf.Ratio.n_fluids ratio) ()
    in
    match
      Sim.Wear.of_run ~layout ~plan:result.Mdst.Engine.plan
        ~schedule:result.Mdst.Engine.schedule
    with
    | Error e ->
      Format.eprintf "wear analysis failed: %s@." e;
      exit 1
    | Ok wear -> print_string (Sim.Wear.render wear)
  in
  let term =
    Term.(const run $ ratio_arg $ demand_arg $ scheduler_arg $ mixers_arg)
  in
  Cmd.v
    (Cmd.info "wear"
       ~doc:"Per-electrode actuation heatmap of a simulated run")
    term

(* ------------------------------------------------------------------ *)
(* multi                                                               *)

let multi_cmd =
  let run specs algorithm scheduler mixers =
    protect @@ fun () ->
    let parse spec =
      match String.split_on_char '@' spec with
      | [ ratio; demand ] -> (
        match
          (Bioproto.Protocols.find ratio, int_of_string_opt (String.trim demand))
        with
        | Some p, Some demand -> (p.Bioproto.Protocols.ratio, demand)
        | None, Some demand -> (Dmf.Ratio.of_string ratio, demand)
        | _, None -> invalid_arg ("bad demand in " ^ spec))
      | [ ratio ] -> (Dmf.Ratio.of_string ratio, 2)
      | _ -> invalid_arg ("bad target spec " ^ spec)
    in
    let requests = List.map parse specs in
    let plan = Mdst.Forest.build_multi ~algorithm requests in
    let mixers =
      match mixers with
      | Some m -> m
      | None -> Mdst.Engine.default_mixers (fst (List.hd requests))
    in
    let schedule = Mdst.Scheduler.schedule scheduler ~plan ~mixers in
    Format.printf "%a@." Mdst.Plan.pp_summary plan;
    Format.printf "Tc=%d q=%d@."
      (Mdst.Schedule.completion_time schedule)
      (Mdst.Storage.units ~plan schedule);
    let separate =
      List.fold_left
        (fun acc (ratio, demand) ->
          acc + Mdst.Plan.input_total (Mdst.Forest.build ~algorithm ~ratio ~demand))
        0 requests
    in
    Format.printf "combined input %d vs %d prepared separately@."
      (Mdst.Plan.input_total plan) separate
  in
  let specs_arg =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"RATIO@DEMAND"
          ~doc:"Targets, e.g. 3:3:2@8 3:3:10@8 (same number of fluids each).")
  in
  let term =
    Term.(const run $ specs_arg $ algorithm_arg $ scheduler_arg $ mixers_arg)
  in
  Cmd.v
    (Cmd.info "multi"
       ~doc:"Prepare several target mixtures in one reagent-sharing forest")
    term

(* ------------------------------------------------------------------ *)
(* assay                                                               *)

let assay_cmd =
  let run ratio scheduler mixers storage start interval count batches =
    protect @@ fun () ->
    let requests = Assay.Demand.periodic ~start ~interval ~count ~batches in
    let mixers =
      match mixers with
      | Some m -> m
      | None -> Mdst.Engine.default_mixers ratio
    in
    let p =
      Assay.Planner.plan ~algorithm:Mixtree.Algorithm.MM ~ratio ~mixers
        ~storage_limit:storage ~scheduler ~requests
    in
    Format.printf "%a@." Assay.Planner.pp p;
    Format.printf "pass starts: %s@."
      (String.concat ", " (List.map string_of_int p.Assay.Planner.pass_starts));
    if not (Assay.Planner.feasible p) then
      Format.printf
        "profile infeasible on this chip: worst delivery is %d cycle(s) late@."
        p.Assay.Planner.max_lateness
  in
  let start =
    Arg.(value & opt int 20 & info [ "start" ] ~docv:"T" ~doc:"First deadline.")
  in
  let interval =
    Arg.(value & opt int 15 & info [ "interval" ] ~docv:"T"
           ~doc:"Cycles between batches.")
  in
  let count =
    Arg.(value & opt int 4 & info [ "count" ] ~docv:"N"
           ~doc:"Droplets per batch.")
  in
  let batches =
    Arg.(value & opt int 8 & info [ "batches" ] ~docv:"N"
           ~doc:"Number of batches.")
  in
  let term =
    Term.(
      const run $ ratio_arg $ scheduler_arg $ mixers_arg $ storage_arg
      $ start $ interval $ count $ batches)
  in
  Cmd.v
    (Cmd.info "assay"
       ~doc:"Plan demand-driven production for a periodic consumer")
    term

(* ------------------------------------------------------------------ *)
(* pins                                                                *)

let pins_cmd =
  let run ratio demand scheduler mixers =
    protect @@ fun () ->
    let spec = spec_of ratio demand Mixtree.Algorithm.MM scheduler mixers in
    let result = Mdst.Engine.prepare spec in
    let needed =
      Mdst.Storage.units ~plan:result.Mdst.Engine.plan
        result.Mdst.Engine.schedule
    in
    let layout =
      Chip.Layout.default ~mixers:result.Mdst.Engine.mixers
        ~storage_units:(max 1 needed)
        ~n_fluids:(Dmf.Ratio.n_fluids ratio) ()
    in
    match
      Sim.Executor.run ~layout ~plan:result.Mdst.Engine.plan
        ~schedule:result.Mdst.Engine.schedule
    with
    | Error e ->
      Format.eprintf "simulation failed: %s@." e;
      exit 1
    | Ok (_, stats) ->
      let assignment =
        Chip.Pin_assign.assign ~width:(Chip.Layout.width layout)
          ~height:(Chip.Layout.height layout)
          stats.Sim.Executor.addressing
      in
      Format.printf
        "broadcast addressing: %d driven electrodes served by %d control \
         pins (%.1f%% fewer pins than direct addressing)@."
        (Chip.Pin_assign.addressed_electrodes assignment)
        (Chip.Pin_assign.pins assignment)
        (100. *. Chip.Pin_assign.saving assignment)
  in
  let term =
    Term.(const run $ ratio_arg $ demand_arg $ scheduler_arg $ mixers_arg)
  in
  Cmd.v
    (Cmd.info "pins"
       ~doc:"Broadcast pin assignment for a simulated run (after [10])")
    term

(* ------------------------------------------------------------------ *)
(* export                                                              *)

let export_cmd =
  let run ratio demand algorithm scheduler mixers directory =
    protect @@ fun () ->
    let spec = spec_of ratio demand algorithm scheduler mixers in
    let result = Mdst.Engine.prepare spec in
    let needed =
      Mdst.Storage.units ~plan:result.Mdst.Engine.plan
        result.Mdst.Engine.schedule
    in
    let layout =
      Chip.Layout.default ~mixers:result.Mdst.Engine.mixers
        ~storage_units:(max 1 needed)
        ~n_fluids:(Dmf.Ratio.n_fluids ratio) ()
    in
    if not (Sys.file_exists directory) then Sys.mkdir directory 0o755;
    let gantt_path = Filename.concat directory "gantt.svg" in
    Viz.Gantt_svg.write ~path:gantt_path ~plan:result.Mdst.Engine.plan
      result.Mdst.Engine.schedule;
    let layout_path = Filename.concat directory "layout.svg" in
    Viz.Chip_svg.write ~path:layout_path layout;
    (match
       Sim.Executor.run ~layout ~plan:result.Mdst.Engine.plan
         ~schedule:result.Mdst.Engine.schedule
     with
    | Ok (_, stats) ->
      let wear_path = Filename.concat directory "wear.svg" in
      Viz.Chip_svg.write ~path:wear_path ~heatmap:stats.Sim.Executor.heatmap
        layout;
      Format.printf "wrote %s, %s and %s@." gantt_path layout_path wear_path
    | Error e ->
      Format.printf "wrote %s and %s (no wear map: %s)@." gantt_path
        layout_path e)
  in
  let directory =
    Arg.(value & opt string "out" & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Output directory for the SVG files.")
  in
  let term =
    Term.(
      const run $ ratio_arg $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ directory)
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export the Gantt chart, chip map and wear heatmap as SVG")
    term

(* ------------------------------------------------------------------ *)
(* recover                                                             *)

let recover_cmd =
  let run ratio demand algorithm scheduler mixers failed_node =
    protect @@ fun () ->
    let result =
      Mdst.Engine.prepare (spec_of ratio demand algorithm scheduler mixers)
    in
    let r =
      Mdst.Recovery.recover ~algorithm ~plan:result.Mdst.Engine.plan
        ~schedule:result.Mdst.Engine.schedule ~failed_node
    in
    Format.printf
      "split failure at node %d (cycle %d): %d target(s) already \
       delivered, %d droplet(s) salvaged from storage, %d still needed@."
      r.Mdst.Recovery.failed_node r.Mdst.Recovery.failure_cycle
      r.Mdst.Recovery.delivered
      (Array.length r.Mdst.Recovery.salvaged)
      r.Mdst.Recovery.remaining_demand;
    match (r.Mdst.Recovery.recovery_plan, r.Mdst.Recovery.fresh_restart) with
    | None, _ -> Format.printf "demand already met: no recovery needed@."
    | Some recovery, Some fresh ->
      Format.printf "recovery forest: %a@." Mdst.Plan.pp_summary recovery;
      Format.printf
        "fresh restart would need %d input droplets; salvaging saves %d@."
        (Mdst.Plan.input_total fresh)
        (Mdst.Recovery.reagent_saving r)
    | Some _, None -> ()
  in
  let failed_node =
    Arg.(
      required
      & opt (some int) None
      & info [ "f"; "fail" ] ~docv:"NODE"
          ~doc:"Plan node whose split fails (0-based id).")
  in
  let term =
    Term.(
      const run $ ratio_arg $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ failed_node)
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Plan checkpoint-based recovery from a failed mix-split")
    term

(* ------------------------------------------------------------------ *)
(* protocols                                                           *)

let protocols_cmd =
  let run () =
    protect @@ fun () ->
    let rows =
      List.map
        (fun p ->
          [
            p.Bioproto.Protocols.id;
            p.Bioproto.Protocols.name;
            Dmf.Ratio.to_string p.Bioproto.Protocols.ratio;
            string_of_int (Dmf.Ratio.n_fluids p.Bioproto.Protocols.ratio);
            string_of_int (Dmf.Ratio.accuracy p.Bioproto.Protocols.ratio);
          ])
        Bioproto.Protocols.all
    in
    print_string
      (Mdst.Report.table ~header:[ "id"; "name"; "ratio"; "N"; "d" ] ~rows)
  in
  Cmd.v
    (Cmd.info "protocols" ~doc:"List the built-in bioprotocol mixtures")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* client                                                              *)

let client_cmd =
  let client_ratio =
    (* Unlike the planning subcommands, only the prepare kind needs a
       ratio — stats/ping/recover-stats must work without one. *)
    Arg.(
      value
      & opt (some ratio_conv) None
      & info [ "r"; "ratio" ] ~docv:"RATIO"
          ~doc:"Target ratio (required for --req prepare).")
  in
  let run ratio demand algorithm scheduler mixers storage host port kind =
    protect @@ fun () ->
    (* recover-stats is a stats request whose response is narrowed to
       the durability objects — the wal (recovery/journal) counters of
       a daemon running with --wal-dir, the plan_store counters when it
       also runs with --store-dir, and the replication counters (role,
       last_applied_seq, lag) of a primary serving a feed or a
       follower. *)
    let wal_only = kind = "recover-stats" in
    (* route is a prepare whose "req" field is rewritten: the router
       answers it locally with the shard placement of the coalesce key
       instead of forwarding, so scripts can learn key ownership. *)
    let route = kind = "route" in
    (* promote is a ping whose "req" field is rewritten: a dmfd
       follower answers it by becoming a writable primary (same effect
       as SIGUSR1) and reports the recovery it ran. *)
    let promote = kind = "promote" in
    let kind =
      match kind with
      | "prepare" | "route" ->
        let ratio =
          match ratio with
          | Some r -> r
          | None -> failwith ("--req " ^ kind ^ " needs a --ratio")
        in
        let demand =
          match Service.Validate.demand demand with
          | Ok d -> d
          | Error msg -> failwith msg
        in
        Service.Request.prepare
          {
            Service.Request.ratio;
            demand;
            algorithm;
            scheduler;
            mixers;
            storage_limit = storage;
          }
      | "stats" | "recover-stats" -> Service.Request.Stats
      | "ping" | "promote" -> Service.Request.Ping
      | other -> failwith ("unknown request kind " ^ other)
    in
    let request = { Service.Request.id = None; kind } in
    let rewrite_req =
      if route then Some "route" else if promote then Some "promote" else None
    in
    let json =
      match (rewrite_req, Service.Request.to_json request) with
      | Some kind, Service.Jsonl.Obj fields ->
        Service.Jsonl.Obj
          (List.map
             (function
               | "req", Service.Jsonl.String _ ->
                 ("req", Service.Jsonl.String kind)
               | binding -> binding)
             fields)
      | _, json -> json
    in
    let fd =
      try Service.Net.connect ~host ~port with
      | Failure msg -> failwith msg
      | Unix.Unix_error (e, _, _) ->
        failwith
          (Printf.sprintf "cannot reach dmfd at %s:%d: %s" host port
             (Unix.error_message e))
    in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    output_string oc (Service.Jsonl.to_string json);
    output_char oc '\n';
    flush oc;
    (match input_line ic with
    | line -> (
      match Service.Jsonl.of_string line with
      | Ok json ->
        let json =
          if not wal_only then json
          else
            let keep name =
              match Service.Jsonl.member name json with
              | Some v -> [ (name, v) ]
              | None -> []
            in
            match
              keep "wal" @ keep "plan_store" @ keep "replication"
            with
            | [] ->
              failwith
                "the daemon runs without --wal-dir, --store-dir or a \
                 replication role (no wal, plan_store or replication object \
                 in stats)"
            | fields -> Service.Jsonl.Obj fields
        in
        Format.printf "%a@." Service.Jsonl.pp json
      | Error msg -> failwith ("malformed response: " ^ msg))
    | exception End_of_file -> failwith "server closed the connection");
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"dmfd host.")
  in
  let port =
    Arg.(
      value & opt int 7433 & info [ "p"; "port" ] ~docv:"PORT" ~doc:"dmfd port.")
  in
  let kind =
    Arg.(
      value & opt string "prepare"
      & info [ "req" ] ~docv:"KIND"
          ~doc:
            "Request kind: prepare, stats, ping, recover-stats (the stats \
             response's wal/recovery, plan_store and replication counters \
             only), route (ask a dmfrouter which shard owns the coalesce \
             key; takes the same options as prepare), or promote (turn a \
             dmfd follower into a writable primary, like SIGUSR1).")
  in
  let client_storage =
    Arg.(
      value
      & opt (some (int_conv ~what:"storage budget q'" Service.Validate.storage))
          None
      & info [ "q"; "storage" ] ~docv:"Q"
          ~doc:"Storage budget q' (switches the server to multi-pass streaming).")
  in
  let term =
    Term.(
      const run $ client_ratio $ demand_arg $ algorithm_arg $ scheduler_arg
      $ mixers_arg $ client_storage $ host $ port $ kind)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Send one request to a running dmfd and pretty-print the response")
    term

let () =
  let doc = "demand-driven mixture preparation on DMF biochips (DAC'14)" in
  let info = Cmd.info "dmfstream" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            plan_cmd; schedule_cmd; algorithms_cmd; compare_cmd; stream_cmd;
            layout_cmd; simulate_cmd; dilute_cmd; robust_cmd; wear_cmd;
            multi_cmd; assay_cmd; pins_cmd; export_cmd; recover_cmd;
            protocols_cmd; client_cmd;
          ]))
