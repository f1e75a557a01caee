(* perfbench: the repository's benchmark.

     bash perfbench/run.sh --workload paper_eval --seed 1 --seconds 20 --trace 0

   Runs one workload from a fresh process and prints, as the last line
   of stdout, one JSON object: correct, attempted, failed, and the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
   See perfbench/README.md for the workloads, the metrics and what each
   layer metric should move. *)

module J = Perfbench_core.Json

let end_to_end =
  [
    ("setup_s", "s"); ("eval_s", "s"); ("req_per_s", "req/s");
    ("latency_p50_ms", "ms"); ("recovery_s", "s");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("mixtree.build_ms", "ms"); ("core.forest_ms", "ms");
    ("core.forest_us_per_node", "us"); ("core.schedule_ms", "ms");
    ("core.storage_ms", "ms"); ("core.baseline_ms", "ms");
    ("core.streaming_ms", "ms"); ("core.schedules", "count");
    ("chip.actuation_ms", "ms"); ("chip.placer_ms", "ms");
    ("runtime.minor_mb", "MB"); ("runtime.major_gcs", "count");
    ("service.elapsed_p50_ms", "ms"); ("service.elapsed_p99_ms", "ms");
    ("service.transport_p50_ms", "ms"); ("service.cache_hit_ratio", "ratio");
    ("service.cache_evictions", "count"); ("service.coalesced", "count");
    ("service.plans_built", "count"); ("service.batch_demand_mean", "droplets");
    ("durable.fsyncs_per_req", "ratio"); ("durable.avg_batch_size", "records");
    ("durable.snapshots", "count"); ("durable.store_hits", "count");
    ("durable.store_writes", "count"); ("durable.store_bytes_per_entry", "B");
    ("durable.replay_ms", "ms"); ("durable.prime_us_per_plan", "us");
    ("cluster.hop_p50_ms", "ms"); ("cluster.hop_p99_ms", "ms");
    ("cluster.shard_answered", "count");
  ]

let probes = 16

(* paper_eval: [probes] fresh processes time set-up (spawn to corpus
   ready) and the first answer (spawn to the Fig. 3-4 schedule), before
   and again after whole evaluation rounds, each in a fresh process,
   that fill about [seconds]. *)
let paper_eval ~root ~seed ~seconds ~trace =
  let exe = Sys.executable_name in
  let env = Array.append [| "MDST_DOMAINS=1" |] (Unix.environment ()) in
  let dir = Proc.scratch_dir root (Printf.sprintf "paper_eval-%d" (Unix.getpid ())) in
  let round args =
    let t0 = Clock.now () in
    let p =
      Proc.spawn ~env ~name:"paper_eval round" ~log:(Filename.concat dir "round.log") exe
        ([ "--child"; "--seed"; string_of_int seed; "--trace"; if trace then "1" else "0" ] @ args)
    in
    let line = Proc.read_announcement ~timeout:170. p "RESULT " in
    (match Proc.wait p with
    | Some (Unix.WEXITED 0) -> ()
    | _ -> Proc.failf p "round did not exit cleanly");
    match J.parse line with
    | Ok j -> (t0, j)
    | Error e -> failwith ("unreadable round result: " ^ e)
  in
  let num k j = Option.value ~default:0. (J.num [ k ] j) in
  let probe () = round [ "--probe" ] in
  let probed_before = List.init probes (fun _ -> probe ()) in
  (* Another round only if it should end within [seconds]. *)
  let t_start = Clock.now () in
  let rec rounds acc =
    let elapsed = Clock.now () -. t_start in
    let per_round = elapsed /. float_of_int (max 1 (List.length acc)) in
    if acc <> [] && elapsed +. per_round > seconds then List.rev acc
    else rounds (snd (round []) :: acc)
  in
  let results = rounds [] in
  let probed = probed_before @ List.init probes (fun _ -> probe ()) in
  let since k = Array.of_list (List.map (fun (t0, j) -> num k j -. t0) probed) in
  let med k = Stat.median (Array.of_list (List.map (num k) results)) in
  let failures =
    List.concat_map
      (fun (_, j) -> match J.path [ "failures" ] j with Some (J.Arr l) -> l | _ -> [])
      probed
    @ List.concat_map
        (fun j -> match J.path [ "failures" ] j with Some (J.Arr l) -> l | _ -> [])
        results
  in
  List.iter (fun f -> match f with J.Str s -> prerr_endline ("perfbench: " ^ s) | _ -> ()) failures;
  List.iteri
    (fun i j ->
      Printf.printf
        "round %d: eval %.3f s (checks %.3f s apart); Table 3 %d ratios in %.3f s, \
         p50 %.3f ms p95 %.3f ms; %d evaluations, %d schedules\n"
        (i + 1) (num "eval_s" j) (num "check_s" j) (int_of_float (num "ratios" j))
        (num "table3_s" j) (num "lat_p50_ms" j) (num "lat_p95_ms" j)
        (int_of_float (num "evaluations" j)) (int_of_float (num "schedules" j));
      match J.path [ "table3" ] j with
      | Some (J.Arr rows) ->
        List.iter2
          (fun name row ->
            match row with
            | J.Arr g ->
              Printf.printf "  Table 3 %-4s %s\n" name
                (String.concat " "
                   (List.map2
                      (fun label v ->
                        match v with J.Num x -> Printf.sprintf "%s %.1f%%" label x | _ -> "")
                      [ "Tc MMS||R"; "Tc SRS||R"; "I MMS||R"; "I SRS||R"; "q SRS||MMS";
                        "Tc SRS||MMS" ]
                      g))
            | _ -> ())
          [ "MM"; "RMA"; "MTCS" ] rows
      | _ -> ())
    results;
  let layer k = Stat.median (Array.of_list (List.map (fun j -> Option.value ~default:0. (J.num [ "layers"; k ] j)) results)) in
  let nodes = layer "forest_nodes" in
  let evaluations = List.fold_left (fun acc j -> acc + int_of_float (num "evaluations" j)) 0 results in
  ( failures = [],
    evaluations,
    [
      ("setup_s", Stat.median (since "t_ready"));
      ("eval_s", med "eval_s");
      ("req_per_s", Stat.median (Array.of_list (List.map (fun j -> num "ratios" j /. num "table3_s" j) results)));
      ("latency_p50_ms", med "lat_p50_ms");
      ("recovery_s", Stat.median (since "t_first"));
      ("peak_rss_mb", med "rss_mb");
      ("mixtree.build_ms", layer "mixtree.build");
      ("core.forest_ms", layer "core.forest");
      ("core.forest_us_per_node", if nodes > 0. then 1000. *. layer "core.forest" /. nodes else 0.);
      ("core.schedule_ms", layer "core.schedule");
      ("core.storage_ms", layer "core.storage");
      ("core.baseline_ms", layer "core.baseline");
      ("core.streaming_ms", layer "core.streaming");
      ("core.schedules", med "schedules");
      ("chip.actuation_ms", layer "chip.actuation");
      ("chip.placer_ms", layer "chip.placer");
      ("runtime.minor_mb", med "minor_mb");
      ("runtime.major_gcs", med "major_gcs");
    ] )

let serving run ~root ~seed ~seconds =
  let bin name =
    let p = Filename.concat (Sys.getcwd ()) (Printf.sprintf "_build/default/bin/%s.exe" name) in
    if not (Sys.file_exists p) then failwith (p ^ " is not built");
    p
  in
  let metrics = run ~root ~bin ~seed ~seconds in
  List.iter (fun m -> prerr_endline ("perfbench: check failed: " ^ m)) (List.rev !Serving.wrong);
  (!Serving.wrong = [], !Serving.attempted, metrics)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let child = ref false and probe = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper_eval | daemon_zipf | router_warm");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end ones");
      ("--child", Arg.Set child, " (internal) one paper_eval round in this process");
      ("--probe", Arg.Set probe, " (internal) set-up and first answer only");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  Span.enabled := !trace = 1;
  if !child then Wl_paper.child ~probe:!probe ~seed:!seed
  else begin
    at_exit Proc.cleanup;
    (* Scratch space inside the checkout, removed at exit. *)
    let root = Filename.concat (Sys.getcwd ()) ".perfbench-tmp" in
    let correct, attempted, metrics =
      match !workload with
      | "paper_eval" -> paper_eval ~root ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      | "daemon_zipf" -> serving Wl_daemon.run ~root ~seed:!seed ~seconds:!seconds
      | "router_warm" -> serving Wl_router.run ~root ~seed:!seed ~seconds:!seconds
      | w ->
        prerr_endline ("perfbench: unknown workload " ^ w);
        exit 2
    in
    let wanted = if !trace = 1 then per_layer else end_to_end in
    let value name =
      match List.assoc_opt name metrics with
      | Some v when Float.is_finite v -> v
      | Some _ -> failwith ("non-finite metric " ^ name)
      | None when !trace = 1 -> 0. (* a layer this workload does not run *)
      | None -> failwith ("workload did not measure " ^ name)
    in
    print_endline
      (J.to_string
         (J.Obj
            [
              ("correct", J.Bool correct);
              ("attempted", J.Num (float_of_int attempted));
              ("failed", J.Num (float_of_int !Serving.failed));
              ( "metrics",
                J.Obj
                  (List.map
                     (fun (name, unit) ->
                       (name, J.Obj [ ("value", J.Num (value name)); ("unit", J.Str unit) ]))
                     wanted) );
            ]))
  end
