(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and micro-benchmarks each workload with Bechamel.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe fig1 table2 ... -- run a subset
     BENCH_FULL=1 dune exec bench/main.exe    -- full 6289-ratio corpus
                                                 (default: deterministic
                                                 subsample)
     MDST_DOMAINS=4 dune exec bench/main.exe  -- corpus sweeps on 4 domains
                                                 (default: physical cores)
     DMF_BENCH_REPS=5 dune exec bench/main.exe service wal
                                              -- repeat the service/WAL
                                                 phases 5x and pool their
                                                 latency samples (default 1)

   Experiments: cluster replication fig1 fig3 fig5 table2 table3 fig6
   fig7 table4 ablation dilution robust assay pins routing recovery
   wash pareto scaling service wal store speed.  (cluster forks daemon
   processes and so must precede anything that spawns domains; keep it
   first when selecting subsets that include it.)

   Every run additionally writes a JSON record — per-experiment wall
   times, Bechamel ns/run, service req/s with p50/p95/p99 request
   latencies, cluster req/s vs shard count through dmfrouter (cold and
   warm, with the exact-coalescing flag and the 4-shard warm speedup),
   WAL fsync-batch throughput (same percentiles), the group-commit
   sweep (concurrent strict committers vs the serialized PR 5
   discipline), follower replication lag, the cold-vs-warm
   plan-store sweep, domain/core counts and corpus sizes — to
   bench_results/bench-<timestamp>.json and to the stable alias
   bench_results/bench-latest.json, both untracked; CI's gates read the
   alias.  The tracked BENCH_PR*.json files are history and no run
   rewrites them.  Everything printed is also teed into bench_output.txt
   (untracked) for local inspection. *)

let pcr16 = Bioproto.Protocols.pcr ~d:4

let section title = print_string (Mdst.Report.section title)

let full_corpus = Sys.getenv_opt "BENCH_FULL" = Some "1"

let corpus ~every =
  let all = Bioproto.Synth.corpus ~sum:32 () in
  if full_corpus then all else Bioproto.Synth.sample ~every all

let i2s = string_of_int

(* How many times to repeat each service/WAL measurement phase; the
   latency samples of all repetitions are pooled before the percentiles
   are taken, so higher values firm up the tail estimates. *)
let bench_reps =
  match Sys.getenv_opt "DMF_BENCH_REPS" with
  | None -> 1
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> 1)

(* Nearest-rank percentile (p in 0..100) of unsorted samples. *)
let percentile p samples =
  match List.sort Float.compare samples with
  | [] -> 0.
  | sorted ->
    let arr = Array.of_list sorted in
    let n = Array.length arr in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    arr.(max 0 (min (n - 1) (rank - 1)))

(* ------------------------------------------------------------------ *)
(* Benchmark JSON accumulators                                        *)

let wall_times : (string * float) list ref = ref []
let micro_ns : (string * float) list ref = ref []

(* (workers, phase, requests, wall_s, latencies_ms) per
   service-throughput phase; latencies pooled across repetitions. *)
let service_results : (int * string * int * float * float list) list ref =
  ref []

(* (mode, fsync_every_n, requests, wall_s, fsyncs, latencies_ms) per WAL
   mode. *)
let wal_results : (string * int * int * float * int * float list) list ref =
  ref []

(* (mode, threads, records, wall_s, fsyncs, group_commits,
   avg_batch_size) per group-commit sweep row: the WAL alone under
   concurrent strict committers. *)
let group_commit_results :
    (string * int * int * float * int * int * float) list ref =
  ref []

(* Follower-lag experiment: (backlog_records, backlog_s, live_records,
   live_s, max_lag_records, max_lag_ms). *)
let replication_result :
    (int * float * int * float * int * float) option ref =
  ref None

(* (config, shards, phase, requests, wall_s, ok, latencies_ms) per
   cluster-experiment phase; coalescing is exact iff every cluster
   configuration built precisely one plan per distinct cache key. *)
let cluster_results :
    (string * int * string * int * float * int * float list) list ref =
  ref []

let cluster_plans_exact = ref true

(* Cold vs warm table3-style sweep through the content-addressed plan
   store: (specs, cold_s, warm_s, warm_hits, writes, entries, bytes). *)
let plan_store_result :
    (int * float * float * int * int * int * int) option ref =
  ref None

(* (policy, plan, counters) rows of the scheduler-core experiment. *)
let scheduler_core_results :
    (string * string * Mdst.Instr.counters) list ref =
  ref []

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let bench_results_dir = "bench_results"

let write_bench_json () =
  (* Resolve every value before writing: a bad MDST_DOMAINS raises in
     [default_domains], and must not leave a truncated bench-latest.json
     behind. *)
  let domains = Mdst.Par.default_domains () in
  let experiments =
    List.rev_map
      (fun (name, v) ->
        Printf.sprintf "{\"name\": \"%s\", \"wall_s\": %.6f}"
          (json_escape name) v)
      !wall_times
  in
  let micro =
    List.map
      (fun (name, v) ->
        Printf.sprintf "{\"name\": \"%s\", \"ns_per_run\": %.1f}"
          (json_escape name) v)
      (List.sort compare !micro_ns)
  in
  let scheduler_core =
    List.rev_map
      (fun (policy, plan_name, c) ->
        Printf.sprintf "{\"policy\": \"%s\", \"plan\": \"%s\", %s}"
          (json_escape policy) (json_escape plan_name)
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "\"%s\": %g" k v)
                (Mdst.Instr.counters_to_fields c))))
      !scheduler_core_results
  in
  let percentile_fields latencies =
    Printf.sprintf "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f"
      (percentile 50. latencies) (percentile 95. latencies)
      (percentile 99. latencies)
  in
  let service =
    List.rev_map
      (fun (workers, phase, requests, wall_s, latencies) ->
        Printf.sprintf
          "{\"workers\": %d, \"phase\": \"%s\", \"requests\": %d, \
           \"wall_s\": %.6f, \"req_per_s\": %.1f, %s}"
          workers (json_escape phase) requests wall_s
          (if wall_s > 0. then float_of_int requests /. wall_s else 0.)
          (percentile_fields latencies))
      !service_results
  in
  let cluster_rows =
    List.rev_map
      (fun (config, shards, phase, requests, wall_s, ok, latencies) ->
        Printf.sprintf
          "{\"config\": \"%s\", \"shards\": %d, \"phase\": \"%s\", \
           \"requests\": %d, \"ok\": %d, \"wall_s\": %.6f, \
           \"req_per_s\": %.1f, %s}"
          (json_escape config) shards (json_escape phase) requests ok wall_s
          (if wall_s > 0. then float_of_int requests /. wall_s else 0.)
          (percentile_fields latencies))
      !cluster_results
  in
  (* Warm throughput of the 4-shard router relative to the direct
     single daemon — the headline scaling number.  On a 1-core box the
     shards serialize and this hovers near 1; the cores field records
     what was available. *)
  let cluster_speedup =
    let warm_rps config shards =
      List.find_map
        (fun (c, s, phase, requests, wall_s, _, _) ->
          if c = config && s = shards && phase = "warm" && wall_s > 0. then
            Some (float_of_int requests /. wall_s)
          else None)
        !cluster_results
    in
    match (warm_rps "direct" 1, warm_rps "router" 4) with
    | Some direct, Some sharded when direct > 0. -> sharded /. direct
    | _ -> 0.
  in
  let wal =
    List.rev_map
      (fun (mode, every_n, requests, wall_s, fsyncs, latencies) ->
        Printf.sprintf
          "{\"mode\": \"%s\", \"fsync_every_n\": %d, \"requests\": %d, \
           \"wall_s\": %.6f, \"req_per_s\": %.1f, \"fsyncs\": %d, %s}"
          (json_escape mode) every_n requests wall_s
          (if wall_s > 0. then float_of_int requests /. wall_s else 0.)
          fsyncs
          (percentile_fields latencies))
      !wal_results
  in
  let group_commit =
    List.rev_map
      (fun (mode, threads, records, wall_s, fsyncs, gcs, avg_batch) ->
        Printf.sprintf
          "{\"mode\": \"%s\", \"threads\": %d, \"records\": %d, \
           \"wall_s\": %.6f, \"rec_per_s\": %.1f, \"fsyncs\": %d, \
           \"group_commits\": %d, \"avg_batch_size\": %.2f}"
          (json_escape mode) threads records wall_s
          (if wall_s > 0. then float_of_int records /. wall_s else 0.)
          fsyncs gcs avg_batch)
      !group_commit_results
  in
  let replication_json =
    match !replication_result with
    | None -> "{\"ran\": false}"
    | Some (backlog, backlog_s, live, live_s, max_lag, max_lag_ms) ->
      Printf.sprintf
        "{\"ran\": true, \"backlog_records\": %d, \"backlog_s\": %.6f, \
         \"backlog_rec_per_s\": %.1f, \"live_records\": %d, \
         \"live_s\": %.6f, \"max_lag_records\": %d, \"max_lag_ms\": %.3f}"
        backlog backlog_s
        (if backlog_s > 0. then float_of_int backlog /. backlog_s else 0.)
        live live_s max_lag max_lag_ms
  in
  let plan_store_json =
    match !plan_store_result with
    | None -> "{\"ran\": false}"
    | Some (specs, cold_s, warm_s, warm_hits, writes, entries, bytes) ->
      Printf.sprintf
        "{\"ran\": true, \"specs\": %d, \"cold_s\": %.6f, \"warm_s\": %.6f, \
         \"warm_hits\": %d, \"writes\": %d, \"entries\": %d, \"bytes\": %d, \
         \"warm_speedup\": %.3f}"
        specs cold_s warm_s warm_hits writes entries bytes
        (if warm_s > 0. then cold_s /. warm_s else 0.)
  in
  let contents =
    Printf.sprintf
      "{\n\
      \  \"pr\": 10,\n\
      \  \"bench\": \"dmfstream\",\n\
      \  \"domains\": %d,\n\
      \  \"cores\": %d,\n\
      \  \"full_corpus\": %b,\n\
      \  \"corpus_size\": {\"table3\": %d, \"fig6\": %d, \"full\": %d},\n\
      \  \"experiments\": [\n    %s\n  ],\n\
      \  \"scheduler_core\": [\n    %s\n  ],\n\
      \  \"service\": [\n    %s\n  ],\n\
      \  \"cluster\": {\n\
      \    \"client_connections\": 8,\n\
      \    \"coalescing_exact\": %b,\n\
      \    \"warm_speedup_4_shards\": %.3f,\n\
      \    \"rows\": [\n      %s\n    ]\n\
      \  },\n\
      \  \"wal\": [\n    %s\n  ],\n\
      \  \"group_commit\": [\n    %s\n  ],\n\
      \  \"replication\": %s,\n\
      \  \"plan_store\": %s,\n\
      \  \"micro_ns_per_run\": [\n    %s\n  ]\n\
       }\n"
      domains
      (Domain.recommended_domain_count ())
      full_corpus
      (List.length (corpus ~every:8))
      (List.length (corpus ~every:40))
      (List.length (Bioproto.Synth.corpus ~sum:32 ()))
      (String.concat ",\n    " experiments)
      (String.concat ",\n    " scheduler_core)
      (String.concat ",\n    " service)
      !cluster_plans_exact cluster_speedup
      (String.concat ",\n      " cluster_rows)
      (String.concat ",\n    " wal)
      (String.concat ",\n    " group_commit)
      replication_json
      plan_store_json
      (String.concat ",\n    " micro)
  in
  (* One timestamped copy per run plus a stable bench-latest.json alias
     for tooling.  The stamped name is not printed, so bench_output.txt
     stays deterministic across runs. *)
  (try Unix.mkdir bench_results_dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let tm = Unix.localtime (Unix.gettimeofday ()) in
  let stamped =
    Filename.concat bench_results_dir
      (Printf.sprintf "bench-%04d%02d%02d-%02d%02d%02d.json"
         (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
         tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec)
  in
  List.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc contents))
    [ stamped; Filename.concat bench_results_dir "bench-latest.json" ];
  Printf.printf "\nwrote %s/bench-latest.json\n" bench_results_dir

(* ------------------------------------------------------------------ *)
(* Figure 1 / 2: mixing-forest construction for the PCR master-mix     *)

let fig1 () =
  section "Fig. 1-2: mixing forests for PCR ratio 2:1:1:1:1:1:9 (d=4)";
  let rows =
    List.map
      (fun (demand, paper) ->
        let p =
          Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16
            ~demand
        in
        [
          i2s demand;
          i2s (Mdst.Plan.trees p);
          i2s (Mdst.Plan.tms p);
          i2s (Mdst.Plan.waste p);
          i2s (Mdst.Plan.input_total p);
          String.concat ","
            (Array.to_list (Array.map i2s (Mdst.Plan.input_vector p)));
          paper;
        ])
      [
        (16, "|F|=8 Tms=19 W=0 I=16");
        (20, "|F|=10 Tms=27 W=5 I=25 I[]=3,2,2,2,2,2,12");
      ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "D"; "|F|"; "Tms"; "W"; "I"; "I[]"; "paper" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Figure 3 / 4: SRS schedule of the D = 20 forest with three mixers   *)

let fig3 () =
  section "Fig. 3-4: SRS schedule, D=20, Mc=3 (paper: Tc=11, q=5)";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let srs = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let mms = Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan ~mixers:3 in
  print_string (Mdst.Gantt.render ~plan srs);
  Printf.printf
    "measured: SRS Tc=%d q=%d | MMS Tc=%d q=%d (SRS trades time for storage)\n"
    (Mdst.Schedule.completion_time srs)
    (Mdst.Storage.units ~plan srs)
    (Mdst.Schedule.completion_time mms)
    (Mdst.Storage.units ~plan mms)

(* ------------------------------------------------------------------ *)
(* Figure 5: chip layout, cost matrix, electrode actuation             *)

let fig5 () =
  section "Fig. 5: PCR chip layout and droplet-transportation costs";
  let layout = Chip.Layout.pcr_fig5 () in
  print_string (Chip.Layout.render layout);
  let matrix = Chip.Cost_matrix.build layout in
  let ids ms = List.map (fun m -> m.Chip.Chip_module.id) ms in
  print_newline ();
  print_string
    (Chip.Cost_matrix.render
       ~rows:
         (ids (Chip.Layout.reservoirs layout)
         @ ids (Chip.Layout.storage_units layout)
         @ ids (Chip.Layout.wastes layout)
         @ ids (Chip.Layout.mixers layout))
       ~columns:(ids (Chip.Layout.mixers layout))
       matrix);
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let pass =
    Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:2
  in
  let pass_schedule = Mdst.Scheduler.schedule Mdst.Scheduler.oms ~plan:pass ~mixers:3 in
  (match
     ( Chip.Actuation.account ~layout ~plan ~schedule,
       Chip.Actuation.account ~layout ~plan:pass ~schedule:pass_schedule )
   with
  | Ok streamed, Ok one_pass ->
    let repeated = 10 * Chip.Actuation.total one_pass in
    Printf.printf
      "\nelectrode actuations for D=20: streamed forest %d vs repeated MM %d \
       (%.2fx)\n"
      (Chip.Actuation.total streamed)
      repeated
      (float_of_int repeated /. float_of_int (Chip.Actuation.total streamed));
    Printf.printf "paper (hand-placed chip): 386 vs 980 (2.54x)\n"
  | Error e, _ | _, Error e -> Printf.printf "accounting failed: %s\n" e);
  match Chip.Placer.optimize_for ~iterations:1500 ~plan ~schedule layout with
  | Ok (_, before, after) ->
    Printf.printf
      "placement optimisation (extension, after [21]): %d -> %d electrodes\n"
      before after
  | Error e -> Printf.printf "placer failed: %s\n" e

(* ------------------------------------------------------------------ *)
(* Table 2: Ex.1-5 under the nine schemes                              *)

(* Paper values (Tc, q, I) per protocol, columns A..I; -1 = not legible
   in the source scan. *)
let table2_paper =
  [
    ( "ex1",
      [ (128, 1, 272); (15, 13, 41); (16, 8, 41); (128, 0, 304); (12, 12, 43);
        (12, 8, 43); (128, 2, 240); (15, -1, 39); (16, -1, 39) ] );
    ( "ex2",
      [ (128, 0, 144); (34, 15, 35); (34, 4, 35); (128, 0, 144); (34, 15, 35);
        (34, 4, 35); (128, 0, 144); (34, -1, 35); (34, -1, 35) ] );
    ( "ex3",
      [ (128, 1, 432); (12, 9, 45); (13, 9, 45); (128, 0, 464); (12, 10, 47);
        (14, 9, 47); (128, 2, 288); (11, -1, 39); (13, -1, 39) ] );
    ( "ex4",
      [ (128, 1, 208); (20, 13, 37); (20, 6, 37); (128, 0, 256); (15, 12, 40);
        (15, 8, 40); (128, 1, 160); (20, -1, 37); (20, -1, 37) ] );
    ( "ex5",
      [ (128, 2, 304); (17, 13, 40); (17, 9, 40); (128, 1, 320); (17, 12, 41);
        (19, 13, 41); (128, 1, 208); (24, -1, 36); (24, -1, 36) ] );
  ]

let table2 () =
  section "Table 2: Tc / q / I for Ex.1-5 under nine schemes (D=32)";
  (* Evaluate the five protocols concurrently, print in protocol order. *)
  let evaluated =
    Mdst.Par.map
      (fun p ->
        ( p,
          Mdst.Compare.evaluate_all ~ratio:p.Bioproto.Protocols.ratio
            ~demand:32 Mdst.Compare.table2_schemes ))
      Bioproto.Protocols.table2
  in
  List.iter
    (fun (p, results) ->
      let id = p.Bioproto.Protocols.id in
      let ratio = p.Bioproto.Protocols.ratio in
      Printf.printf "\n%s = %s (%s)\n" id
        (Dmf.Ratio.to_string ratio)
        p.Bioproto.Protocols.name;
      let paper_row = List.assoc id table2_paper in
      let cell v = if v < 0 then "-" else i2s v in
      let rows =
        List.map2
          (fun (scheme, m) (ptc, pq, pi) ->
            [
              Mdst.Compare.scheme_name scheme;
              i2s m.Mdst.Metrics.tc;
              cell ptc;
              i2s m.Mdst.Metrics.q;
              cell pq;
              i2s m.Mdst.Metrics.input_total;
              cell pi;
            ])
          results paper_row
      in
      print_string
        (Mdst.Report.table
           ~header:
             [ "scheme"; "Tc"; "Tc(paper)"; "q"; "q(paper)"; "I"; "I(paper)" ]
           ~rows))
    evaluated

(* ------------------------------------------------------------------ *)
(* Table 3: average improvements over the synthetic corpus             *)

let table3_paper = function
  | Mixtree.Algorithm.MM -> (73.0, 72.0, 76.0, 76.0, 23.2, -3.9)
  | Mixtree.Algorithm.RMA -> (73.5, 72.1, 76.6, 76.6, 26.0, -5.5)
  | Mixtree.Algorithm.MTCS -> (71.1, 69.8, 72.4, 72.4, 27.4, -4.4)
  | Mixtree.Algorithm.RSM -> (0., 0., 0., 0., 0., 0.)

let table3 () =
  let ratios = corpus ~every:8 in
  section
    (Printf.sprintf
       "Table 3: average %% improvements over %d synthetic ratios (L=32, \
        D=32)%s"
       (List.length ratios)
       (if full_corpus then "" else " [subsampled; BENCH_FULL=1 for all 6289]"));
  let f = Mdst.Report.float_cell in
  let rows =
    List.concat_map
      (fun algorithm ->
        let imp =
          Mdst.Compare.average_improvements ~ratios ~demand:32 algorithm
        in
        let ptc_m, ptc_s, pi_m, pi_s, pq, ptc_sm = table3_paper algorithm in
        let name = Mixtree.Algorithm.name algorithm in
        [
          [ "Tc: MMS||R"; name; f imp.Mdst.Compare.mms_tc_over_repeated; f ptc_m ];
          [ "Tc: SRS||R"; name; f imp.Mdst.Compare.srs_tc_over_repeated; f ptc_s ];
          [ "I:  MMS||R"; name; f imp.Mdst.Compare.mms_i_over_repeated; f pi_m ];
          [ "I:  SRS||R"; name; f imp.Mdst.Compare.srs_i_over_repeated; f pi_s ];
          [ "q:  SRS||MMS"; name; f imp.Mdst.Compare.srs_q_over_mms; f pq ];
          [ "Tc: SRS||MMS"; name; f imp.Mdst.Compare.srs_tc_over_mms; f ptc_sm ];
        ])
      [ Mixtree.Algorithm.MM; Mixtree.Algorithm.RMA; Mixtree.Algorithm.MTCS ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "parameter"; "base algo"; "measured %"; "paper %" ]
       ~rows);
  (* The headline claim of the abstract. *)
  let mm =
    Mdst.Compare.average_improvements ~ratios ~demand:32 Mixtree.Algorithm.MM
  in
  Printf.printf
    "headline: MMS produces droplets %.1f%% faster with %.1f%% less reactant \
     (paper: 72.5%% / 75%%)\n"
    mm.Mdst.Compare.mms_tc_over_repeated mm.Mdst.Compare.mms_i_over_repeated

(* ------------------------------------------------------------------ *)
(* Figure 6: average Tc and I versus demand                            *)

let fig6 () =
  let ratios = corpus ~every:40 in
  section
    (Printf.sprintf
       "Fig. 6: average Tc and I vs demand over %d synthetic ratios%s"
       (List.length ratios)
       (if full_corpus then "" else " [subsampled]"));
  let schemes =
    [
      ("RMM", Mdst.Compare.Repeated Mixtree.Algorithm.MM);
      ("RMTCS", Mdst.Compare.Repeated Mixtree.Algorithm.MTCS);
      ( "MM+MMS",
        Mdst.Compare.Streamed (Mixtree.Algorithm.MM, Mdst.Scheduler.mms) );
      ( "MTCS+MMS",
        Mdst.Compare.Streamed (Mixtree.Algorithm.MTCS, Mdst.Scheduler.mms) );
    ]
  in
  let average demand pick scheme =
    (* Parallel over the corpus — one evaluation per ratio. *)
    let total =
      Mdst.Par.map
        (fun ratio -> pick (Mdst.Compare.evaluate ~ratio ~demand scheme))
        ratios
      |> List.fold_left ( + ) 0
    in
    float_of_int total /. float_of_int (List.length ratios)
  in
  print_string "(a) average time of completion Tc vs demand D\n";
  let header = "D" :: List.map fst schemes in
  let rows =
    List.map
      (fun demand ->
        i2s demand
        :: List.map
             (fun (_, s) ->
               Mdst.Report.float_cell
                 (average demand (fun m -> m.Mdst.Metrics.tc) s))
             schemes)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  print_string (Mdst.Report.table ~header ~rows);
  print_string
    "(expected shape: baselines grow stepwise with ceil(D/2); forests grow \
     slowly)\n\n";
  print_string "(b) average input-droplet usage I vs demand D\n";
  let rows =
    List.map
      (fun demand ->
        i2s demand
        :: List.map
             (fun (_, s) ->
               Mdst.Report.float_cell
                 (average demand (fun m -> m.Mdst.Metrics.input_total) s))
             schemes)
      [ 2; 4; 8; 12; 16; 20; 24; 28; 32 ]
  in
  print_string (Mdst.Report.table ~header ~rows);
  print_string
    "(expected shape: baselines linear in D; forests approach the ideal D \
     droplets in = D droplets out)\n"

(* ------------------------------------------------------------------ *)
(* Figure 7: Tc and q versus the number of mixers                      *)

let fig7 () =
  section "Fig. 7: Tc and q vs mixers M, RMA base tree, PCR d=4, D=32";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.RMA ~ratio:pcr16 ~demand:32
  in
  let rows =
    Mdst.Par.map
      (fun mixers ->
        let mms = Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan ~mixers in
        let srs = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers in
        [
          i2s mixers;
          i2s (Mdst.Schedule.completion_time mms);
          i2s (Mdst.Schedule.completion_time srs);
          i2s (Mdst.Storage.units ~plan mms);
          i2s (Mdst.Storage.units ~plan srs);
        ])
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "M"; "Tc MMS"; "Tc SRS"; "q MMS"; "q SRS" ]
       ~rows);
  print_string
    "(expected shape: Tc falls then saturates with M; SRS needs fewer \
     storage units than MMS on average)\n"

(* ------------------------------------------------------------------ *)
(* Table 4: multi-pass streaming under a storage budget                *)

let table4_paper = function
  | 4, 3, 2 -> "One (4,6)"
  | 4, 3, 16 -> "Two (10,7)"
  | 4, 3, 20 -> "Two (11,5)"
  | 4, 3, 32 -> "Three (17,7)"
  | 4, 5, 2 | 4, 7, 2 -> "One (4,6)"
  | 4, 5, 16 | 4, 7, 16 -> "One (7,0)"
  | _ -> "-"

let table4 () =
  section
    "Table 4: PCR streaming with 3 mixers under storage budgets (passes, \
     total Tc, total W)";
  List.iter
    (fun d ->
      let ratio = Bioproto.Protocols.pcr ~d in
      Printf.printf "\naccuracy d = %d (ratio %s)\n" d
        (Dmf.Ratio.to_string ratio);
      let rows =
        List.concat_map
          (fun q ->
            List.map
              (fun demand ->
                let r =
                  Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio
                    ~demand ~mixers:3 ~storage_limit:q
                    ~scheduler:Mdst.Scheduler.srs ()
                in
                [
                  i2s q;
                  i2s demand;
                  i2s (Mdst.Streaming.n_passes r);
                  Printf.sprintf "(%d,%d)" r.Mdst.Streaming.total_cycles
                    r.Mdst.Streaming.total_waste;
                  table4_paper (d, q, demand);
                ])
              [ 2; 16; 20; 32 ])
          [ 3; 5; 7 ]
      in
      print_string
        (Mdst.Report.table
           ~header:[ "q'"; "D"; "passes"; "(Tc,W)"; "paper" ]
           ~rows))
    [ 4; 5; 6 ]

(* ------------------------------------------------------------------ *)
(* Ablations: where do the savings come from?                          *)

let ablation () =
  section "Ablation 1: waste-droplet reuse on/off (the paper's key idea)";
  let rows =
    List.map
      (fun p ->
        let ratio = p.Bioproto.Protocols.ratio in
        let on =
          Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand:32
        in
        let off =
          Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MM ~ratio
            ~demand:32
        in
        [
          p.Bioproto.Protocols.id;
          i2s (Mdst.Plan.tms on);
          i2s (Mdst.Plan.tms off);
          i2s (Mdst.Plan.waste on);
          i2s (Mdst.Plan.waste off);
          i2s (Mdst.Plan.input_total on);
          i2s (Mdst.Plan.input_total off);
        ])
      Bioproto.Protocols.table2
  in
  print_string
    (Mdst.Report.table
       ~header:
         [ "ratio"; "Tms on"; "Tms off"; "W on"; "W off"; "I on"; "I off" ]
       ~rows);

  section "Ablation 2: MTCS intra-pass sharing on/off (single pass)";
  let rows =
    List.map
      (fun p ->
        let ratio = p.Bioproto.Protocols.ratio in
        let tree = Mixtree.Mtcs.build ratio in
        let shared = Mdst.Forest.of_tree ~ratio ~demand:2 ~sharing:true tree in
        let unshared =
          Mdst.Forest.of_tree ~ratio ~demand:2 ~sharing:false tree
        in
        [
          p.Bioproto.Protocols.id;
          i2s (Mdst.Plan.tms shared);
          i2s (Mdst.Plan.tms unshared);
          i2s (Mdst.Plan.input_total shared);
          i2s (Mdst.Plan.input_total unshared);
        ])
      Bioproto.Protocols.table2
  in
  print_string
    (Mdst.Report.table
       ~header:[ "ratio"; "Tms shared"; "Tms plain"; "I shared"; "I plain" ]
       ~rows);

  section "Ablation 3: scheduler choice across mixer counts (PCR, D=32)";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:32
  in
  let rows =
    List.map
      (fun mixers ->
        let mms = Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan ~mixers in
        let oms = Mdst.Scheduler.schedule Mdst.Scheduler.oms ~plan ~mixers in
        let srs = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers in
        [
          i2s mixers;
          Printf.sprintf "%d/%d"
            (Mdst.Schedule.completion_time mms)
            (Mdst.Storage.units ~plan mms);
          Printf.sprintf "%d/%d"
            (Mdst.Schedule.completion_time oms)
            (Mdst.Storage.units ~plan oms);
          Printf.sprintf "%d/%d"
            (Mdst.Schedule.completion_time srs)
            (Mdst.Storage.units ~plan srs);
        ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "M"; "MMS Tc/q"; "OMS Tc/q"; "SRS Tc/q" ]
       ~rows)


(* ------------------------------------------------------------------ *)
(* Dilution: the N = 2 lineage ([17] DMRW, [20] dilution engine)       *)

let dilution () =
  section
    "Dilution engine (N=2, after [17, 20]): TWM vs DMRW seeds, d = 5";
  let d = 5 in
  let total_stats tree_of =
    let totals = ref (0, 0, 0) in
    for c = 1 to Dmf.Binary.pow2 d - 1 do
      let ratio = Mixtree.Dilution.ratio ~c ~d in
      let pass = Mdst.Forest.of_tree ~ratio ~demand:2 ~sharing:true (tree_of c) in
      let tms, waste, inputs = !totals in
      totals :=
        ( tms + Mdst.Plan.tms pass,
          waste + Mdst.Plan.waste pass,
          inputs + Mdst.Plan.input_total pass )
    done;
    !totals
  in
  let twm = total_stats (fun c -> Mixtree.Dilution.twm ~c ~d) in
  let dmrw = total_stats (fun c -> Mixtree.Dilution.dmrw ~c ~d) in
  let row name (tms, waste, inputs) =
    [ name; i2s tms; i2s waste; i2s inputs ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "tree (sum over all 31 targets)"; "Tms"; "W"; "I" ]
       ~rows:[ row "TWM (bit-scan)" twm; row "DMRW (binary search)" dmrw ]);
  print_string
    "(expected shape: DMRW trades slightly more mixes for fewer waste \
     droplets per pass)\n";
  (* The streaming engine of [20]: demand sweep for one target. *)
  let ratio = Mixtree.Dilution.ratio ~c:11 ~d in
  let tree = Mixtree.Dilution.dmrw ~c:11 ~d in
  let rows =
    List.map
      (fun demand ->
        let engine = Mdst.Forest.of_tree ~ratio ~demand ~sharing:true tree in
        let repeated_inputs =
          Dmf.Binary.ceil_div demand 2
          * Mdst.Plan.input_total
              (Mdst.Forest.of_tree ~ratio ~demand:2 ~sharing:true tree)
        in
        [
          i2s demand;
          i2s (Mdst.Plan.tms engine);
          i2s (Mdst.Plan.waste engine);
          i2s (Mdst.Plan.input_total engine);
          i2s repeated_inputs;
        ])
      [ 2; 4; 8; 16; 32 ]
  in
  print_string
    (Mdst.Report.table
       ~header:[ "D"; "Tms"; "W"; "I engine"; "I repeated" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Robustness: split-error accumulation per base algorithm             *)

let robust () =
  section
    "Split-error robustness (extension): worst-case CF error, 5% split \
     imbalance, D = 32";
  let epsilon = 0.05 in
  let rows =
    List.map
      (fun p ->
        let ratio = p.Bioproto.Protocols.ratio in
        p.Bioproto.Protocols.id
        :: List.map
             (fun algorithm ->
               let plan = Mdst.Forest.build ~algorithm ~ratio ~demand:32 in
               Printf.sprintf "%.4f"
                 (Mdst.Split_error.max_cf_error ~plan ~epsilon))
             [ Mixtree.Algorithm.MM; Mixtree.Algorithm.RMA;
               Mixtree.Algorithm.MTCS ])
      Bioproto.Protocols.table2
  in
  print_string
    (Mdst.Report.table ~header:[ "ratio"; "MM"; "RMA"; "MTCS" ] ~rows);
  (* Wear on the PCR chip: streamed vs repeated. *)
  let layout = Chip.Layout.pcr_fig5 () in
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let pass =
    Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:2
  in
  let pass_schedule = Mdst.Scheduler.schedule Mdst.Scheduler.oms ~plan:pass ~mixers:3 in
  match
    ( Sim.Wear.of_run ~layout ~plan ~schedule,
      Sim.Wear.of_run ~layout ~plan:pass ~schedule:pass_schedule )
  with
  | Ok streamed, Ok one_pass ->
    Printf.printf
      "electrode wear for D=20: streamed hottest=%d total=%d vs repeated \
       (10 passes) hottest=%d total=%d\n"
      streamed.Sim.Wear.hottest streamed.Sim.Wear.total
      (10 * one_pass.Sim.Wear.hottest)
      (10 * one_pass.Sim.Wear.total)
  | Error e, _ | _, Error e -> Printf.printf "wear analysis failed: %s\n" e


(* ------------------------------------------------------------------ *)
(* Demand-driven assay feeding and pin-constrained addressing          *)

let assay () =
  section
    "Assay feeding (extension): just-in-time production for a periodic \
     consumer";
  let rows =
    List.map
      (fun (interval, label) ->
        let requests =
          Assay.Demand.periodic ~start:20 ~interval ~count:4 ~batches:8
        in
        let p =
          Assay.Planner.plan ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16
            ~mixers:3 ~storage_limit:5 ~scheduler:Mdst.Scheduler.srs ~requests
        in
        [
          label;
          i2s (Mdst.Streaming.n_passes p.Assay.Planner.streaming);
          i2s p.Assay.Planner.max_lateness;
          i2s p.Assay.Planner.total_earliness;
          i2s p.Assay.Planner.streaming.Mdst.Streaming.total_inputs;
          i2s p.Assay.Planner.makespan;
        ])
      [ (2, "4 droplets / 2 cycles"); (5, "4 droplets / 5 cycles");
        (10, "4 droplets / 10 cycles"); (15, "4 droplets / 15 cycles");
        (30, "4 droplets / 30 cycles") ]
  in
  print_string
    (Mdst.Report.table
       ~header:
         [ "consumer"; "passes"; "max lateness"; "earliness"; "I"; "makespan" ]
       ~rows);
  print_string
    "(expected shape: slow consumers are served just-in-time with zero \
     lateness and zero buffering; fast consumers force larger prebuilt \
     passes, trading buffer residency or lateness for throughput)\n"

let pins () =
  section
    "Broadcast pin assignment (extension, after [10]): PCR chip, D = 20";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let layout = Chip.Layout.pcr_fig5 () in
  match Sim.Executor.run ~layout ~plan ~schedule with
  | Error e -> Printf.printf "simulation failed: %s\n" e
  | Ok (_, stats) ->
    let assignment =
      Chip.Pin_assign.assign ~width:(Chip.Layout.width layout)
        ~height:(Chip.Layout.height layout) stats.Sim.Executor.addressing
    in
    Printf.printf
      "%d driven electrodes, %d control pins, %.1f%% pin saving vs direct \
       addressing\n"
      (Chip.Pin_assign.addressed_electrodes assignment)
      (Chip.Pin_assign.pins assignment)
      (100. *. Chip.Pin_assign.saving assignment)


(* ------------------------------------------------------------------ *)
(* Concurrent droplet routing (extension, after [8])                   *)

let routing () =
  section
    "Parallel droplet routing (extension, after [8]): per-cycle transport \
     on the PCR chip, D = 20";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let layout = Chip.Layout.pcr_fig5 () in
  match Sim.Parallel_transport.analyze ~layout ~plan ~schedule with
  | Error e -> Printf.printf "analysis failed: %s\n" e
  | Ok t ->
    let rows =
      List.map
        (fun r ->
          [
            i2s r.Sim.Parallel_transport.cycle;
            i2s r.Sim.Parallel_transport.moves;
            i2s r.Sim.Parallel_transport.serial_steps;
            i2s r.Sim.Parallel_transport.parallel_steps;
            (if r.Sim.Parallel_transport.fallback then "yes" else "");
          ])
        t.Sim.Parallel_transport.cycles
    in
    print_string
      (Mdst.Report.table
         ~header:[ "cycle"; "moves"; "serial"; "parallel"; "fallback" ]
         ~rows);
    Printf.printf
      "total transport sub-steps: %d serialised vs %d concurrent (%.2fx), \
       %d fallback cycle(s)\n"
      t.Sim.Parallel_transport.total_serial
      t.Sim.Parallel_transport.total_parallel t.Sim.Parallel_transport.speedup
      t.Sim.Parallel_transport.fallbacks


(* ------------------------------------------------------------------ *)
(* Checkpoint-based error recovery (extension)                         *)

let recovery () =
  section
    "Error recovery (extension): split failure at every cycle of the PCR \
     D=20 run";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
  let pick_node_at_cycle t =
    List.find_opt
      (fun node -> Mdst.Schedule.cycle schedule node.Mdst.Plan.id = t)
      (Mdst.Plan.nodes plan)
  in
  let rows =
    List.filter_map
      (fun t ->
        match pick_node_at_cycle t with
        | None -> None
        | Some node ->
          let r =
            Mdst.Recovery.recover ~algorithm:Mixtree.Algorithm.MM ~plan
              ~schedule ~failed_node:node.Mdst.Plan.id
          in
          let recovery_inputs, fresh_inputs =
            match (r.Mdst.Recovery.recovery_plan, r.Mdst.Recovery.fresh_restart) with
            | Some a, Some b ->
              (i2s (Mdst.Plan.input_total a), i2s (Mdst.Plan.input_total b))
            | _ -> ("-", "-")
          in
          Some
            [
              i2s t;
              i2s r.Mdst.Recovery.delivered;
              i2s (Array.length r.Mdst.Recovery.salvaged);
              i2s r.Mdst.Recovery.remaining_demand;
              recovery_inputs;
              fresh_inputs;
            ])
      (List.init (Mdst.Schedule.completion_time schedule) (fun i -> i + 1))
  in
  print_string
    (Mdst.Report.table
       ~header:
         [ "fail cycle"; "delivered"; "salvaged"; "remaining"; "I recover";
           "I restart" ]
       ~rows);
  print_string
    "(expected shape: the later the failure, the less remains to redo; \
     salvaged droplets always keep recovery at or below the restart \
     cost)\n"


(* ------------------------------------------------------------------ *)
(* Cross-contamination and wash overhead (extension)                   *)

let wash () =
  section
    "Cross-contamination (extension): residue crossings and wash overhead, \
     PCR chip";
  let layout = Chip.Layout.pcr_fig5 () in
  let rows =
    List.filter_map
      (fun demand ->
        let plan =
          Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16
            ~demand
        in
        let schedule = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers:3 in
        match Sim.Executor.run ~layout ~plan ~schedule with
        | Error _ -> None
        | Ok (trace, stats) ->
          let report = Sim.Contamination.analyze ~layout ~plan ~trace in
          Some
            [
              i2s demand;
              i2s report.Sim.Contamination.total_crossings;
              i2s report.Sim.Contamination.benign_crossings;
              i2s (List.length report.Sim.Contamination.pairs);
              i2s report.Sim.Contamination.contaminated_cells;
              i2s report.Sim.Contamination.wash.washes;
              i2s report.Sim.Contamination.wash.wash_steps;
              Printf.sprintf "%.2f"
                (Sim.Contamination.wash_overhead_ratio report
                   ~transport_electrodes:stats.Sim.Executor.electrodes);
            ])
      [ 2; 8; 16; 20; 32 ]
  in
  print_string
    (Mdst.Report.table
       ~header:
         [ "D"; "crossings"; "benign"; "pairs"; "cells"; "washes";
           "wash steps"; "overhead" ]
       ~rows);
  print_string
    "(benign crossings are same-value droplets — re-used spares never \
     contaminate, one more advantage of the forest's value-keyed pool)\n"


(* ------------------------------------------------------------------ *)
(* Design-space exploration: mixers x storage operating points          *)

let pareto () =
  section
    "Design-space sweep (extension): completion time across mixers x \
     storage budgets, PCR d=4, D=32, SRS";
  let header =
    "Mc \\ q'" :: List.map i2s [ 1; 2; 3; 5; 7; 10 ]
  in
  let rows =
    List.map
      (fun mixers ->
        i2s mixers
        :: List.map
             (fun storage_limit ->
               let run =
                 Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM
                   ~ratio:pcr16 ~demand:32 ~mixers ~storage_limit
                   ~scheduler:Mdst.Scheduler.srs ()
               in
               Printf.sprintf "%d/%dp" run.Mdst.Streaming.total_cycles
                 (Mdst.Streaming.n_passes run))
             [ 1; 2; 3; 5; 7; 10 ])
      [ 1; 2; 3; 4; 6; 8 ]
  in
  print_string (Mdst.Report.table ~header ~rows);
  print_string
    "(cells are total cycles / passes: both more mixers and more storage \
     buy speed, with diminishing returns — the designer picks the knee)\n"


(* ------------------------------------------------------------------ *)
(* Scaling with the number of fluids at high accuracy (d = 8)          *)

let scaling () =
  section
    "Scaling (extension): average engine cost vs fluid count N at L=256, \
     D=32, MM+SRS";
  (* A deterministic family per N: spread parts then give the remainder
     to a carrier, mimicking real protocols (a few reagents + buffer). *)
  let ratio_for ~n ~spread =
    let parts = Array.make n 1 in
    for i = 0 to n - 2 do
      parts.(i) <- 1 + ((i * spread) mod 13)
    done;
    let used = Array.fold_left ( + ) 0 parts - parts.(n - 1) in
    parts.(n - 1) <- 256 - used;
    Dmf.Ratio.make parts
  in
  let rows =
    List.map
      (fun n ->
        let ratios = List.map (fun spread -> ratio_for ~n ~spread) [ 1; 3; 5 ] in
        let average pick =
          let total =
            List.fold_left
              (fun acc ratio ->
                let result =
                  Mdst.Engine.prepare
                    { Mdst.Engine.ratio; demand = 32;
                      algorithm = Mixtree.Algorithm.MM;
                      scheduler = Mdst.Scheduler.srs; mixers = None }
                in
                acc + pick result.Mdst.Engine.metrics)
              0 ratios
          in
          float_of_int total /. float_of_int (List.length ratios)
        in
        [
          i2s n;
          Mdst.Report.float_cell (average (fun m -> m.Mdst.Metrics.tc));
          Mdst.Report.float_cell (average (fun m -> m.Mdst.Metrics.q));
          Mdst.Report.float_cell (average (fun m -> m.Mdst.Metrics.input_total));
          Mdst.Report.float_cell (average (fun m -> m.Mdst.Metrics.tms));
        ])
      [ 2; 3; 4; 6; 8; 10; 12 ]
  in
  print_string
    (Mdst.Report.table ~header:[ "N"; "avg Tc"; "avg q"; "avg I"; "avg Tms" ] ~rows);
  print_string
    "(expected shape: cost grows mildly with N — the forest amortises the \
     deeper, busier trees across the whole stream)\n"

(* ------------------------------------------------------------------ *)
(* Preparation-server throughput: the dmfd --stdio transport            *)

(* Distinct corpus ratios so a cold phase builds one forest per request
   (no coalescing, all cache misses).  Shared by [service] and [wal]. *)
let service_lines () =
  List.mapi
    (fun i ratio ->
      Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 32, "id": %d}|}
        (Dmf.Ratio.to_string ratio) i)
    (corpus ~every:131)

(* One full request-response round over the pipe transport that
   [dmfd --stdio] uses: write every line, read every response. *)
let stream_requests server lines =
  let n = List.length lines in
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let server_ic = Unix.in_channel_of_descr req_read in
  let server_oc = Unix.out_channel_of_descr resp_write in
  let thread =
    Thread.create
      (fun () ->
        Service.Server.serve_channels server server_ic server_oc;
        close_out_noerr server_oc;
        close_in_noerr server_ic)
      ()
  in
  let client_oc = Unix.out_channel_of_descr req_write in
  let client_ic = Unix.in_channel_of_descr resp_read in
  let t0 = Unix.gettimeofday () in
  (* Per-request service latency: stamp each line as it is enqueued and
     match responses back by their echoed "id" (workers > 1 may answer
     out of order). *)
  let sent = Array.make (max n 1) t0 in
  List.iteri
    (fun i line ->
      output_string client_oc line;
      output_char client_oc '\n';
      sent.(i) <- Unix.gettimeofday ())
    lines;
  close_out client_oc;
  let ok = ref 0 and hits = ref 0 in
  let latencies = ref [] in
  for _ = 1 to n do
    let line = input_line client_ic in
    let now = Unix.gettimeofday () in
    match Service.Jsonl.of_string line with
    | Error _ -> ()
    | Ok json ->
      let flag key =
        Option.bind (Service.Jsonl.member key json) Service.Jsonl.to_bool
        = Some true
      in
      if flag "ok" then incr ok;
      if flag "cache_hit" then incr hits;
      (match
         Option.bind (Service.Jsonl.member "id" json) Service.Jsonl.to_int
       with
      | Some id when id >= 0 && id < n ->
        latencies := ((now -. sent.(id)) *. 1000.) :: !latencies
      | Some _ | None -> ())
  done;
  let wall = Unix.gettimeofday () -. t0 in
  Thread.join thread;
  close_in_noerr client_ic;
  (!ok, !hits, wall, !latencies)

let service () =
  section
    "Service throughput (PR 2): NDJSON requests through the stdio server, \
     cold vs warm plan cache";
  let lines = service_lines () in
  let n = List.length lines in
  let worker_counts =
    let d = Mdst.Par.default_domains () in
    if d > 1 then [ 1; d ] else [ 1 ]
  in
  let rows =
    List.concat_map
      (fun workers ->
        (* One fresh server per repetition, so every cold phase really
           is cold; phase samples are pooled across repetitions. *)
        let runs =
          List.init bench_reps (fun _ ->
              let server =
                Service.Server.create ~workers ~cache_capacity:(2 * n) ()
              in
              let cold = stream_requests server lines in
              let warm = stream_requests server lines in
              Service.Server.stop server;
              (cold, warm))
        in
        let phase name select =
          let ok, hits, wall, latencies =
            List.fold_left
              (fun (ok, hits, wall, lats) run ->
                let o, h, w, l = select run in
                (ok + o, hits + h, wall +. w, List.rev_append l lats))
              (0, 0, 0., []) runs
          in
          let requests = n * bench_reps in
          service_results :=
            (workers, name, requests, wall, latencies) :: !service_results;
          [
            i2s workers; name; i2s requests; i2s ok; i2s hits;
            Printf.sprintf "%.4f" wall;
            Printf.sprintf "%.0f" (float_of_int requests /. wall);
            Printf.sprintf "%.2f" (percentile 50. latencies);
            Printf.sprintf "%.2f" (percentile 95. latencies);
            Printf.sprintf "%.2f" (percentile 99. latencies);
          ]
        in
        [ phase "cold" fst; phase "warm" snd ])
      worker_counts
  in
  print_string
    (Mdst.Report.table
       ~header:
         [
           "workers"; "cache"; "requests"; "ok"; "hits"; "wall s"; "req/s";
           "p50 ms"; "p95 ms"; "p99 ms";
         ]
       ~rows);
  if bench_reps > 1 then
    Printf.printf "(%d repetitions pooled per phase; DMF_BENCH_REPS)\n"
      bench_reps

(* ------------------------------------------------------------------ *)
(* WAL durability tax: throughput vs fsync batch size (PR 5)           *)

let wal () =
  section
    "WAL durability (PR 5): cold-cache request throughput vs fsync batch \
     size (single worker; every_n = 1 syncs before each response)";
  let lines = service_lines () in
  let n = List.length lines in
  let with_temp_dir f =
    let dir = Filename.temp_dir "dmfd-bench-wal" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  (* every_n < 0 is the no-WAL baseline; 0 never syncs on count (the
     one outstanding close-time sync remains); larger batches amortise
     the fsync over more journal records. *)
  let run_mode every_n =
    if every_n < 0 then begin
      let server = Service.Server.create ~workers:1 ~cache_capacity:(2 * n) () in
      let ok, _hits, wall, latencies = stream_requests server lines in
      Service.Server.stop server;
      ("off", 0, ok, wall, 0, latencies)
    end
    else
      with_temp_dir (fun dir ->
        let config =
          {
            Durable.Manager.dir;
            fsync = { Durable.Wal.every_n; every_ms = 0. };
            snapshot_every = 0;
            cache_capacity = 2 * n;
          }
        in
        let manager, _recovery = Durable.Manager.start config in
        let server =
          Service.Server.create ~workers:1 ~cache_capacity:(2 * n)
            ~on_accept:(Durable.Manager.on_accept manager)
            ~on_complete:(fun ~spec ~requests ~ok ->
              Durable.Manager.on_complete manager ~spec ~requests ~ok)
            ()
        in
        let ok, _hits, wall, latencies = stream_requests server lines in
        Service.Server.stop server;
        let fsyncs = Durable.Manager.fsyncs manager in
        Durable.Manager.close manager;
        ("wal", every_n, ok, wall, fsyncs, latencies))
  in
  (* Discarded warm-up pass: the first server to plan the corpus pays
     page-fault and allocator warm-up that would be misread as WAL cost
     (or savings) for whichever mode happens to run first. *)
  ignore (run_mode (-1));
  let rows =
    List.map
      (fun every_n ->
        (* Repetitions pool their latency samples and sum wall time. *)
        let runs = List.init bench_reps (fun _ -> run_mode every_n) in
        let mode, every_n, _, _, _, _ = List.hd runs in
        let ok, wall, fsyncs, latencies =
          List.fold_left
            (fun (ok, wall, fsyncs, lats) (_, _, o, w, f, l) ->
              (ok + o, wall +. w, fsyncs + f, List.rev_append l lats))
            (0, 0., 0, []) runs
        in
        let requests = n * bench_reps in
        wal_results :=
          (mode, every_n, requests, wall, fsyncs, latencies) :: !wal_results;
        [
          mode; i2s every_n; i2s requests; i2s ok; i2s fsyncs;
          Printf.sprintf "%.4f" wall;
          Printf.sprintf "%.0f" (float_of_int requests /. wall);
          Printf.sprintf "%.2f" (percentile 50. latencies);
          Printf.sprintf "%.2f" (percentile 95. latencies);
          Printf.sprintf "%.2f" (percentile 99. latencies);
        ])
      [ -1; 1; 8; 64; 256 ]
  in
  print_string
    (Mdst.Report.table
       ~header:
         [
           "mode"; "fsync n"; "requests"; "ok"; "fsyncs"; "wall s"; "req/s";
           "p50 ms"; "p95 ms"; "p99 ms";
         ]
       ~rows);
  print_string
    "\n(each mode streams the same cold corpus through a fresh server; the\n\
    \ journal records two lines per request — accepted + completed — so\n\
    \ strict mode pays ~2 fsyncs per response)\n";
  (* Group commit (PR 10): the WAL alone, strict durability, concurrent
     committers — no planning cost in the way.  "serial" emulates the
     PR 5 discipline (append + fsync under one global lock, one fsync
     per record, which is what committing under the manager lock
     amounted to); "group" is the commit queue, where concurrent
     committers share the leader's fsync; "unsynced" bounds what the
     device allows with no durability at all.  When serial already runs
     at unsynced speed (tmpfs, battery-backed write cache) an fsync is
     nearly free and there is nothing for batching to win — the CI gate
     uses the unsynced row to detect that and stand down. *)
  section
    "Group commit (PR 10): strict WAL records/s, serialized fsync-per-record \
     vs shared leader fsync";
  let total_records = 1200 * bench_reps in
  let record =
    Durable.Record.Accepted
      {
        Service.Request.ratio = pcr16;
        demand = 8;
        algorithm = Mixtree.Algorithm.MM;
        scheduler = Mdst.Scheduler.srs;
        mixers = Some 3;
        storage_limit = None;
      }
  in
  let run_gc mode threads =
    with_temp_dir (fun dir ->
        let fsync =
          match mode with
          | `Unsynced -> { Durable.Wal.every_n = 0; every_ms = 0. }
          | `Serial | `Group -> Durable.Wal.strict
        in
        let wal = Durable.Wal.open_segment ~dir ~start_seq:1 ~fsync in
        let append_lock = Mutex.create () in
        let serial_lock = Mutex.create () in
        let per_thread = total_records / threads in
        let[@dmflint.allow
             "blocking-under-lock: the serial baseline exists to measure \
              exactly this anti-pattern — one fsync per record under a \
              global lock, the PR 5 discipline the commit queue replaced; \
              the lock is bench-local and guards nothing else"] worker () =
          for _ = 1 to per_thread do
            match mode with
            | `Serial ->
              (* One fsync per record, fully serialized: PR 5. *)
              Mutex.lock serial_lock;
              ignore (Durable.Wal.append wal record);
              Durable.Wal.sync wal;
              Mutex.unlock serial_lock
            | `Group ->
              let seq =
                Mutex.lock append_lock;
                let seq = Durable.Wal.append wal record in
                Mutex.unlock append_lock;
                seq
              in
              Durable.Wal.commit wal ~upto:seq
            | `Unsynced ->
              Mutex.lock append_lock;
              ignore (Durable.Wal.append wal record);
              Mutex.unlock append_lock
          done
        in
        let t0 = Unix.gettimeofday () in
        let ths = List.init threads (fun _ -> Thread.create worker ()) in
        List.iter Thread.join ths;
        let wall = Unix.gettimeofday () -. t0 in
        let fsyncs = Durable.Wal.fsyncs wal in
        let gcs = Durable.Wal.group_commits wal in
        let avg_batch = Durable.Wal.avg_batch_size wal in
        Durable.Wal.close wal;
        let records = per_thread * threads in
        let name =
          match mode with
          | `Serial -> "serial"
          | `Group -> "group"
          | `Unsynced -> "unsynced"
        in
        group_commit_results :=
          (name, threads, records, wall, fsyncs, gcs, avg_batch)
          :: !group_commit_results;
        [
          name; i2s threads; i2s records; i2s fsyncs; i2s gcs;
          Printf.sprintf "%.2f" avg_batch;
          Printf.sprintf "%.4f" wall;
          Printf.sprintf "%.0f" (float_of_int records /. wall);
        ])
  in
  let gc_rows =
    List.map
      (fun (mode, threads) -> run_gc mode threads)
      [
        (`Unsynced, 4);
        (`Serial, 1); (`Serial, 4);
        (`Group, 1); (`Group, 4); (`Group, 16);
      ]
  in
  print_string
    (Mdst.Report.table
       ~header:
         [
           "mode"; "threads"; "records"; "fsyncs"; "group commits";
           "avg batch"; "wall s"; "rec/s";
         ]
       ~rows:gc_rows);
  print_string
    "\n(every row journals the same records with strict durability except\n\
    \ unsynced; serial holds a global lock across append + fsync, group\n\
    \ lets concurrent committers ride one leader fsync — compare the\n\
    \ 4-thread rows for the batching win at equal offered concurrency)\n"

(* ------------------------------------------------------------------ *)
(* Plan store: table3-style sweep, cold vs warm (PR 9)                 *)

(* The same workload as table3 — the subsampled corpus under the
   streamed algorithms — but routed through the content-addressed plan
   store: the cold pass plans every spec and persists it, the warm pass
   answers every spec from disk.  The gap between the two passes is the
   planning work a restarted or sibling daemon skips when it shares the
   store directory. *)

let store () =
  section
    "Plan store (PR 9): table3-style corpus sweep, cold (plan + persist) vs \
     warm (decoded from the content-addressed store)";
  let specs =
    List.concat_map
      (fun ratio ->
        List.concat_map
          (fun algorithm ->
            List.map
              (fun scheduler ->
                {
                  Service.Request.ratio;
                  demand = 32;
                  algorithm;
                  scheduler;
                  mixers = None;
                  storage_limit = None;
                })
              [ Mdst.Scheduler.mms; Mdst.Scheduler.srs ])
          [ Mixtree.Algorithm.MM; Mixtree.Algorithm.RMA ])
      (corpus ~every:8)
  in
  let n = List.length specs in
  let with_temp_dir f =
    let dir = Filename.temp_dir "dmfd-bench-store" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  with_temp_dir (fun dir ->
      let ps = Durable.Plan_store.open_store ~dir () in
      (* Both passes run the daemon's store-first protocol: a hit is
         served from disk, a miss is planned and written through. *)
      let run_pass () =
        let t0 = Unix.gettimeofday () in
        List.iter
          (fun spec ->
            match Durable.Plan_store.find ps spec with
            | Some _ -> ()
            | None -> Durable.Plan_store.add ps spec (Service.Prep.run spec))
          specs;
        Unix.gettimeofday () -. t0
      in
      let cold_s = run_pass () in
      let after_cold = Durable.Plan_store.stats ps in
      let warm_s = run_pass () in
      let s = Durable.Plan_store.stats ps in
      let warm_hits = s.Durable.Plan_store.hits - after_cold.Durable.Plan_store.hits in
      plan_store_result :=
        Some
          ( n, cold_s, warm_s, warm_hits, s.Durable.Plan_store.writes,
            s.Durable.Plan_store.entries, s.Durable.Plan_store.bytes );
      let row phase wall hits =
        [
          phase; i2s n; i2s hits;
          Printf.sprintf "%.4f" wall;
          Printf.sprintf "%.0f" (float_of_int n /. wall);
        ]
      in
      print_string
        (Mdst.Report.table
           ~header:[ "pass"; "specs"; "store hits"; "wall s"; "specs/s" ]
           ~rows:
             [
               row "cold" cold_s after_cold.Durable.Plan_store.hits;
               row "warm" warm_s warm_hits;
             ]);
      Printf.printf
        "\n(warm/cold speedup %.1fx over %d entries, %d bytes on disk; the\n\
        \ warm pass decodes and re-validates every plan instead of\n\
        \ re-planning it)\n"
        (if warm_s > 0. then cold_s /. warm_s else 0.)
        s.Durable.Plan_store.entries s.Durable.Plan_store.bytes)

(* ------------------------------------------------------------------ *)
(* Cluster throughput: dmfrouter over N dmfd shards (PR 7)             *)

(* Spawns real dmfd/dmfrouter processes, so it must run before any
   experiment that creates worker domains: OCaml 5 forbids Unix.fork
   once a domain has ever been spawned.  The experiment registry lists
   it first for exactly that reason.

   Topology per row: C pipelined client connections stream the corpus
   (every key duplicated on every connection) against either one daemon
   directly or a dmfrouter over N single-worker shards.  Cold replays
   plan, warm replays hit the plan cache.  The exactness invariant —
   the whole cluster builds exactly one plan per distinct cache key,
   i.e. sharding by coalesce key loses no coalescing or caching — is
   asserted on the merged stats after both phases.  Throughput scales
   with physical cores; the recorded "cores" field says what this box
   had. *)

let cluster () =
  section
    "Cluster (PR 7): req/s vs shard count through dmfrouter, cold and warm, \
     8 pipelined client connections (single-worker shards)";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bindir = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin" in
  let dmfd = Filename.concat bindir "dmfd.exe" in
  let dmfrouter = Filename.concat bindir "dmfrouter.exe" in
  if not (Sys.file_exists dmfd && Sys.file_exists dmfrouter) then
    Printf.printf "skipped: %s not built alongside the bench executable\n"
      bindir
  else begin
    let lines =
      List.mapi
        (fun i ratio ->
          Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 32, "id": %d}|}
            (Dmf.Ratio.to_string ratio) i)
        (corpus ~every:131)
    in
    let n = List.length lines in
    let conns = 8 in
    (* Launch one process, reading its PORT=<port> announcement from
       stdout; stderr logs go to /dev/null.  The announcement doubles
       as the readiness barrier: it is printed after listen(2). *)
    let spawn prog argv =
      let out_read, out_write = Unix.pipe () in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      Analysis.Runtime.assert_no_domains_spawned ();
      let pid = Unix.create_process prog argv devnull out_write devnull in
      Unix.close out_write;
      Unix.close devnull;
      let ic = Unix.in_channel_of_descr out_read in
      let port =
        match input_line ic with
        | line when String.length line > 5 && String.sub line 0 5 = "PORT=" ->
          int_of_string (String.sub line 5 (String.length line - 5))
        | line -> failwith (prog ^ ": expected PORT=<n>, got " ^ line)
        | exception End_of_file -> failwith (prog ^ " died before announcing its port")
      in
      (pid, ic, port)
    in
    let reap (pid, ic, _port) =
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      close_in_noerr ic
    in
    (* One phase: every connection pipelines the whole corpus and reads
       its responses back; per-request latency is matched by echoed id
       within the connection. *)
    let stream_phase port =
      let t0 = Unix.gettimeofday () in
      let per_conn = Array.make conns (0, 0, []) in
      let threads =
        List.init conns (fun ci ->
            Thread.create
              (fun () ->
                let fd = Service.Net.connect ~host:"127.0.0.1" ~port in
                let oc = Unix.out_channel_of_descr fd in
                let ic = Unix.in_channel_of_descr fd in
                let sent = Array.make (max n 1) t0 in
                List.iteri
                  (fun i line ->
                    output_string oc line;
                    output_char oc '\n';
                    sent.(i) <- Unix.gettimeofday ())
                  lines;
                flush oc;
                let ok = ref 0 and hits = ref 0 in
                let latencies = ref [] in
                for _ = 1 to n do
                  let line = input_line ic in
                  let now = Unix.gettimeofday () in
                  match Service.Jsonl.of_string line with
                  | Error _ -> ()
                  | Ok json ->
                    let flag key =
                      Option.bind (Service.Jsonl.member key json)
                        Service.Jsonl.to_bool
                      = Some true
                    in
                    if flag "ok" then incr ok;
                    if flag "cache_hit" then incr hits;
                    (match
                       Option.bind (Service.Jsonl.member "id" json)
                         Service.Jsonl.to_int
                     with
                    | Some id when id >= 0 && id < n ->
                      latencies :=
                        ((now -. sent.(id)) *. 1000.) :: !latencies
                    | Some _ | None -> ())
                done;
                (try Unix.close fd with Unix.Unix_error _ -> ());
                per_conn.(ci) <- (!ok, !hits, !latencies))
              ())
      in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let ok, hits, latencies =
        Array.fold_left
          (fun (ok, hits, lats) (o, h, l) ->
            (ok + o, hits + h, List.rev_append l lats))
          (0, 0, []) per_conn
      in
      (ok, hits, wall, latencies)
    in
    (* (served, plans_built, coalesced, cache hits) from the endpoint's
       stats — the single daemon's own, or the router's cluster-wide
       merge (counters summed over shards). *)
    let fetch_counters port =
      let fd = Service.Net.connect ~host:"127.0.0.1" ~port in
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      output_string oc "{\"req\":\"stats\"}\n";
      flush oc;
      let counters =
        match Service.Jsonl.of_string (input_line ic) with
        | Ok json ->
          let geti name obj =
            Option.value ~default:0
              (Option.bind (Service.Jsonl.member name obj) Service.Jsonl.to_int)
          in
          ( geti "served" json,
            geti "plans_built" json,
            geti "coalesced" json,
            match Service.Jsonl.member "cache" json with
            | Some cache -> geti "hits" cache
            | None -> 0 )
        | Error _ -> (0, 0, 0, 0)
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      counters
    in
    let run_config label nshards =
      let shards =
        List.init nshards (fun _ ->
            spawn dmfd
              [| dmfd; "--port"; "0"; "-w"; "1"; "--cache-capacity"; i2s (2 * n) |])
      in
      let router =
        if label = "direct" then None
        else
          Some
            (spawn dmfrouter
               (Array.of_list
                  ([ dmfrouter; "--port"; "0" ]
                  @ List.concat_map
                      (fun (_, _, port) ->
                        [ "--shard"; Printf.sprintf "127.0.0.1:%d" port ])
                      shards)))
      in
      let front =
        match router with
        | Some (_, _, port) -> port
        | None -> (match shards with (_, _, port) :: _ -> port | [] -> 0)
      in
      let cold = stream_phase front in
      let warm = stream_phase front in
      let served, plans, coalesced, hits = fetch_counters front in
      (* The accounting identity that keeps the numbers honest: every
         request the cluster served was exactly one of freshly planned,
         merged into a concurrent batch (demand-summing coalescing), or
         answered from the plan cache — summed over shards with nothing
         lost and nothing double-counted.  (The split between the three
         is scheduling-dependent; the sum is not.) *)
      if served <> plans + coalesced + hits then cluster_plans_exact := false;
      Option.iter reap router;
      List.iter reap shards;
      let row phase (ok, hits, wall, latencies) =
        let requests = n * conns in
        cluster_results :=
          (label, nshards, phase, requests, wall, ok, latencies)
          :: !cluster_results;
        [
          label; i2s nshards; phase; i2s requests; i2s ok; i2s hits;
          i2s plans;
          Printf.sprintf "%.4f" wall;
          Printf.sprintf "%.0f" (float_of_int requests /. wall);
          Printf.sprintf "%.2f" (percentile 50. latencies);
          Printf.sprintf "%.2f" (percentile 95. latencies);
          Printf.sprintf "%.2f" (percentile 99. latencies);
        ]
      in
      [ row "cold" cold; row "warm" warm ]
    in
    let rows =
      List.concat
        [
          run_config "direct" 1;
          run_config "router" 1;
          run_config "router" 2;
          run_config "router" 4;
        ]
    in
    print_string
      (Mdst.Report.table
         ~header:
           [
             "config"; "shards"; "cache"; "requests"; "ok"; "hits"; "plans";
             "wall s"; "req/s"; "p50 ms"; "p95 ms"; "p99 ms";
           ]
         ~rows);
    Printf.printf
      "\n(plans = cluster-wide plans_built after both phases: %d distinct\n\
      \ keys over %d connections; concurrent duplicates either coalesce\n\
      \ into demand-summed batches or hit the plan cache, and the merged\n\
      \ accounting identity served = plans + coalesced + hits held for\n\
      \ every configuration: %s.  Sharding is by coalesce key, so equal\n\
      \ keys always meet in one daemon.  Shard processes are\n\
      \ single-worker; req/s scaling needs cores — this box has %d.)\n"
      n conns
      (if !cluster_plans_exact then "exact" else "VIOLATED")
      (Domain.recommended_domain_count ())
  end

(* ------------------------------------------------------------------ *)
(* Replication: follower backlog catch-up and live-tail lag (PR 10)    *)

(* An in-process primary (manager + feed on an ephemeral port) and a
   real follower: the backlog phase measures how fast a fresh follower
   streams and applies a journal it has never seen; the live phase
   journals while the follower is connected and samples how far it
   trails.  Specs cycle over a handful of distinct ratios so the
   follower's cache-priming replan cost is paid once per ratio and
   streaming dominates — this measures the pipe, not the planner. *)

let replication () =
  section
    "Replication (PR 10): follower backlog catch-up rate and live-tail lag";
  let with_temp_dir f =
    let dir = Filename.temp_dir "dmfd-bench-repl" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter
          (fun name ->
            try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
          (try Sys.readdir dir with Sys_error _ -> [||]);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () -> f dir)
  in
  let specs =
    List.filteri
      (fun i _ -> i < 4)
      (List.map
         (fun ratio ->
           {
             Service.Request.ratio;
             demand = 8;
             algorithm = Mixtree.Algorithm.MM;
             scheduler = Mdst.Scheduler.srs;
             mixers = Some 3;
             storage_limit = None;
           })
         (corpus ~every:40))
  in
  let nspecs = List.length specs in
  let spec i = List.nth specs (i mod nspecs) in
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun follower_dir ->
          (* The primary journals with a relaxed batch policy: this
             experiment measures the feed and the follower, not the
             primary's own fsyncs. *)
          let manager, _ =
            Durable.Manager.start
              {
                Durable.Manager.dir = primary_dir;
                fsync = { Durable.Wal.every_n = 64; every_ms = 0. };
                snapshot_every = 0;
                cache_capacity = 64;
              }
          in
          let feed =
            Replication.Feed.create
              {
                Replication.Feed.dir = primary_dir;
                last_seq = (fun () -> Durable.Manager.last_seq manager);
                fetch_plan = (fun _ -> None);
              }
          in
          Durable.Manager.subscribe_journal manager
            (Replication.Feed.notify feed);
          let m = Mutex.create () in
          let cv = Condition.create () in
          let port = ref 0 in
          ignore
            (Thread.create
               (fun () ->
                 try
                   Replication.Feed.serve_tcp feed
                     ~on_listen:(fun bound ->
                       Mutex.lock m;
                       port := bound;
                       Condition.signal cv;
                       Mutex.unlock m)
                     ~host:"127.0.0.1" ~port:0
                 with _ -> ())
               ());
          Mutex.lock m;
          while !port = 0 do
            Condition.wait cv m
          done;
          let port = !port in
          Mutex.unlock m;
          let journal s =
            Durable.Manager.on_accept manager s;
            Durable.Manager.on_complete manager ~spec:s ~requests:1 ~ok:true
          in
          let await what pred =
            let deadline = Unix.gettimeofday () +. 120. in
            while (not (pred ())) && Unix.gettimeofday () < deadline do
              Thread.delay 0.001
            done;
            if not (pred ()) then failwith ("replication bench: " ^ what)
          in
          (* Backlog: the journal exists before the follower does. *)
          let backlog_specs = 400 * bench_reps in
          for i = 1 to backlog_specs do
            journal (spec i)
          done;
          let backlog_records = 2 * backlog_specs in
          let follower =
            Replication.Follower.create
              {
                Replication.Follower.host = "127.0.0.1";
                port;
                dir = follower_dir;
                cache_capacity = 64;
                queue_capacity = 64;
                workers = Some 1;
                fsync = { Durable.Wal.every_n = 0; every_ms = 0. };
                snapshot_every = 0;
                store = None;
                fetch_plans = false;
                reconnect_ms = 50.;
              }
          in
          let t0 = Unix.gettimeofday () in
          Replication.Follower.start follower;
          await "backlog catch-up timed out" (fun () ->
              Replication.Follower.last_applied follower >= backlog_records);
          let backlog_s = Unix.gettimeofday () -. t0 in
          (* Live tail: journal with the follower connected, sampling
             how many records it trails the primary by. *)
          let live_specs = 400 * bench_reps in
          let max_lag = ref 0 in
          let t1 = Unix.gettimeofday () in
          for i = 1 to live_specs do
            journal (spec i);
            let lag =
              Durable.Manager.last_seq manager
              - Replication.Follower.last_applied follower
            in
            if lag > !max_lag then max_lag := lag
          done;
          let live_records = 2 * live_specs in
          await "live tail catch-up timed out" (fun () ->
              Replication.Follower.last_applied follower
              >= backlog_records + live_records);
          let live_s = Unix.gettimeofday () -. t1 in
          let max_lag_ms =
            match
              Option.bind
                (Service.Jsonl.member "lag_ms"
                   (Replication.Follower.repl_json follower))
                Service.Jsonl.to_float
            with
            | Some v -> Float.max 0. v
            | None -> 0.
          in
          replication_result :=
            Some
              ( backlog_records, backlog_s, live_records, live_s, !max_lag,
                max_lag_ms );
          print_string
            (Mdst.Report.table
               ~header:[ "phase"; "records"; "wall s"; "rec/s"; "max lag" ]
               ~rows:
                 [
                   [
                     "backlog"; i2s backlog_records;
                     Printf.sprintf "%.4f" backlog_s;
                     Printf.sprintf "%.0f"
                       (float_of_int backlog_records /. backlog_s);
                     "-";
                   ];
                   [
                     "live"; i2s live_records;
                     Printf.sprintf "%.4f" live_s;
                     Printf.sprintf "%.0f"
                       (float_of_int live_records /. live_s);
                     i2s !max_lag;
                   ];
                 ]);
          Printf.printf
            "\n(backlog: a fresh follower streams a journal it has never\n\
            \ seen; live: the primary journals while the follower applies —\n\
            \ max lag is the worst records-behind sampled after each\n\
            \ journaled spec; residual heartbeat lag %.3f ms)\n"
            max_lag_ms;
          Replication.Follower.close follower;
          Replication.Feed.stop feed;
          Durable.Manager.close manager))

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per experiment workload    *)

let speed () =
  section "Bechamel micro-benchmarks (ns per run, OLS on monotonic clock)";
  let open Bechamel in
  let forest demand () =
    ignore
      (Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand)
  in
  let ex1 = (List.hd Bioproto.Protocols.table2).Bioproto.Protocols.ratio in
  let plan20 =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20
  in
  let schedule20 = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan:plan20 ~mixers:3 in
  (* Deep, wide plans (d = 6 and d = 8, hundreds of nodes) exercise the
     event-driven schedulers where the old per-cycle rescan was O(n·Tc);
     the retained naive reference runs next to them so the speedup is
     measured, not assumed. *)
  let plan_d6 =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM
      ~ratio:(Bioproto.Protocols.pcr ~d:6) ~demand:256
  in
  let plan_d8 =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM
      ~ratio:(Dmf.Ratio.of_string "128:123:5") ~demand:512
  in
  let layout = Chip.Layout.pcr_fig5 () in
  let tests =
    Test.make_grouped ~name:"dmfstream"
      [
        Test.make ~name:"fig1: forest D=20" (Staged.stage (forest 20));
        Test.make ~name:"sched d=6 n=280: MMS event-driven"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"sched d=6 n=280: MMS naive rescan"
          (Staged.stage (fun () ->
               ignore (Mdst.Naive.mms ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"sched d=6 n=280: SRS event-driven"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"sched d=6 n=280: SRS naive rescan"
          (Staged.stage (fun () ->
               ignore (Mdst.Naive.srs ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"sched d=8 n=510: MMS event-driven"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan:plan_d8 ~mixers:4)));
        Test.make ~name:"sched d=8 n=510: MMS naive rescan"
          (Staged.stage (fun () ->
               ignore (Mdst.Naive.mms ~plan:plan_d8 ~mixers:4)));
        Test.make ~name:"sched d=8 n=510: SRS event-driven"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan:plan_d8 ~mixers:4)));
        Test.make ~name:"sched d=8 n=510: SRS naive rescan"
          (Staged.stage (fun () ->
               ignore (Mdst.Naive.srs ~plan:plan_d8 ~mixers:4)));
        Test.make ~name:"sched d=6 n=280: OMS event-driven"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.oms ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"sched d=6 n=280: OMS naive rescan"
          (Staged.stage (fun () ->
               ignore (Mdst.Naive.oms ~plan:plan_d6 ~mixers:4)));
        Test.make ~name:"fig3: SRS schedule D=20"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan:plan20 ~mixers:3)));
        Test.make ~name:"fig3: MMS schedule D=20"
          (Staged.stage (fun () ->
               ignore (Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan:plan20 ~mixers:3)));
        Test.make ~name:"fig5: actuation accounting"
          (Staged.stage (fun () ->
               ignore
                 (Chip.Actuation.account ~layout ~plan:plan20
                    ~schedule:schedule20)));
        Test.make ~name:"table2: Ex.1 MM+SRS evaluation"
          (Staged.stage (fun () ->
               ignore
                 (Mdst.Compare.evaluate ~ratio:ex1 ~demand:32
                    (Mdst.Compare.Streamed
                       (Mixtree.Algorithm.MM, Mdst.Scheduler.srs)))));
        Test.make ~name:"table3: one corpus ratio, all schemes"
          (Staged.stage (fun () ->
               ignore
                 (Mdst.Compare.average_improvements
                    ~ratios:[ Dmf.Ratio.of_string "9:5:7:11" ] ~demand:32
                    Mixtree.Algorithm.MM)));
        Test.make ~name:"fig6: one (ratio, D) cell"
          (Staged.stage (fun () ->
               ignore
                 (Mdst.Compare.evaluate
                    ~ratio:(Dmf.Ratio.of_string "9:5:7:11") ~demand:16
                    (Mdst.Compare.Repeated Mixtree.Algorithm.MM))));
        Test.make ~name:"fig7: MMS across mixer counts"
          (Staged.stage (fun () ->
               List.iter
                 (fun mixers -> ignore (Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan:plan20 ~mixers))
                 [ 1; 3; 5; 7; 9; 11; 13; 15 ]));
        Test.make ~name:"table4: streaming run q'=3 D=32"
          (Staged.stage (fun () ->
               ignore
                 (Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM
                    ~ratio:pcr16 ~demand:32 ~mixers:3 ~storage_limit:3
                    ~scheduler:Mdst.Scheduler.srs ())));
        Test.make ~name:"simulator: PCR D=20 full run"
          (Staged.stage (fun () ->
               ignore
                 (Sim.Executor.run ~layout ~plan:plan20 ~schedule:schedule20)));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (ns :: _) ->
          micro_ns := (name, ns) :: !micro_ns;
          Printf.sprintf "%.0f" ns
        | Some [] | None -> "n/a"
      in
      rows := [ name; ns ] :: !rows)
    results;
  print_string
    (Mdst.Report.table ~header:[ "workload"; "ns/run" ]
       ~rows:(List.sort compare !rows))

(* ------------------------------------------------------------------ *)
(* Scheduler core: every registered policy, with instrumentation hooks *)

let instrument () =
  section "Scheduler core: registered policies under instrumentation";
  let plans =
    [
      ( "pcr16 D=20 Mc=3", 3,
        Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16
          ~demand:20 );
      ( "pcr d=6 D=64 Mc=4", 4,
        Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM
          ~ratio:(Bioproto.Protocols.pcr ~d:6) ~demand:64 );
    ]
  in
  let rows =
    List.concat_map
      (fun (plan_name, mixers, plan) ->
        List.map
          (fun s ->
            let hooks, counters = Mdst.Instr.collector ~mixers in
            let schedule =
              Mdst.Scheduler.schedule ~instr:hooks s ~plan ~mixers
            in
            let c = counters () in
            scheduler_core_results :=
              (Mdst.Scheduler.name s, plan_name, c)
              :: !scheduler_core_results;
            [
              plan_name;
              Mdst.Scheduler.name s;
              i2s (Mdst.Schedule.completion_time schedule);
              i2s (Mdst.Storage.units ~plan schedule);
              i2s c.Mdst.Instr.fired;
              i2s c.Mdst.Instr.stores;
              i2s c.Mdst.Instr.peak_ready;
              Printf.sprintf "%.2f" c.Mdst.Instr.avg_storage;
              Printf.sprintf "%.2f" c.Mdst.Instr.mixer_occupancy;
            ])
          (Mdst.Scheduler.all ()))
      plans
  in
  print_string
    (Mdst.Report.table
       ~header:
         [
           "plan"; "policy"; "Tc"; "q"; "fired"; "stores"; "peak rdy";
           "avg q"; "occupancy";
         ]
       ~rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    (* cluster first: it forks daemon processes, which OCaml 5 forbids
       after any other experiment has spawned worker domains. *)
    ("cluster", cluster);
    ("replication", replication);
    ("fig1", fig1); ("fig3", fig3); ("fig5", fig5); ("table2", table2);
    ("table3", table3); ("fig6", fig6); ("fig7", fig7); ("table4", table4);
    ("ablation", ablation); ("dilution", dilution); ("robust", robust);
    ("assay", assay); ("pins", pins); ("routing", routing);
    ("recovery", recovery); ("wash", wash); ("pareto", pareto);
    ("scaling", scaling); ("instrument", instrument); ("service", service);
    ("wal", wal); ("store", store); ("speed", speed);
  ]

(* Tee fd 1 into [path]: everything the experiments print reaches both
   the terminal and the local transcript file.  Returns the restore
   function — putting the real stdout back closes the pipe's last write
   end, which ends the copier thread. *)
let start_tee path =
  let file = Unix.openfile path [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pipe_read, pipe_write = Unix.pipe () in
  let real_stdout = Unix.dup Unix.stdout in
  Unix.dup2 pipe_write Unix.stdout;
  Unix.close pipe_write;
  let copier =
    Thread.create
      (fun () ->
        let buf = Bytes.create 65536 in
        let rec drain () =
          let k = Unix.read pipe_read buf 0 (Bytes.length buf) in
          if k > 0 then begin
            let rec write_all fd off =
              if off < k then write_all fd (off + Unix.write fd buf off (k - off))
            in
            write_all real_stdout 0;
            write_all file 0;
            drain ()
          end
        in
        (try drain () with Unix.Unix_error _ -> ());
        Unix.close pipe_read)
      ()
  in
  fun () ->
    flush Stdlib.stdout;
    Unix.dup2 real_stdout Unix.stdout;
    Thread.join copier;
    Unix.close real_stdout;
    Unix.close file

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst experiments
  in
  (* Validate the selection before redirecting stdout. *)
  List.iter
    (fun name ->
      if not (List.mem_assoc name experiments) then begin
        Printf.eprintf "unknown experiment %s (available: %s)\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1
      end)
    requested;
  let restore = start_tee "bench_output.txt" in
  Fun.protect ~finally:restore (fun () ->
      List.iter
        (fun name ->
          let run = List.assoc name experiments in
          let t0 = Unix.gettimeofday () in
          run ();
          wall_times := (name, Unix.gettimeofday () -. t0) :: !wall_times)
        requested;
      write_bench_json ())
