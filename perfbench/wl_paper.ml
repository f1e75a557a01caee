(* paper_eval: the paper's evaluation through the library's entry
   points, in a fresh process per round so that the library's memo
   tables start empty.  Figs 1-4 and 6-7, Tables 2 and 4, the Fig. 5
   actuation and placement, and Table 3 over all 6289 corpus ratios.
   Every plan and schedule passes the independent checkers; the values
   the paper prints and this reproduction matches are compared exactly.
   Time spent in the checkers is excluded from eval_s. *)

module C = Perfbench_core.Checks

let pcr16 = Bioproto.Protocols.pcr ~d:4

let check_s = ref 0.

let failures = ref []

let evaluations = ref 0

let schedules = ref 0

let fail msg = failures := msg :: !failures

let expect cond fmt = Printf.ksprintf (fun msg -> if not cond then fail msg) fmt

let check what f =
  let t0 = Clock.now () in
  (match f () with Ok () -> () | Error e -> fail (what ^ ": " ^ e));
  check_s := !check_s +. (Clock.now () -. t0)

let tree algorithm ratio =
  ignore
    (Span.record "mixtree.build" (fun () -> Mixtree.Algorithm.build algorithm ratio))

let forest ?(repeated = false) algorithm ratio demand =
  let plan =
    Span.record "core.forest" (fun () ->
        if repeated then Mdst.Forest.repeated ~algorithm ~ratio ~demand
        else Mdst.Forest.build ~algorithm ~ratio ~demand)
  in
  if !Span.enabled then
    Span.add "core.forest_nodes" (float_of_int (Mdst.Plan.n_nodes plan));
  let view = C.plan_of plan in
  check "plan" (fun () -> C.check_plan view (C.claims_of plan));
  (plan, view)

let schedule scheduler (plan, view) mixers =
  let s =
    Span.record "core.schedule" (fun () ->
        Mdst.Scheduler.schedule scheduler ~plan ~mixers)
  in
  let q = Span.record "core.storage" (fun () -> Mdst.Storage.units ~plan s) in
  incr schedules;
  check "schedule" (fun () -> C.check_schedule view (C.schedule_of plan s) ~q);
  (s, q)

type m = { tc : int; q : int; i : int }

let streamed algorithm scheduler ratio ~demand =
  let mixers = Mdst.Engine.default_mixers ratio in
  tree algorithm ratio;
  let ((plan, _) as p) = forest algorithm ratio demand in
  let s, q = schedule scheduler p mixers in
  incr evaluations;
  { tc = Mdst.Schedule.completion_time s; q; i = Mdst.Plan.input_total plan }

let repeated ?mixers algorithm ratio ~demand =
  let mixers =
    match mixers with Some m -> m | None -> Mdst.Engine.default_mixers ratio
  in
  let m =
    Span.record "core.baseline" (fun () ->
        Mdst.Baseline.metrics ~algorithm ~ratio ~demand ~mixers)
  in
  incr evaluations;
  check "baseline" (fun () ->
      let passes = C.ceil_div demand 2 in
      if m.Mdst.Metrics.passes <> passes then Error "passes <> ceil(D/2)"
      else if m.Mdst.Metrics.input_total <> (2 * passes) + m.Mdst.Metrics.waste
      then Error "I <> 2 passes + W"
      else Ok ());
  { tc = m.Mdst.Metrics.tc; q = m.Mdst.Metrics.q; i = m.Mdst.Metrics.input_total }

(* The first answer a cold process gives: the Fig. 3-4 schedule. *)
let first_answer () =
  let r =
    Mdst.Engine.prepare
      {
        Mdst.Engine.ratio = pcr16;
        demand = 20;
        algorithm = Mixtree.Algorithm.MM;
        scheduler = Mdst.Scheduler.srs;
        mixers = Some 3;
      }
  in
  let m = r.Mdst.Engine.metrics in
  expect (m.Mdst.Metrics.tc = 11 && m.Mdst.Metrics.q = 5)
    "Fig. 3-4: SRS Tc = %d, q = %d (paper: 11, 5)" m.Mdst.Metrics.tc m.Mdst.Metrics.q;
  check "Fig. 3-4" (fun () ->
      let view = C.plan_of r.Mdst.Engine.plan in
      Result.bind
        (C.check_plan view (C.claims_of r.Mdst.Engine.plan))
        (fun () ->
          C.check_schedule view
            (C.schedule_of r.Mdst.Engine.plan r.Mdst.Engine.schedule)
            ~q:m.Mdst.Metrics.q))

let fig1 () =
  List.iter
    (fun (demand, trees, tms, w, i, inputs) ->
      let plan, _ = forest Mixtree.Algorithm.MM pcr16 demand in
      expect
        (Mdst.Plan.trees plan = trees && Mdst.Plan.tms plan = tms
        && Mdst.Plan.waste plan = w && Mdst.Plan.input_total plan = i
        && Mdst.Plan.input_vector plan = inputs)
        "Fig. 1-2, D = %d: |F| %d Tms %d W %d I %d differ from the paper" demand
        (Mdst.Plan.trees plan) (Mdst.Plan.tms plan) (Mdst.Plan.waste plan)
        (Mdst.Plan.input_total plan))
    [
      (16, 8, 19, 0, 16, [| 2; 1; 1; 1; 1; 1; 9 |]);
      (20, 10, 27, 5, 25, [| 3; 2; 2; 2; 2; 2; 12 |]);
    ];
  let p = forest Mixtree.Algorithm.MM pcr16 20 in
  let srs, q = schedule Mdst.Scheduler.srs p 3 in
  expect
    (Mdst.Schedule.completion_time srs = 11 && q = 5)
    "Fig. 3-4: SRS Tc = %d, q = %d (paper: 11, 5)"
    (Mdst.Schedule.completion_time srs) q;
  ignore (schedule Mdst.Scheduler.mms p 3)

(* Table 2 values this reproduction matches: the RMM row (Tc, I) and
   the I column of MM+MMS / MM+SRS. *)
let table2_paper =
  [ ("ex1", (272, 41)); ("ex2", (144, 35)); ("ex3", (432, 45)); ("ex4", (208, 37));
    ("ex5", (304, 40)) ]

let table2 () =
  List.iter
    (fun (p : Bioproto.Protocols.t) ->
      let ratio = p.Bioproto.Protocols.ratio in
      let rows =
        List.concat_map
          (fun algorithm ->
            [
              repeated algorithm ratio ~demand:32;
              streamed algorithm Mdst.Scheduler.mms ratio ~demand:32;
              streamed algorithm Mdst.Scheduler.srs ratio ~demand:32;
            ])
          Mixtree.Algorithm.[ MM; RMA; MTCS ]
      in
      match (List.assoc_opt p.Bioproto.Protocols.id table2_paper, rows) with
      | Some (rmm_i, mm_i), rmm :: mms :: srs :: _ ->
        expect (rmm.tc = 128 && rmm.i = rmm_i) "Table 2 %s RMM: Tc %d I %d (paper: 128, %d)"
          p.Bioproto.Protocols.id rmm.tc rmm.i rmm_i;
        expect (mms.i = mm_i && srs.i = mm_i) "Table 2 %s MM-based I: %d / %d (paper: %d)"
          p.Bioproto.Protocols.id mms.i srs.i mm_i
      | _ -> fail ("Table 2: no paper row for " ^ p.Bioproto.Protocols.id))
    Bioproto.Protocols.table2

(* Table 4 rows of d = 4 with paper values: (q', D) -> (passes, Tc, W). *)
let table4_paper =
  [
    ((3, 2), (1, 4, 6)); ((3, 16), (2, 10, 7)); ((3, 20), (2, 11, 5));
    ((3, 32), (3, 17, 7)); ((5, 2), (1, 4, 6)); ((7, 2), (1, 4, 6));
    ((5, 16), (1, 7, 0)); ((7, 16), (1, 7, 0));
  ]

let table4 () =
  List.iter
    (fun d ->
      let ratio = Bioproto.Protocols.pcr ~d in
      List.iter
        (fun q' ->
          List.iter
            (fun demand ->
              let r =
                Span.record "core.streaming" (fun () ->
                    Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand
                      ~mixers:3 ~storage_limit:q' ~scheduler:Mdst.Scheduler.srs ())
              in
              incr evaluations;
              let passes = r.Mdst.Streaming.passes in
              schedules := !schedules + List.length passes;
              check "Table 4" (fun () ->
                  let ( let* ) = Result.bind in
                  let* () =
                    List.fold_left
                      (fun acc (p : Mdst.Streaming.pass) ->
                        let* () = acc in
                        let plan = p.Mdst.Streaming.plan in
                        let view = C.plan_of plan in
                        let* () = C.check_plan view (C.claims_of plan) in
                        let* () =
                          C.check_schedule view
                            (C.schedule_of plan p.Mdst.Streaming.schedule)
                            ~q:p.Mdst.Streaming.q
                        in
                        if r.Mdst.Streaming.within_limit && p.Mdst.Streaming.q > q'
                        then Error "a pass exceeds q'"
                        else Ok ())
                      (Ok ()) passes
                  in
                  let sum f = List.fold_left (fun a p -> a + f p) 0 passes in
                  if sum (fun p -> p.Mdst.Streaming.demand) <> demand then
                    Error "passes do not sum to D"
                  else if sum (fun p -> p.Mdst.Streaming.tc) <> r.Mdst.Streaming.total_cycles
                  then Error "total Tc is not the sum of the passes"
                  else if
                    sum (fun p -> p.Mdst.Streaming.waste) <> r.Mdst.Streaming.total_waste
                  then Error "total W is not the sum of the passes"
                  else Ok ());
              if d = 4 then
                match List.assoc_opt (q', demand) table4_paper with
                | Some (np, tc, w) ->
                  expect
                    (List.length passes = np && r.Mdst.Streaming.total_cycles = tc
                    && r.Mdst.Streaming.total_waste = w)
                    "Table 4 d=4 q'=%d D=%d: %d passes (%d,%d), paper %d (%d,%d)" q'
                    demand (List.length passes) r.Mdst.Streaming.total_cycles
                    r.Mdst.Streaming.total_waste np tc w
                | None -> ())
            [ 2; 16; 20; 32 ])
        [ 3; 5; 7 ])
    [ 4; 5; 6 ]

let fig5 ~seed =
  let layout = Chip.Layout.pcr_fig5 () in
  let ((plan, _) as p) = forest Mixtree.Algorithm.MM pcr16 20 in
  let schedule_ = fst (schedule Mdst.Scheduler.srs p 3) in
  let ((pass, _) as pp) = forest ~repeated:true Mixtree.Algorithm.MM pcr16 2 in
  let pass_schedule = fst (schedule Mdst.Scheduler.oms pp 3) in
  let account plan schedule =
    Span.record "chip.actuation" (fun () ->
        Chip.Actuation.account ~layout ~plan ~schedule)
  in
  let consistent plan (a : Chip.Actuation.t) =
    let moves = a.Chip.Actuation.movements in
    a.Chip.Actuation.total_electrodes
    = List.fold_left (fun acc m -> acc + m.Chip.Actuation.cost) 0 moves
    && a.Chip.Actuation.dispenses = Mdst.Plan.input_total plan
    && a.Chip.Actuation.emitted = Mdst.Plan.targets plan
    && a.Chip.Actuation.to_waste = Mdst.Plan.waste plan
  in
  match (account plan schedule_, account pass pass_schedule) with
  | Ok streamed, Ok one_pass -> (
    expect (consistent plan streamed && consistent pass one_pass)
      "Fig. 5: actuation accounting inconsistent with the plan";
    expect
      (Chip.Actuation.total streamed < 10 * Chip.Actuation.total one_pass)
      "Fig. 5: streamed forest %d electrodes, not below repeated %d"
      (Chip.Actuation.total streamed)
      (10 * Chip.Actuation.total one_pass);
    match
      Span.record "chip.placer" (fun () ->
          Chip.Placer.optimize_for ~iterations:1500 ~seed ~plan ~schedule:schedule_
            layout)
    with
    | Ok (_, before, after) ->
      expect
        (before = Chip.Actuation.total streamed && after > 0)
        "Fig. 5: placement %d -> %d electrodes" before after
    | Error e -> fail ("Fig. 5 placement: " ^ e))
  | Error e, _ | _, Error e -> fail ("Fig. 5 actuation: " ^ e)

(* Every 40th corpus ratio, as the repository's bench samples Fig. 6. *)
let fig6 corpus =
  let ratios = List.filteri (fun k _ -> k mod 40 = 0) (Array.to_list corpus) in
  let run demand =
    List.iter
      (fun ratio ->
        let open Mixtree.Algorithm in
        let rmm = repeated MM ratio ~demand in
        let rmtcs = repeated MTCS ratio ~demand in
        let mm = streamed MM Mdst.Scheduler.mms ratio ~demand in
        let mtcs = streamed MTCS Mdst.Scheduler.mms ratio ~demand in
        expect
          (demand < 2 || (mm.i <= rmm.i && mtcs.i <= rmtcs.i))
          "Fig. 6: a forest uses more inputs than its repeated baseline (D = %d)"
          demand)
      ratios
  in
  List.iter run [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  List.iter run [ 12; 16; 20; 24; 28; 32 ]

let fig7 () =
  let p = forest Mixtree.Algorithm.RMA pcr16 32 in
  for mixers = 1 to 15 do
    ignore (schedule Mdst.Scheduler.mms p mixers);
    ignore (schedule Mdst.Scheduler.srs p mixers)
  done

(* Table 3: for each corpus ratio and base algorithm, the repeated
   baseline and the forest under MMS and SRS at D = 32.  Each ratio is
   one request of the sweep: its latency is its evaluation time. *)
let table3 corpus ~seed =
  let algorithms = Mixtree.Algorithm.[ MM; RMA; MTCS ] in
  let n = Array.length corpus in
  let latency = Array.make n 0. in
  let gains = Array.make_matrix 3 6 0. in
  let sampled = ref [] in
  let pct base v = if base = 0 then 0. else float_of_int (base - v) /. float_of_int base *. 100. in
  Array.iteri
    (fun k ratio ->
      let t0 = Clock.now () and c0 = !check_s in
      let mixers = Mdst.Engine.default_mixers ratio in
      let rows =
        List.mapi
          (fun a algorithm ->
            tree algorithm ratio;
            let ((plan, _) as p) = forest algorithm ratio 32 in
            let s_mms, q_mms = schedule Mdst.Scheduler.mms p mixers in
            let s_srs, q_srs = schedule Mdst.Scheduler.srs p mixers in
            let r = repeated ~mixers algorithm ratio ~demand:32 in
            evaluations := !evaluations + 2;
            let i = Mdst.Plan.input_total plan in
            let mms = { tc = Mdst.Schedule.completion_time s_mms; q = q_mms; i } in
            let srs = { tc = Mdst.Schedule.completion_time s_srs; q = q_srs; i } in
            let g = gains.(a) in
            g.(0) <- g.(0) +. pct r.tc mms.tc;
            g.(1) <- g.(1) +. pct r.tc srs.tc;
            g.(2) <- g.(2) +. pct r.i mms.i;
            g.(3) <- g.(3) +. pct r.i srs.i;
            g.(4) <- g.(4) +. pct mms.q srs.q;
            g.(5) <- g.(5) +. pct mms.tc srs.tc;
            [ r; mms; srs ])
          algorithms
      in
      latency.(k) <- Clock.now () -. t0 -. (!check_s -. c0);
      if (k + seed) mod 97 = 0 then sampled := (ratio, List.concat rows) :: !sampled)
    corpus;
  let averages = Array.map (Array.map (fun g -> g /. float_of_int n)) gains in
  Array.iteri
    (fun a g ->
      expect
        (g.(0) > 0. && g.(1) > 0. && g.(2) > 0. && g.(3) > 0.)
        "Table 3 %s: forests do not beat the repeated baseline on average"
        (Mixtree.Algorithm.name (List.nth algorithms a)))
    averages;
  (* The sweep above calls the layers one by one; a sample must agree
     with the paper-level entry point Mdst.Compare.evaluate. *)
  check "Table 3 vs Mdst.Compare" (fun () ->
      let bad =
        List.filter
          (fun (ratio, rows) ->
            List.exists2
              (fun scheme r ->
                let m = Mdst.Compare.evaluate ~ratio ~demand:32 scheme in
                m.Mdst.Metrics.tc <> r.tc || m.Mdst.Metrics.q <> r.q
                || m.Mdst.Metrics.input_total <> r.i)
              Mdst.Compare.table2_schemes rows)
          !sampled
      in
      if bad = [] then Ok ()
      else Error (Printf.sprintf "%d sampled ratios disagree" (List.length bad)));
  (latency, averages)

(* One round, in this (fresh) process; prints one RESULT line. *)
let child ~probe ~seed =
  let module J = Perfbench_core.Json in
  first_answer ();
  let t_first = Clock.now () in
  let corpus = Array.of_list (Bioproto.Synth.corpus ~sum:32 ()) in
  expect (Array.length corpus = 6289) "corpus has %d ratios, want 6289"
    (Array.length corpus);
  let t_ready = Clock.now () in
  let fields =
    if probe then []
    else begin
      let c0 = !check_s in
      fig1 ();
      table2 ();
      table4 ();
      fig5 ~seed;
      fig7 ();
      fig6 corpus;
      let latency, averages = table3 corpus ~seed in
      let t_end = Clock.now () in
      let eval_s = t_end -. t_ready -. (!check_s -. c0) in
      let table3_s = Array.fold_left ( +. ) 0. latency in
      let gc = Gc.quick_stat () in
      let layer name = (name, J.Num (Span.ms name)) in
      [
        ("eval_s", J.Num eval_s);
        ("ratios", J.Num (float_of_int (Array.length latency)));
        ("table3_s", J.Num table3_s);
        ("lat_p50_ms", J.Num (1000. *. Stat.quantile 0.5 latency));
        ("lat_p95_ms", J.Num (1000. *. Stat.quantile 0.95 latency));
        ("check_s", J.Num (!check_s -. c0));
        ("evaluations", J.Num (float_of_int !evaluations));
        ("schedules", J.Num (float_of_int !schedules));
        ( "table3",
          J.Arr
            (Array.to_list
               (Array.map (fun g -> J.Arr (Array.to_list (Array.map (fun x -> J.Num x) g))) averages)) );
        ( "layers",
          J.Obj
            ([
               layer "mixtree.build"; layer "core.forest"; layer "core.schedule";
               layer "core.storage"; layer "core.baseline"; layer "core.streaming";
               layer "chip.actuation"; layer "chip.placer";
             ]
            @ [ ("forest_nodes", J.Num (Span.total "core.forest_nodes")) ]) );
        ("minor_mb", J.Num (gc.Gc.minor_words *. float_of_int (Sys.word_size / 8) /. 1048576.));
        ("major_gcs", J.Num (float_of_int gc.Gc.major_collections));
      ]
    end
  in
  let result =
    J.Obj
      ([
         ("t_first", J.Num t_first);
         ("t_ready", J.Num t_ready);
         ("rss_mb", J.Num (Proc.peak_rss_mb (Unix.getpid ())));
         ("failures", J.Arr (List.map (fun s -> J.Str s) (List.rev !failures)));
       ]
      @ fields)
  in
  print_string ("RESULT " ^ J.to_string result ^ "\n")
