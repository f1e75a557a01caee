(* Tests for the multi-pass droplet-streaming engine (Table 4). *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let pcr = Generators.pcr16

let run ?(d = 4) ?(demand = 32) ?(mixers = 3) ~q () =
  let ratio = if d = 4 then pcr else Bioproto.Protocols.pcr ~d in
  Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand ~mixers
    ~storage_limit:q ~scheduler:Mdst.Scheduler.srs ()

(* The d = 4 column of Table 4 reproduces exactly. *)
let test_table4_d4_q3 () =
  let case demand passes tc waste =
    let r = run ~q:3 ~demand () in
    check int (Printf.sprintf "passes D=%d" demand) passes (Mdst.Streaming.n_passes r);
    check int (Printf.sprintf "Tc D=%d" demand) tc r.Mdst.Streaming.total_cycles;
    check int (Printf.sprintf "W D=%d" demand) waste r.Mdst.Streaming.total_waste
  in
  case 2 1 4 6;
  case 16 2 10 7;
  case 20 2 11 5;
  case 32 3 17 7

let test_table4_d4_q5 () =
  let r16 = run ~q:5 ~demand:16 () in
  check int "one pass" 1 (Mdst.Streaming.n_passes r16);
  check int "Tc (paper: 7)" 7 r16.Mdst.Streaming.total_cycles;
  check int "no waste" 0 r16.Mdst.Streaming.total_waste

let test_budget_respected () =
  List.iter
    (fun q ->
      let r = run ~q () in
      if r.Mdst.Streaming.within_limit then
        List.iter
          (fun pass ->
            check bool
              (Printf.sprintf "pass q <= %d" q)
              true
              (pass.Mdst.Streaming.q <= q))
          r.Mdst.Streaming.passes)
    [ 1; 2; 3; 5; 7; 30 ]

let test_total_demand_met () =
  List.iter
    (fun demand ->
      let r = run ~q:3 ~demand () in
      let produced =
        List.fold_left
          (fun acc p -> acc + Mdst.Plan.targets p.Mdst.Streaming.plan)
          0 r.Mdst.Streaming.passes
      in
      check bool (Printf.sprintf "targets >= demand %d" demand) true
        (produced >= demand))
    [ 2; 5; 16; 31; 32 ]

let test_more_storage_fewer_passes () =
  let previous = ref max_int in
  List.iter
    (fun q ->
      let r = run ~q () in
      let passes = Mdst.Streaming.n_passes r in
      check bool (Printf.sprintf "passes nonincreasing at q=%d" q) true
        (passes <= !previous);
      previous := passes)
    [ 1; 2; 3; 4; 5; 6; 7 ]

let test_infeasible_budget_flagged () =
  (* d = 6 single pair needs more than zero storage with one mixer. *)
  let ratio = Bioproto.Protocols.pcr ~d:6 in
  let r =
    Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand:4
      ~mixers:1 ~storage_limit:0 ~scheduler:Mdst.Scheduler.srs ()
  in
  check bool "flagged infeasible" false r.Mdst.Streaming.within_limit;
  check int "falls back to pairs" 2 (Mdst.Streaming.n_passes r)

let test_max_demand_per_pass () =
  let fit =
    Mdst.Streaming.max_demand_per_pass ~algorithm:Mixtree.Algorithm.MM
      ~ratio:pcr ~mixers:3 ~storage_limit:5 ~scheduler:Mdst.Scheduler.srs
      ~max_demand:32
  in
  (match fit with
  | Some d' -> check bool "D' is even and positive" true (d' mod 2 = 0 && d' > 0)
  | None -> Alcotest.fail "q=5 must fit some demand");
  let none =
    Mdst.Streaming.max_demand_per_pass ~algorithm:Mixtree.Algorithm.MM
      ~ratio:(Bioproto.Protocols.pcr ~d:6) ~mixers:1 ~storage_limit:0
      ~scheduler:Mdst.Scheduler.srs ~max_demand:8
  in
  check bool "impossible budget returns None" true (none = None)

let test_rejects_bad_arguments () =
  check bool "demand 0" true
    (try ignore (run ~q:3 ~demand:0 ()); false with Invalid_argument _ -> true);
  check bool "mixers 0" true
    (try ignore (run ~q:3 ~mixers:0 ()); false with Invalid_argument _ -> true)

let test_scheduler_choice () =
  let srs = run ~q:5 () in
  let mms =
    Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr ~demand:32
      ~mixers:3 ~storage_limit:5 ~scheduler:Mdst.Scheduler.mms ()
  in
  check bool "MMS streaming no slower in total cycles" true
    (mms.Mdst.Streaming.total_cycles <= srs.Mdst.Streaming.total_cycles + 2)

(* q is not monotone in the demand, so the remainder after the full
   passes can need more storage than they do.  At q' = 5 this input
   fits D' = 20, but a 12-droplet remainder would need q = 6: it must be
   re-planned as 6 + 6 at q = 5, not reported within the limit. *)
let test_remainder_overflow_replanned () =
  let ratio = Dmf.Ratio.of_string "9:5:5:5:4:3:1" in
  let r =
    Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.RSM ~ratio ~demand:32
      ~mixers:(Mdst.Engine.default_mixers ratio) ~storage_limit:5
      ~scheduler:Mdst.Scheduler.srs ()
  in
  let passes = r.Mdst.Streaming.passes in
  check int "D' is still 20" 20 r.Mdst.Streaming.per_pass_demand;
  check Alcotest.(list int) "passes of 20, 6 and 6" [ 20; 6; 6 ]
    (List.map (fun p -> p.Mdst.Streaming.demand) passes);
  check Alcotest.(list int) "every pass needs q = 5" [ 5; 5; 5 ]
    (List.map (fun p -> p.Mdst.Streaming.q) passes);
  check bool "within the limit" true r.Mdst.Streaming.within_limit

let prop_within_limit_means_every_pass =
  Generators.qtest ~count:80 "within_limit holds iff every pass fits q'"
    QCheck2.Gen.(
      quad Generators.ratio_gen (int_range 1 40) (int_range 0 8)
        (oneofl [ Mixtree.Algorithm.MM; Mixtree.Algorithm.RSM ]))
    (fun (r, d, q, a) ->
      Printf.sprintf "%s D=%d q=%d %s" (Dmf.Ratio.to_string r) d q
        (Mixtree.Algorithm.name a))
    (fun (ratio, demand, storage_limit, algorithm) ->
      let r =
        Mdst.Streaming.run ~algorithm ~ratio ~demand ~mixers:2 ~storage_limit
          ~scheduler:Mdst.Scheduler.srs ()
      in
      r.Mdst.Streaming.within_limit
      = List.for_all
          (fun p -> p.Mdst.Streaming.q <= storage_limit)
          r.Mdst.Streaming.passes
      && List.fold_left (fun acc p -> acc + p.Mdst.Streaming.demand) 0
           r.Mdst.Streaming.passes
         = demand)

let prop_streaming_consistent =
  Generators.qtest ~count:80 "streaming totals are consistent"
    QCheck2.Gen.(
      triple Generators.ratio_gen (int_range 2 24) (int_range 1 8))
    (fun (r, d, q) ->
      Printf.sprintf "%s D=%d q=%d" (Dmf.Ratio.to_string r) d q)
    (fun (ratio, demand, storage_limit) ->
      let r =
        Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand
          ~mixers:2 ~storage_limit ~scheduler:Mdst.Scheduler.srs ()
      in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 r.Mdst.Streaming.passes in
      r.Mdst.Streaming.total_cycles = sum (fun p -> p.Mdst.Streaming.tc)
      && r.Mdst.Streaming.total_waste = sum (fun p -> p.Mdst.Streaming.waste)
      && Mdst.Streaming.n_passes r >= 1)

let () =
  Alcotest.run "streaming"
    [
      ( "table4",
        [
          Alcotest.test_case "d=4 q'=3 column" `Quick test_table4_d4_q3;
          Alcotest.test_case "d=4 q'=5, D=16" `Quick test_table4_d4_q5;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget respected" `Quick test_budget_respected;
          Alcotest.test_case "total demand met" `Quick test_total_demand_met;
          Alcotest.test_case "more storage, fewer passes" `Quick
            test_more_storage_fewer_passes;
          Alcotest.test_case "infeasible budget flagged" `Quick
            test_infeasible_budget_flagged;
          Alcotest.test_case "max demand per pass" `Quick test_max_demand_per_pass;
          Alcotest.test_case "bad arguments rejected" `Quick
            test_rejects_bad_arguments;
          Alcotest.test_case "scheduler choice" `Quick test_scheduler_choice;
          Alcotest.test_case "overflowing remainder re-planned" `Quick
            test_remainder_overflow_replanned;
        ] );
      ( "properties",
        [ prop_streaming_consistent; prop_within_limit_means_every_pass ] );
    ]
