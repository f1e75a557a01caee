(* Tests for mixing-forest construction and the plan representation. *)

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let pcr = Generators.pcr16

let mm_forest demand =
  Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr ~demand

(* ------------------------------------------------------------------ *)
(* Paper figures                                                       *)

let test_fig1_demand16 () =
  let p = mm_forest 16 in
  check int "|F| (paper: 8)" 8 (Mdst.Plan.trees p);
  check int "Tms (paper: 19)" 19 (Mdst.Plan.tms p);
  check int "W (paper: 0)" 0 (Mdst.Plan.waste p);
  check int "I (paper: 16)" 16 (Mdst.Plan.input_total p);
  check (Alcotest.array int) "I[] equals the ratio" [| 2; 1; 1; 1; 1; 1; 9 |]
    (Mdst.Plan.input_vector p)

let test_fig2_demand20 () =
  let p = mm_forest 20 in
  check int "|F| (paper: 10)" 10 (Mdst.Plan.trees p);
  check int "Tms (paper: 27)" 27 (Mdst.Plan.tms p);
  check int "W (paper: 5)" 5 (Mdst.Plan.waste p);
  check int "I (paper: 25)" 25 (Mdst.Plan.input_total p);
  check (Alcotest.array int) "I[] (paper: [3,2,2,2,2,2,12])"
    [| 3; 2; 2; 2; 2; 2; 12 |] (Mdst.Plan.input_vector p)

let test_demand2_is_base_tree () =
  let p = mm_forest 2 in
  check int "one tree" 1 (Mdst.Plan.trees p);
  check int "Tms = internal nodes" 7 (Mdst.Plan.tms p);
  check int "waste = Tms - 1" 6 (Mdst.Plan.waste p)

let test_odd_demand_rounds_up () =
  let p = mm_forest 5 in
  check int "three trees" 3 (Mdst.Plan.trees p);
  check int "six targets" 6 (Mdst.Plan.targets p);
  check int "demand preserved" 5 (Mdst.Plan.demand p)

let test_structure () =
  let p = mm_forest 20 in
  (* Property (a) of Section 4.1: every component-tree root at level d. *)
  List.iter
    (fun r -> check int "root level" 4 (Mdst.Plan.node p r).Mdst.Plan.level)
    (Mdst.Plan.roots p);
  (* Roots carry bfs index 1 in their own tree. *)
  List.iter
    (fun r -> check int "root bfs" 1 (Mdst.Plan.node p r).Mdst.Plan.bfs)
    (Mdst.Plan.roots p);
  check bool "plan validates" true (Result.is_ok (Mdst.Plan.validate p))

let test_rejects_zero_demand () =
  check bool "demand 0 rejected" true
    (try ignore (mm_forest 0); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Repeated baselines                                                  *)

let test_repeated_no_reuse () =
  let p = Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr ~demand:20 in
  check int "ten trees" 10 (Mdst.Plan.trees p);
  check int "Tms scales" 70 (Mdst.Plan.tms p);
  check int "waste scales" 60 (Mdst.Plan.waste p);
  check int "inputs scale" 80 (Mdst.Plan.input_total p)

let test_repeated_mtcs_shares_within_pass () =
  let ratio = Dmf.Ratio.of_string "3:3:2" in
  let repeated_mm =
    Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand:4
  in
  let repeated_mtcs =
    Mdst.Forest.repeated ~algorithm:Mixtree.Algorithm.MTCS ~ratio ~demand:4
  in
  check bool "MTCS pass cheaper than MM pass" true
    (Mdst.Plan.tms repeated_mtcs <= Mdst.Plan.tms repeated_mm);
  check bool "both valid" true
    (Result.is_ok (Mdst.Plan.validate repeated_mm)
    && Result.is_ok (Mdst.Plan.validate repeated_mtcs))

(* ------------------------------------------------------------------ *)
(* Cross-checks against the demand-driven sharing analysis             *)

let test_forest_matches_sharing_analysis () =
  (* The greedy pool-based forest must achieve the analytical optimum of
     the demand propagation for the PCR tree at several demands. *)
  let tree = Mixtree.Minmix.build pcr in
  List.iter
    (fun demand ->
      let p = mm_forest demand in
      let s = Mixtree.Sharing.demand_stats ~n:7 ~demand:(2 * ((demand + 1) / 2)) tree in
      check int
        (Printf.sprintf "Tms at D=%d" demand)
        s.Mixtree.Sharing.mixes (Mdst.Plan.tms p))
    [ 2; 4; 8; 16; 20; 32; 64 ]

(* ------------------------------------------------------------------ *)
(* Bounded work                                                        *)

(* The largest demand a request may carry (Validate.max_demand) must
   build in time linear in the forest: relabelling every node built so
   far after each component tree made this forest take about a minute. *)
let test_largest_forest_is_bounded () =
  let ratio = Bioproto.Protocols.pcr ~d:5 in
  List.iter
    (fun algorithm ->
      let t0 = Unix.gettimeofday () in
      let p = Mdst.Forest.build ~algorithm ~ratio ~demand:65_536 in
      let elapsed = Unix.gettimeofday () -. t0 in
      let name = Mixtree.Algorithm.name algorithm in
      check int (name ^ " nodes") 69_632 (Mdst.Plan.n_nodes p);
      if elapsed > 20. then
        Alcotest.failf "%s forest at D = 65536 took %.1f s (bound: 20 s)" name
          elapsed)
    [ Mixtree.Algorithm.MM; Mixtree.Algorithm.MTCS ]

(* ------------------------------------------------------------------ *)
(* Plan validation error texts                                         *)

(* Hand-built malformed plans over 1:1 and 3:1 must be refused with the
   exact texts below.  Two checks of [Plan.validate] cannot be reached
   through [create]: a reserve index or a port out of range is refused
   while the consumer index is built, with the last two texts here. *)
let x1 = Dmf.Fluid.make 0
let x2 = Dmf.Fluid.make 1
let one_one = Dmf.Ratio.of_string "1:1"
let three_one = Dmf.Ratio.of_string "3:1"
let v_half = Dmf.Mixture.of_ratio one_one
let v_three = Dmf.Mixture.of_ratio three_one

let mk ?(value = v_half) id left right =
  { Mdst.Plan.id; tree = 1; level = 1; bfs = 1; value; left; right }

let mix_in id = mk id (Mdst.Plan.Input x1) (Mdst.Plan.Input x2)
let out node port = Mdst.Plan.Output { node; port }

let create_error f =
  match f () with
  | (_ : Mdst.Plan.t) -> "accepted"
  | exception Invalid_argument msg -> msg

let test_validation_texts () =
  let create ?(ratio = one_one) ~demand nodes roots () =
    Mdst.Plan.create ~ratio ~demand ~nodes ~roots
  in
  let multi ?(reserves = [||]) ~demand nodes roots root_values () =
    Mdst.Plan.create_multi ~reserves ~ratio:one_one ~demand ~nodes ~roots
      ~root_values ()
  in
  let on_three = mk ~value:v_three in
  List.iter
    (fun (expected, f) -> check Alcotest.string expected expected (create_error f))
    [
      ("Plan.create: demand 0 < 1", create ~demand:0 [| mix_in 0 |] [| 0 |]);
      ( "Plan.create: only 2 targets for demand 3",
        create ~demand:3 [| mix_in 0 |] [| 0 |] );
      ( "Plan.create: node id 5 out of range",
        create ~demand:1 [| mix_in 5 |] [| 0 |] );
      ( "Plan.create: node 1 misplaced",
        create ~demand:1 [| mix_in 1; mix_in 1 |] [| 1 |] );
      ( "Plan.create: node 0 consumes from node 1: not topologically ordered",
        create ~demand:1
          [| mk 0 (out 1 0) (Mdst.Plan.Input x1); mix_in 1 |]
          [| 1 |] );
      ( "Plan.create: node 0: recorded value <1,0>/1, recomputed <1,1>/2",
        create ~demand:1
          [| mk ~value:(Dmf.Mixture.pure ~n:2 x1) 0 (Mdst.Plan.Input x1)
               (Mdst.Plan.Input x2) |]
          [| 0 |] );
      ( "Plan.create: droplet (0, 1) consumed twice",
        create ~demand:1 [| mix_in 0; mk 1 (out 0 1) (out 0 1) |] [| 1 |] );
      ( "Plan.create: consumer link of droplet (0, 1) broken",
        create ~ratio:three_one ~demand:4
          [| mix_in 0; on_three 1 (out 0 1) (Mdst.Plan.Input x1);
             on_three 2 (out 0 1) (Mdst.Plan.Input x1) |]
          [| 1; 2 |] );
      ( "Plan.create: node 1 consumes a target droplet of root 0",
        create ~ratio:three_one ~demand:2
          [| mix_in 0; on_three 1 (out 0 0) (Mdst.Plan.Input x1) |]
          [| 0; 1 |] );
      ( "Plan.create: reserve 0 consumed twice",
        multi ~reserves:[| v_half |] ~demand:1
          [| mk 0 (Mdst.Plan.Reserve 0) (Mdst.Plan.Reserve 0) |]
          [| 0 |] [| v_half |] );
      ( "Plan.create: reserve link of 0 broken",
        multi
          ~reserves:[| Dmf.Mixture.pure ~n:2 x1 |]
          ~demand:1
          [| mk 0 (Mdst.Plan.Reserve 0) (Mdst.Plan.Input x2);
             mk 1 (Mdst.Plan.Reserve 0) (Mdst.Plan.Input x2) |]
          [| 0; 1 |] [| v_half; v_half |] );
      ( "Plan.create: plan has 1 roots but 0 root values",
        multi ~demand:1 [| mix_in 0 |] [| 0 |] [||] );
      ( "Plan.create: root 0 value <1,1>/2 differs from target <3,1>/4",
        create ~ratio:three_one ~demand:2 [| mix_in 0 |] [| 0 |] );
      ( "Plan.create: droplet conservation violated: I=2, reserves used=0, \
         targets=4, W=0",
        create ~demand:1 [| mix_in 0 |] [| 0; 0 |] );
      ( "Plan.create: reserve index out of range",
        create ~demand:1
          [| mk 0 (Mdst.Plan.Reserve 0) (Mdst.Plan.Input x2) |]
          [| 0 |] );
      ( "Plan.create: bad port",
        create ~demand:1 [| mix_in 0; mk 1 (out 0 2) (out 0 1) |] [| 1 |] );
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let forest_case_gen =
  QCheck2.Gen.(triple Generators.ratio_gen Generators.demand_gen Generators.algorithm_gen)

let forest_case_print (r, demand, a) =
  Printf.sprintf "%s D=%d %s" (Dmf.Ratio.to_string r) demand
    (Mixtree.Algorithm.name a)

let prop_forest_valid =
  Generators.qtest ~count:200 "forests validate structurally" forest_case_gen
    forest_case_print (fun (ratio, demand, algorithm) ->
      let p = Mdst.Forest.build ~algorithm ~ratio ~demand in
      Result.is_ok (Mdst.Plan.validate p))

let prop_conservation =
  Generators.qtest ~count:200 "droplet conservation I = targets + W"
    forest_case_gen forest_case_print (fun (ratio, demand, algorithm) ->
      let p = Mdst.Forest.build ~algorithm ~ratio ~demand in
      Mdst.Plan.input_total p = Mdst.Plan.targets p + Mdst.Plan.waste p)

let prop_full_demand_no_waste =
  Generators.qtest ~count:150 "D = 2^d leaves no waste (MM forests)"
    Generators.ratio_gen Generators.ratio_print (fun ratio ->
      let demand = Dmf.Ratio.sum ratio in
      let p = Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio ~demand in
      Mdst.Plan.waste p = 0
      && Mdst.Plan.input_vector p = Dmf.Ratio.parts ratio)

let prop_forest_beats_repeated =
  Generators.qtest ~count:150 "streaming never uses more input than repeated"
    forest_case_gen forest_case_print (fun (ratio, demand, algorithm) ->
      let forest = Mdst.Forest.build ~algorithm ~ratio ~demand in
      let repeated = Mdst.Forest.repeated ~algorithm ~ratio ~demand in
      Mdst.Plan.input_total forest <= Mdst.Plan.input_total repeated
      && Mdst.Plan.tms forest <= Mdst.Plan.tms repeated)

let prop_tree_count =
  Generators.qtest ~count:150 "|F| = ceil(D / 2)" forest_case_gen
    forest_case_print (fun (ratio, demand, algorithm) ->
      let p = Mdst.Forest.build ~algorithm ~ratio ~demand in
      Mdst.Plan.trees p = (demand + 1) / 2)

let () =
  Alcotest.run "forest"
    [
      ( "paper",
        [
          Alcotest.test_case "Figure 1 (D=16)" `Quick test_fig1_demand16;
          Alcotest.test_case "Figure 2 (D=20)" `Quick test_fig2_demand20;
          Alcotest.test_case "D=2 is the base tree" `Quick test_demand2_is_base_tree;
          Alcotest.test_case "odd demand rounds up" `Quick test_odd_demand_rounds_up;
          Alcotest.test_case "forest structure" `Quick test_structure;
          Alcotest.test_case "zero demand rejected" `Quick test_rejects_zero_demand;
        ] );
      ( "repeated",
        [
          Alcotest.test_case "no reuse across passes" `Quick test_repeated_no_reuse;
          Alcotest.test_case "MTCS shares within a pass" `Quick
            test_repeated_mtcs_shares_within_pass;
        ] );
      ( "cross-check",
        [
          Alcotest.test_case "greedy forest matches demand analysis" `Quick
            test_forest_matches_sharing_analysis;
        ] );
      ( "bounded",
        [
          Alcotest.test_case "D = 65536 forests build in bounded time" `Quick
            test_largest_forest_is_bounded;
        ] );
      ( "validation",
        [
          Alcotest.test_case "malformed plans keep their error texts" `Quick
            test_validation_texts;
        ] );
      ( "properties",
        [
          prop_forest_valid;
          prop_conservation;
          prop_full_demand_no_waste;
          prop_forest_beats_repeated;
          prop_tree_count;
        ] );
    ]
