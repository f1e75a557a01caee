(* The benchmark's checkers accept what the program produces and reject
   each kind of deliberate corruption. *)

open Perfbench_core
module C = Checks

let pcr16 = Bioproto.Protocols.pcr ~d:4

let plans () =
  List.concat_map
    (fun (ratio, demand) ->
      List.map
        (fun algorithm -> Mdst.Forest.build ~algorithm ~ratio ~demand)
        Mixtree.Algorithm.all)
    [
      (pcr16, 20); (pcr16, 1); (Dmf.Ratio.of_string "26:21:2:2:3:3:199", 32);
      (Dmf.Ratio.of_string "13:11:5:2:1", 7);
    ]

let ok what = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s rejected: %s" what e

let rejects what = function
  | Ok () -> Alcotest.failf "%s accepted" what
  | Error _ -> ()

let fig20 = Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM ~ratio:pcr16 ~demand:20

let with_node (p : C.plan) i f =
  let nodes = Array.copy p.C.nodes in
  nodes.(i) <- f nodes.(i);
  { p with C.nodes }

(* The first node reading an earlier node's droplet. *)
let first_consumer (p : C.plan) =
  let rec go i =
    match p.C.nodes.(i).C.left, p.C.nodes.(i).C.right with
    | C.Output _, _ | _, C.Output _ -> i
    | _ -> go (i + 1)
  in
  go 0

let plan_accepts () =
  List.iter (fun p -> ok "plan" (C.check_plan (C.plan_of p) (C.claims_of p))) (plans ())

let plan_rejects () =
  let p = C.plan_of fig20 and c = C.claims_of fig20 in
  let first_input =
    let rec go i = match p.C.nodes.(i).C.left with C.Input _ -> i | _ -> go (i + 1) in
    go 0
  in
  let other_fluid =
    with_node p first_input (fun n ->
        match n.C.left with
        | C.Input f -> { n with C.left = C.Input ((f + 1) mod Array.length p.C.parts) }
        | _ -> n)
  in
  rejects "a swapped reservoir" (C.check_plan other_fluid c);
  let k = first_consumer p in
  let src = match p.C.nodes.(k).C.left with C.Output _ as s -> s | _ -> p.C.nodes.(k).C.right in
  let twice = with_node p (k + 1) (fun _ -> { C.left = src; right = src }) in
  rejects "a droplet consumed twice" (C.check_plan twice c);
  let forward = with_node p 0 (fun n -> { n with C.left = C.Output (5, 1) }) in
  rejects "a consumer before its producer" (C.check_plan forward c);
  rejects "a miscounted W" (C.check_plan p { c with C.waste = c.C.waste + 1 });
  rejects "a miscounted I[]"
    (C.check_plan p { c with C.inputs = Array.map (fun x -> x + 1) c.C.inputs });
  rejects "too many trees for D" (C.check_plan { p with C.demand = 16 } c);
  rejects "a reserve droplet"
    (C.check_plan (with_node p first_input (fun n -> { n with C.left = C.Reserve })) c)

let schedules () =
  List.concat_map
    (fun plan ->
      List.concat_map
        (fun scheduler ->
          List.map
            (fun mixers -> (plan, Mdst.Scheduler.schedule scheduler ~plan ~mixers))
            [ 1; 3; 5 ])
        (Mdst.Scheduler.all ()))
    (plans ())

let schedule_accepts () =
  List.iter
    (fun (plan, s) ->
      ok "schedule"
        (C.check_schedule (C.plan_of plan) (C.schedule_of plan s)
           ~q:(Mdst.Storage.units ~plan s)))
    (schedules ())

let schedule_rejects () =
  let s = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan:fig20 ~mixers:3 in
  let p = C.plan_of fig20 and v = C.schedule_of fig20 s in
  let q = Mdst.Storage.units ~plan:fig20 s in
  ok "Fig. 4" (C.check_schedule p v ~q);
  let edit f = { v with C.cycle = Array.copy v.C.cycle; mixer = Array.copy v.C.mixer } |> f in
  let k = first_consumer p in
  let producer =
    match p.C.nodes.(k).C.left, p.C.nodes.(k).C.right with
    | C.Output (j, _), _ | _, C.Output (j, _) -> j
    | _ -> assert false
  in
  rejects "a mix before its input exists"
    (C.check_schedule p
       (edit (fun v ->
            v.C.cycle.(k) <- v.C.cycle.(producer);
            v))
       ~q);
  let clash =
    edit (fun v ->
        let other = if k = 0 then 1 else 0 in
        v.C.cycle.(k) <- v.C.cycle.(other);
        v.C.mixer.(k) <- v.C.mixer.(other);
        v)
  in
  rejects "two mixes on one mixer in one cycle" (C.check_schedule p clash ~q);
  rejects "a fourth mixer"
    (C.check_schedule p (edit (fun v -> v.C.mixer.(0) <- 4; v)) ~q);
  rejects "a miscounted q" (C.check_schedule p v ~q:(q - 1));
  rejects "a miscounted Tc" (C.check_schedule p { v with C.tc = v.C.tc + 1 } ~q);
  (* A chain of three mixes needs three cycles; four mixes on three
     mixers cannot share one cycle. *)
  let chain =
    {
      C.parts = [| 1; 1 |];
      demand = 2;
      nodes =
        [|
          { C.left = C.Input 0; right = C.Input 1 };
          { C.left = C.Output (0, 0); right = C.Input 0 };
          { C.left = C.Output (1, 0); right = C.Output (0, 1) };
        |];
      roots = [ 2 ];
    }
  in
  ok "the chain in three cycles"
    (C.check_schedule chain { C.mixers = 1; cycle = [| 1; 2; 3 |]; mixer = [| 1; 1; 1 |]; tc = 3 } ~q:1);
  let flat =
    { chain with C.nodes = Array.make 4 { C.left = C.Input 0; right = C.Input 1 } }
  in
  rejects "Tc below ceil(Tms/Mc)"
    (C.check_schedule flat
       { C.mixers = 3; cycle = [| 1; 1; 1; 1 |]; mixer = [| 1; 2; 3; 3 |]; tc = 1 }
       ~q:0)

let response =
  {|{"ok": true, "req": "prepare", "id": 2, "scheme": "MM+SRS", "Mc": 3, "D": 20, "batch_D": 20, "Tc": 11, "q": 5, "Tms": 27, "W": 5, "I": 25, "trees": 10, "passes": 1, "within_limit": true, "coalesced": 1, "cache_hit": false, "instr": {"cycles": 11, "avg_storage": 1.0909090909090908}, "elapsed_ms": 4.0071010589599609}|}

let summary () =
  match Json.parse response with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    match C.summary_of_json j with Ok s -> s | Error e -> Alcotest.fail e)

let summary_accepts () =
  let s = summary () in
  ok "Fig. 4 answer" (C.check_summary s);
  ok "a streamed answer within q'"
    (C.check_summary ~storage:5 { s with C.passes = 2; tc = 14 });
  ok "an answer over q' that says so"
    (C.check_summary ~storage:3 { s with C.within_limit = false })

let summary_rejects () =
  let s = summary () in
  rejects "I <> 2 trees + W" (C.check_summary { s with C.input_total = 26 });
  rejects "trees <> ceil(batch_D/2)" (C.check_summary { s with C.batch_demand = 24 });
  rejects "q over q'" (C.check_summary ~storage:3 s);
  rejects "passes without a budget" (C.check_summary { s with C.passes = 2 });
  rejects "batch_D below D" (C.check_summary { s with C.demand = 22 });
  rejects "Tc below ceil(Tms/Mc)" (C.check_summary { s with C.tc = 8 })

let json () =
  let v =
    Json.Obj
      [ ("a", Json.Arr [ Json.Num 1.; Json.Num 0.1; Json.Null; Json.Bool true ]);
        ("b\"q", Json.Str "x\ny") ]
  in
  Alcotest.(check bool) "round trip" true (Json.parse (Json.to_string v) = Ok v);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "{"; "{\"a\" 1}"; "[1,]"; "tru"; "{} x"; "\"open" ]

let () =
  Alcotest.run "perfbench checks"
    [
      ( "plan",
        [ Alcotest.test_case "accepts forests" `Quick plan_accepts;
          Alcotest.test_case "rejects corruptions" `Quick plan_rejects ] );
      ( "schedule",
        [ Alcotest.test_case "accepts schedules" `Quick schedule_accepts;
          Alcotest.test_case "rejects corruptions" `Quick schedule_rejects ] );
      ( "response",
        [ Alcotest.test_case "accepts answers" `Quick summary_accepts;
          Alcotest.test_case "rejects corruptions" `Quick summary_rejects ] );
      ("json", [ Alcotest.test_case "parse and print" `Quick json ]);
    ]
