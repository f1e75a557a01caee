(* Prints the paper's evaluation tables as computed by this library:
   Table 2 (ex1-ex5 under the nine schemes at D = 32), Table 3 (the
   average improvements over every 8th corpus ratio), Table 4 (PCR
   streaming under storage budgets), Fig. 6 (average Tc and I versus
   demand over every 40th corpus ratio) and Fig. 7 (Tc and q versus the
   mixer count on the RMA pcr16 D = 32 forest).  Every float prints
   with %.17g, so any change to a computed value shows in the diff.

   Usage: paper_tables.exe *)

let pcr16 = Bioproto.Protocols.pcr ~d:4
let corpus = Bioproto.Synth.corpus ~sum:32 ()
let g = Printf.sprintf "%.17g"

let table2 () =
  print_endline "# Table 2: scheme Tc q Tms W I passes (D = 32)";
  List.iter
    (fun (p : Bioproto.Protocols.t) ->
      Printf.printf "%s %s\n" p.Bioproto.Protocols.id
        (Dmf.Ratio.to_string p.Bioproto.Protocols.ratio);
      List.iter
        (fun (scheme, (m : Mdst.Metrics.t)) ->
          Printf.printf "  %s %d %d %d %d %d %d\n"
            (Mdst.Compare.scheme_name scheme)
            m.tc m.q m.tms m.waste m.input_total m.passes)
        (Mdst.Compare.evaluate_all ~ratio:p.Bioproto.Protocols.ratio
           ~demand:32 Mdst.Compare.table2_schemes))
    Bioproto.Protocols.table2

let table3 () =
  let ratios = Bioproto.Synth.sample ~every:8 corpus in
  Printf.printf "# Table 3: average %% improvements over %d ratios (D = 32)\n"
    (List.length ratios);
  List.iter
    (fun algorithm ->
      let (imp : Mdst.Compare.improvement) =
        Mdst.Compare.average_improvements ~ratios ~demand:32 algorithm
      in
      let name = Mixtree.Algorithm.name algorithm in
      List.iter
        (fun (label, v) -> Printf.printf "%s %s %s\n" name label (g v))
        [
          ("Tc:MMS||R", imp.mms_tc_over_repeated);
          ("Tc:SRS||R", imp.srs_tc_over_repeated);
          ("I:MMS||R", imp.mms_i_over_repeated);
          ("I:SRS||R", imp.srs_i_over_repeated);
          ("q:SRS||MMS", imp.srs_q_over_mms);
          ("Tc:SRS||MMS", imp.srs_tc_over_mms);
        ])
    Mixtree.Algorithm.[ MM; RMA; MTCS ]

let table4 () =
  print_endline
    "# Table 4: MM+SRS, 3 mixers: d q' D | D' within_limit Tc W I | passes \
     (D' Tc q W)";
  List.iter
    (fun d ->
      let ratio = Bioproto.Protocols.pcr ~d in
      List.iter
        (fun storage_limit ->
          List.iter
            (fun demand ->
              let r =
                Mdst.Streaming.run ~algorithm:Mixtree.Algorithm.MM ~ratio
                  ~demand ~mixers:3 ~storage_limit
                  ~scheduler:Mdst.Scheduler.srs ()
              in
              Printf.printf "%d %d %d | %d %b %d %d %d |" d storage_limit
                demand r.Mdst.Streaming.per_pass_demand
                r.Mdst.Streaming.within_limit r.Mdst.Streaming.total_cycles
                r.Mdst.Streaming.total_waste r.Mdst.Streaming.total_inputs;
              List.iter
                (fun (p : Mdst.Streaming.pass) ->
                  Printf.printf " (%d %d %d %d)" p.demand p.tc p.q p.waste)
                r.Mdst.Streaming.passes;
              print_newline ())
            [ 2; 16; 20; 32 ])
        [ 3; 5; 7 ])
    [ 4; 5; 6 ]

let fig6 () =
  let ratios = Bioproto.Synth.sample ~every:40 corpus in
  let schemes =
    Mdst.Compare.
      [
        Repeated Mixtree.Algorithm.MM;
        Repeated Mixtree.Algorithm.MTCS;
        Streamed (Mixtree.Algorithm.MM, Mdst.Scheduler.mms);
        Streamed (Mixtree.Algorithm.MTCS, Mdst.Scheduler.mms);
      ]
  in
  let average demand pick scheme =
    let total =
      List.fold_left
        (fun acc ratio ->
          acc + pick (Mdst.Compare.evaluate ~ratio ~demand scheme))
        0 ratios
    in
    float_of_int total /. float_of_int (List.length ratios)
  in
  let rows title pick demands =
    Printf.printf "# Fig. 6 %s over %d ratios: D %s\n" title
      (List.length ratios)
      (String.concat " " (List.map Mdst.Compare.scheme_name schemes));
    List.iter
      (fun demand ->
        Printf.printf "%d %s\n" demand
          (String.concat " "
             (List.map (fun s -> g (average demand pick s)) schemes)))
      demands
  in
  rows "average Tc" (fun m -> m.Mdst.Metrics.tc) [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ];
  rows "average I"
    (fun m -> m.Mdst.Metrics.input_total)
    [ 2; 4; 8; 12; 16; 20; 24; 28; 32 ]

let fig7 () =
  print_endline "# Fig. 7: RMA pcr16 D = 32: M | Tc MMS, Tc SRS, q MMS, q SRS";
  let plan =
    Mdst.Forest.build ~algorithm:Mixtree.Algorithm.RMA ~ratio:pcr16 ~demand:32
  in
  for mixers = 1 to 15 do
    let mms = Mdst.Scheduler.schedule Mdst.Scheduler.mms ~plan ~mixers in
    let srs = Mdst.Scheduler.schedule Mdst.Scheduler.srs ~plan ~mixers in
    Printf.printf "%d | %d %d %d %d\n" mixers
      (Mdst.Schedule.completion_time mms)
      (Mdst.Schedule.completion_time srs)
      (Mdst.Storage.units ~plan mms)
      (Mdst.Storage.units ~plan srs)
  done

let () =
  table2 ();
  table3 ();
  table4 ();
  fig6 ();
  fig7 ()
