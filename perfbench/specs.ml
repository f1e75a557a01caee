(* Request specs drawn from the paper's L = 32 ratio corpus, the
   Zipf popularity over them, and the daemons' answers read back with
   the benchmark's own JSON reader and checkers. *)

(* [mixers] and [storage] (the q' budget) are sent only when set. *)
type spec = {
  parts : int array;
  demand : int;
  algorithm : string;
  scheduler : string;
  mixers : int option;
  storage : int option;
}

let ratio_string parts =
  String.concat ":" (Array.to_list (Array.map string_of_int parts))

let opt = function Some v -> string_of_int v | None -> "-"

let key s =
  Printf.sprintf "%s|%d|%s|%s|%s|%s" (ratio_string s.parts) s.demand s.algorithm
    s.scheduler (opt s.mixers) (opt s.storage)

(* Requests that differ only in D merge into one planning job. *)
let coalesce_key s = key { s with demand = 0 }

let line ?(req = "prepare") ~id s =
  let field name = function
    | Some v -> Printf.sprintf ", \"%s\": %d" name v
    | None -> ""
  in
  Printf.sprintf
    "{\"req\": \"%s\", \"ratio\": \"%s\", \"D\": %d, \"algorithm\": \
     \"%s\", \"scheduler\": \"%s\"%s%s, \"id\": %d}"
    req (ratio_string s.parts) s.demand s.algorithm s.scheduler
    (field "Mc" s.mixers) (field "storage" s.storage) id

let corpus () =
  Array.of_list (List.map Dmf.Ratio.parts (Bioproto.Synth.corpus ~sum:32 ()))

(* The element of [choices] at [u] in [0, 1). *)
let pick u choices = choices.(int_of_float (u *. float_of_int (Array.length choices)))

(* The [i]th point of a Weyl sequence: equidistributed in [0, 1), so
   every prefix of the universe has the same make-up whatever the seed. *)
let weyl alpha i = Float.rem (float_of_int (i + 1) *. alpha) 1.

(* The input make-up of the serving workloads (README, "Inputs"): the
   settings the paper evaluates, each equally often -- D from Table 4,
   the algorithms and schedulers of Tables 2 and 3.  Mc is left to the
   daemon's default. *)
let demands = [| 2; 16; 20; 32 |]
let algorithms = [| "MM"; "RMA"; "MTCS" |]
let schedulers = [| "MMS"; "SRS" |]

(* [size] specs, distinct under [distinct]; index 0 is the most
   popular under [zipf].  The seed places an even sample of the
   corpus (ordered by fluid count); D, algorithm and scheduler follow
   the same sequence in every seed.  None carries a q' budget:
   see [budgeted]. *)
let universe ?(distinct = key) rng corpus ~size =
  let seen = Hashtbl.create size in
  let out = ref [] in
  let i = ref 0 in
  let offset = Random.State.float rng 1.0 in
  let n = Array.length corpus in
  while Hashtbl.length seen < size do
    let s =
      {
        parts =
          corpus.(int_of_float (Float.rem (offset +. weyl 0.5497004779019703 !i) 1. *. float_of_int n));
        demand = pick (weyl 0.6180339887498949 !i) demands;
        algorithm = pick (weyl 0.4142135623730950 !i) algorithms;
        scheduler = pick (weyl 0.7320508075688772 !i) schedulers;
        mixers = None;
        storage = None;
      }
    in
    incr i;
    if not (Hashtbl.mem seen (distinct s)) then begin
      Hashtbl.add seen (distinct s) ();
      out := s :: !out
    end
  done;
  Array.of_list (List.rev !out)

(* The q'-budgeted prepares, the same in every seed: Table 4's settings
   (PCR at accuracy d = 4, 5, 6; Mc = 3; MM with SRS; q' = 3, 5, 7;
   D = 2, 16, 20, 32), then one input on which Mdst.Streaming claims
   within_limit with a last pass over q' (CHANGES.md, FOUND).  That one
   fails on every send and is counted in [failed]; budgets on seeded
   corpus specs are left out because whether they hit the fault
   depends on the seed. *)
let budgeted () =
  let table4 =
    List.concat_map
      (fun d ->
        let parts = Dmf.Ratio.parts (Bioproto.Protocols.pcr ~d) in
        List.concat_map
          (fun q ->
            List.map
              (fun demand ->
                { parts; demand; algorithm = "MM"; scheduler = "SRS"; mixers = Some 3;
                  storage = Some q })
              [ 2; 16; 20; 32 ])
          [ 3; 5; 7 ])
      [ 4; 5; 6 ]
  in
  let over_budget =
    { parts = [| 9; 5; 5; 5; 4; 3; 1 |]; demand = 32; algorithm = "RSM"; scheduler = "SRS";
      mixers = None; storage = Some 5 }
  in
  Array.of_list (table4 @ [ over_budget ])

(* Cumulative Zipf(s) weights over ranks 1..n. *)
let zipf ~s ~n =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw rng cdf =
  let u = Random.State.float rng 1.0 in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Draws from [draw ()], none repeating any of the previous [gap]
   draws: no two requests in flight can then share a key. *)
let no_repeat ~gap draw =
  let recent = Queue.create () and inside = Hashtbl.create gap in
  fun () ->
    let rec fresh () =
      let v = draw () in
      if Hashtbl.mem inside v then fresh () else v
    in
    let v = fresh () in
    Queue.push v recent;
    Hashtbl.replace inside v ();
    if Queue.length recent > gap then Hashtbl.remove inside (Queue.pop recent);
    v

(* [n] Poisson arrival times: exponential gaps at [rate] per second. *)
let arrivals rng ~rate ~n =
  let t = ref 0. in
  Array.init n (fun _ ->
      t := !t -. (log (1. -. Random.State.float rng 1.0) /. rate);
      !t)

(* One checked answer to a prepare. *)
type answer = {
  summary : Perfbench_core.Checks.summary;
  scheme : string;
  elapsed_ms : float;
  coalesced : int;
  cache_hit : bool;
}

type verdict = Answer of answer | Failed of string | Wrong of string

(* [Failed]: the daemon answered with an error, or a budgeted answer
   claims within_limit with q over its q' (the Mdst.Streaming fault in
   CHANGES.md, FOUND); [Wrong]: an ok answer that breaks any other
   check. *)
let read_answer ~id (s : spec) line =
  let module J = Perfbench_core.Json in
  let module C = Perfbench_core.Checks in
  match J.parse line with
  | Error e -> Wrong ("unparsable answer: " ^ e)
  | Ok j -> (
    match (J.bool [ "ok" ] j, J.int [ "id" ] j) with
    | Some false, _ -> Failed line
    | Some true, Some id' when id' = id -> (
      match C.summary_of_json j with
      | Error e -> Wrong e
      | Ok summary -> (
        let over =
          match s.storage with
          | Some q' -> summary.C.within_limit && summary.C.q > q'
          | None -> false
        in
        (* An answer over its budget is still held to every other check. *)
        let storage = if over then Some summary.C.q else s.storage in
        match C.check_summary ?storage summary with
        | Error e -> Wrong (Printf.sprintf "%s: %s" (key s) e)
        | Ok () when summary.C.demand <> s.demand ->
          Wrong (Printf.sprintf "%s: answered for D = %d" (key s) summary.C.demand)
        | Ok () when Option.fold ~none:false ~some:(( <> ) summary.C.mixers) s.mixers ->
          Wrong (Printf.sprintf "%s: answered for Mc = %d" (key s) summary.C.mixers)
        | Ok () when over ->
          Failed
            (Printf.sprintf "%s: within_limit with q = %d over q' = %d" (key s) summary.C.q
               (Option.get s.storage))
        | Ok () ->
          Answer
            {
              summary;
              scheme = Option.value ~default:"" (J.str [ "scheme" ] j);
              elapsed_ms = Option.value ~default:0. (J.num [ "elapsed_ms" ] j);
              coalesced = Option.value ~default:1 (J.int [ "coalesced" ] j);
              cache_hit = Option.value ~default:false (J.bool [ "cache_hit" ] j);
            }))
    | _ -> Wrong ("answer out of order or malformed: " ^ line))

let algorithm_of s =
  match Mixtree.Algorithm.of_string s with
  | Some a -> a
  | None -> invalid_arg ("algorithm " ^ s)

let scheduler_of s =
  match Mdst.Scheduler.of_string s with
  | Ok sc -> sc
  | Error e -> invalid_arg e

(* Re-plan [s] in this process at [batch] droplets, layer by layer
   under spans and then through Mdst.Engine.prepare (or, with a q'
   budget, through Mdst.Streaming.run), check every plan and schedule
   independently, and return the summary the daemon must have
   answered. *)
let replan (s : spec) ~batch =
  let module C = Perfbench_core.Checks in
  let ratio = Dmf.Ratio.make s.parts in
  let algorithm = algorithm_of s.algorithm in
  let scheduler = scheduler_of s.scheduler in
  let ( let* ) = Result.bind in
  let mixers = Option.value s.mixers ~default:(Mdst.Engine.default_mixers ratio) in
  let checked plan sched ~q =
    let view = C.plan_of plan in
    let* () = C.check_plan view (C.claims_of plan) in
    C.check_schedule view (C.schedule_of plan sched) ~q
  in
  match s.storage with
  | Some storage_limit ->
    let r =
      Span.record "core.streaming" (fun () ->
          Mdst.Streaming.run ~algorithm ~ratio ~demand:batch ~mixers ~storage_limit ~scheduler
            ())
    in
    let passes = r.Mdst.Streaming.passes in
    let* () =
      List.fold_left
        (fun acc (p : Mdst.Streaming.pass) ->
          let* () = acc in
          checked p.Mdst.Streaming.plan p.Mdst.Streaming.schedule ~q:p.Mdst.Streaming.q)
        (Ok ()) passes
    in
    let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
    if sum (fun p -> p.Mdst.Streaming.demand) <> batch then
      Error (key s ^ ": the passes do not add up to D")
    else
      Ok
        {
          C.demand = s.demand;
          batch_demand = batch;
          mixers;
          tc = sum (fun p -> p.Mdst.Streaming.tc);
          q = List.fold_left (fun acc p -> max acc p.Mdst.Streaming.q) 0 passes;
          tms = sum (fun p -> Mdst.Plan.tms p.Mdst.Streaming.plan);
          waste = sum (fun p -> p.Mdst.Streaming.waste);
          input_total = r.Mdst.Streaming.total_inputs;
          trees = sum (fun p -> Mdst.Plan.trees p.Mdst.Streaming.plan);
          passes = List.length passes;
          within_limit = r.Mdst.Streaming.within_limit;
        }
  | None ->
    ignore (Span.record "mixtree.build" (fun () -> Mixtree.Algorithm.build algorithm ratio));
    let plan =
      Span.record "core.forest" (fun () -> Mdst.Forest.build ~algorithm ~ratio ~demand:batch)
    in
    if !Span.enabled then
      Span.add "core.forest_nodes" (float_of_int (Mdst.Plan.n_nodes plan));
    let sched =
      Span.record "core.schedule" (fun () -> Mdst.Scheduler.schedule scheduler ~plan ~mixers)
    in
    let q = Span.record "core.storage" (fun () -> Mdst.Storage.units ~plan sched) in
    let* () = checked plan sched ~q in
    let r =
      Mdst.Engine.prepare
        { Mdst.Engine.ratio; demand = batch; algorithm; scheduler; mixers = s.mixers }
    in
    let m = r.Mdst.Engine.metrics in
    if m.Mdst.Metrics.tc <> Mdst.Schedule.completion_time sched || m.Mdst.Metrics.q <> q then
      Error (key s ^ ": Engine.prepare disagrees with its layers")
    else Ok (C.summary_of_metrics ~demand:s.demand m)
