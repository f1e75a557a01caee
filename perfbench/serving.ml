(* What the two serving workloads share: reading and checking the
   answers of a phase, its printed report, the daemons' counters and
   the in-process re-plan of a sample of answers. *)

module J = Perfbench_core.Json
module C = Perfbench_core.Checks

let wrong = ref []  (* Checks that failed: the run is not correct. *)

let failed = ref 0  (* Requests the program answered with an error. *)

let attempted = ref 0

let fail msg = wrong := msg :: !wrong

let expect cond fmt = Printf.ksprintf (fun msg -> if not cond then fail msg) fmt

(* Check every answer of a phase; returns them indexed like [reqs].
   The requests of a measured phase count in [attempted] and [failed];
   those of a [~counted:false] phase (a warm-up, the journal padding
   and the re-sends after a restart, whose number may vary from run to
   run or not scale with its length) must all answer ok. *)
let answers ?(counted = true) (specs : Specs.spec array) (reqs : Load.request array) =
  if counted then attempted := !attempted + Array.length reqs;
  Array.map
    (fun (r : Load.request) ->
      match Specs.read_answer ~id:r.Load.id specs.(r.Load.tag) r.Load.answer with
      | Specs.Answer a -> Some a
      | Specs.Failed msg when counted ->
        incr failed;
        prerr_endline ("perfbench: failed: " ^ msg);
        None
      | Specs.Failed msg | Specs.Wrong msg ->
        fail msg;
        None)
    reqs

let ms_between f (reqs : Load.request array) =
  Array.map (fun (r : Load.request) -> 1000. *. f r) reqs

(* The phase report: attempted, answered ok, failed, and the latency
   sample count every percentile rests on. *)
let report name (reqs : Load.request array) answers ?(extra = "") () =
  let ok = Array.fold_left (fun k a -> if a <> None then k + 1 else k) 0 answers in
  Printf.printf "phase %-14s attempted %6d  ok %6d  failed %d%s\n%!" name
    (Array.length reqs) ok (Array.length reqs - ok) extra

(* Open-loop latency from each request's scheduled send time, and how
   late the generator sent. *)
let open_loop_report name reqs answers ~rate ~slices =
  let lat = ms_between (fun r -> r.Load.recv -. r.Load.due) reqs in
  let late = ms_between (fun r -> r.Load.sent -. r.Load.due) reqs in
  (* The p50 of each slice, in run order: how far it drifts in one run. *)
  let per = Array.length lat / max 1 slices in
  let slice_p50 =
    List.init slices (fun i ->
        Printf.sprintf "%.2f" (Stat.quantile 0.5 (Array.sub lat (i * per) per)))
  in
  report name reqs answers
    ~extra:
      (Printf.sprintf
         "\n      open loop at %.0f req/s in %d slices: latency p50 %.3f ms p95 %.3f \
          ms p99 %.3f ms over %d samples; generator late p50 %.3f ms p99 %.3f ms \
          max %.3f ms\n      slice p50s: %s ms"
         rate slices (Stat.quantile 0.5 lat) (Stat.quantile 0.95 lat) (Stat.quantile 0.99 lat)
         (Array.length lat) (Stat.quantile 0.5 late) (Stat.quantile 0.99 late)
         (Array.fold_left Float.max 0. late) (String.concat " " slice_p50))
    ();
  lat

let elapsed answers =
  Array.of_list
    (List.filter_map
       (Option.map (fun (a : Specs.answer) -> a.Specs.elapsed_ms))
       (Array.to_list answers))

(* Client latency minus the daemon's own elapsed_ms: pipe or socket,
   codec and in-order delivery. *)
let transport (reqs : Load.request array) answers =
  let out = ref [] in
  Array.iteri
    (fun i (r : Load.request) ->
      match answers.(i) with
      | Some (a : Specs.answer) ->
        out := ((1000. *. (r.Load.recv -. r.Load.sent)) -. a.Specs.elapsed_ms) :: !out
      | None -> ())
    reqs;
  Array.of_list !out

let stats conn =
  let line = Conn.call conn "{\"req\": \"stats\", \"id\": -1}" in
  match J.parse line with
  | Ok j when J.bool [ "ok" ] j = Some true -> j
  | _ -> failwith ("bad stats answer: " ^ line)

let ping conn =
  let line = Conn.call ~timeout:60. conn "{\"req\": \"ping\", \"id\": 0}" in
  match J.parse line with
  | Ok j when J.bool [ "ok" ] j = Some true -> ()
  | _ -> failwith ("bad ping answer: " ^ line)

let count keys j = Option.value ~default:0 (J.int keys j)

let num keys j = Option.value ~default:0. (J.num keys j)

(* Every prepare a daemon answered was planned, merged into another's
   job, a cache hit or decoded from the plan store.  [others] counts
   the pings and stats it answered before this stats. *)
let accounting ~who ~prepares ~others j =
  let served = count [ "served" ] j - count [ "errors" ] j - others in
  let parts =
    count [ "plans_built" ] j + count [ "coalesced" ] j + count [ "cache"; "hits" ] j
    + count [ "plan_store"; "served_from_store" ] j
  in
  expect (served = prepares && parts = prepares)
    "%s: served %d for %d prepares; plans_built + coalesced + hits + from_store = %d"
    who served prepares parts

(* Re-plan up to [n] distinct (spec, batch_D) answers in this process
   and require the daemon's summaries. *)
let verify_sample rng (specs : Specs.spec array) (phases : (Load.request array * Specs.answer option array) list) ~n =
  let seen = Hashtbl.create n in
  let pool = ref [] in
  List.iter
    (fun (reqs, answers) ->
      Array.iteri
        (fun i (r : Load.request) ->
          match answers.(i) with
          | Some (a : Specs.answer) ->
            let k = (r.Load.tag, a.Specs.summary.C.batch_demand) in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              pool := (specs.(r.Load.tag), a) :: !pool
            end
          | None -> ())
        reqs)
    phases;
  let pool = Array.of_list (List.rev !pool) in
  let len = Array.length pool in
  (* A seeded partial shuffle picks the sample. *)
  for i = 0 to min n len - 1 do
    let j = i + Random.State.int rng (len - i) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  let sample = Array.sub pool 0 (min n len) in
  Array.iter
    (fun ((s : Specs.spec), (a : Specs.answer)) ->
      match Specs.replan s ~batch:a.Specs.summary.C.batch_demand with
      | Error e -> fail e
      | Ok mine ->
        expect
          (C.same_plan mine a.Specs.summary)
          "%s at batch_D %d: the daemon's summary differs from an in-process \
           re-plan"
          (Specs.key s) a.Specs.summary.C.batch_demand)
    sample;
  Array.length sample

let core_layers () =
  let nodes = Span.total "core.forest_nodes" in
  [
    ("mixtree.build_ms", Span.ms "mixtree.build");
    ("core.forest_ms", Span.ms "core.forest");
    ( "core.forest_us_per_node",
      if nodes > 0. then 1000. *. Span.ms "core.forest" /. nodes else 0. );
    ("core.schedule_ms", Span.ms "core.schedule");
    ("core.storage_ms", Span.ms "core.storage");
    ("core.streaming_ms", Span.ms "core.streaming");
    ("core.schedules", float_of_int (Span.count "core.schedule"));
  ]
