(* router_warm: dmfrouter over two single-worker dmfd shards (no WAL,
   no store, an LRU larger than the key universe), every key cached by
   a warm-up pass, then an open-loop
   phase through the router, the same stream sent straight to the
   owning shards, and a closed-loop phase through the router, all over
   loopback TCP.  Nearly all the time goes to the router hop and the
   NDJSON codec.  Keys are drawn so that no two requests in flight can
   share a coalesce key: a merged job would plan a fresh batch and the
   run would stop being warm. *)

module C = Perfbench_core.Checks
module J = Perfbench_core.Json

let universe_size = 2048

(* Per shard: room for every key, so that nothing is evicted. *)
let cache_capacity = 4096

let no_repeat_within = 256

let open_rate = 600.

let window = 8

let streams = 2

let restarts = 31

(* Set-up is timed on fresh shard-and-router sets started before each
   cycle, besides the one that serves: 1 + 5 per cycle samples. *)
let probes_per_cycle = 5

(* Each cycle's open and closed loops run in this many parts, each on
   fresh connections: over loopback TCP one pair of connections can run
   at a third of another's rate, so a figure pooled over many pairs
   (the median part, for throughput) moves less from run to run. *)
let open_parts = 4

let closed_parts = 12

(* Shares of each cycle's slice of --seconds: the open loop through the
   router, the same stream straight to the shards, and the closed loop.
   dmfd and dmfrouter do not set TCP_NODELAY on accepted sockets
   (CHANGES.md, FOUND), so a pipelined answer often waits for the peer's
   delayed ACK; the closed-loop rate rests on how many such waits a run
   meets, and the closed loop gets half the time to sample enough. *)
let open_share = 0.25

let closed_share = 0.5

(* The warm-up is timed in blocks of this many keys. *)
let block = 256

(* The timed phases run in [cycles] rounds of an open-loop slice through
   the router, the same slice sent to the shards directly and a
   closed-loop slice, so that each pooled figure samples the whole run. *)
let cycles = 4

let run ~root ~bin ~seed ~seconds =
  let rng = Random.State.make [| seed; 11 |] in
  let specs =
    Specs.universe ~distinct:Specs.coalesce_key rng (Specs.corpus ()) ~size:universe_size
  in
  let slice = seconds /. float_of_int cycles in
  let draw =
    Specs.no_repeat ~gap:no_repeat_within (fun () -> Random.State.int rng universe_size)
  in
  let slices =
    List.init cycles (fun _ ->
        let arrivals =
          Specs.arrivals rng ~rate:open_rate ~n:(int_of_float (open_rate *. open_share *. slice))
        in
        (arrivals, Array.map (fun _ -> draw ()) arrivals))
  in
  let next_id = ref 0 in
  let mk ?due ?(req = "prepare") ~conn tag =
    incr next_id;
    Load.request ?due ~conn ~tag ~id:!next_id (Specs.line ~req ~id:!next_id specs.(tag))
  in
  let dir = Proc.scratch_dir root (Printf.sprintf "router_warm-%d" (Unix.getpid ())) in
  let port_of p = int_of_string (String.trim (Proc.read_announcement p "PORT=")) in
  let shard i tag =
    let p =
      Proc.spawn ~name:(Printf.sprintf "dmfd shard %d" i)
        ~log:(Filename.concat dir (Printf.sprintf "%s-shard%d.log" tag i))
        (bin "dmfd")
        [ "--port"; "0"; "--workers"; "1"; "--cache-capacity"; string_of_int cache_capacity ]
    in
    (p, port_of p)
  in
  let router tag ports =
    let p =
      Proc.spawn ~name:"dmfrouter"
        ~log:(Filename.concat dir (tag ^ "-router.log"))
        (bin "dmfrouter")
        (List.concat_map (fun port -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" port ]) ports
        @ [ "--port"; "0" ])
    in
    (p, port_of p)
  in
  let stop ps =
    List.iter (fun p -> Proc.signal p Sys.sigterm) ps;
    List.iter
      (fun p ->
        match Proc.wait p with
        | Some (Unix.WEXITED 0) -> ()
        | _ -> Serving.fail (p.Proc.name ^ " did not exit cleanly on SIGTERM"))
      ps
  in
  (* Set-up: two shards and a router, from the first spawn to a ping
     answered through the router. *)
  let setup = ref [] in
  let boot tag =
    let t0 = Clock.now () in
    let s0, p0 = shard 0 tag in
    let s1, p1 = shard 1 tag in
    let r, rport = router tag [ p0; p1 ] in
    let conn = Conn.connect rport in
    Serving.ping conn;
    setup := (Clock.now () -. t0) :: !setup;
    ([| s0; s1 |], [| p0; p1 |], r, rport, conn)
  in
  let probe () =
    let shards, _, r, _, conn = boot "probe" in
    Conn.close conn;
    stop (r :: Array.to_list shards)
  in
  let shards, ports, r, rport, conn = boot "serving" in
  (* Warm-up, one request at a time so that nothing coalesces: every
     key is then cached for its own demand on its owning shard. *)
  let warm = Array.init universe_size (fun tag -> mk ~conn:0 tag) in
  Load.batch [| conn |] warm ~window:1 ~timeout:120.;
  (* The number of blocks times the median block: a stall spoils one
     block only. *)
  let eval_s =
    let blocks = universe_size / block in
    float_of_int blocks
    *. Stat.median
         (Array.init blocks (fun i ->
              warm.(((i + 1) * block) - 1).Load.recv -. warm.(i * block).Load.sent))
  in
  let warm_answers = Serving.answers specs warm in
  Serving.report "warm-up" warm warm_answers
    ~extra:(Printf.sprintf "  (one at a time through the router, %.3f s)" eval_s)
    ();
  let routes = Array.init universe_size (fun tag -> mk ~req:"route" ~conn:0 tag) in
  Load.batch [| conn |] routes ~window:64 ~timeout:60.;
  let owner =
    Array.map
      (fun (q : Load.request) ->
        match J.parse q.Load.answer with
        | Ok j -> (
          match J.int [ "shard" ] j with
          | Some s when s = 0 || s = 1 -> s
          | _ -> failwith ("bad route answer: " ^ q.Load.answer))
        | Error e -> failwith ("bad route answer: " ^ e))
      routes
  in
  Conn.close_after_peer conn;
  let open_slice connect (arrivals, tags) conn_of =
    let n = Array.length tags in
    let per = (n + open_parts - 1) / open_parts in
    Array.concat
      (List.init open_parts (fun j ->
           let lo = min n (j * per) in
           let hi = min n (lo + per) in
           if hi = lo then [||]
           else
           let conns = connect () in
           let t_start = Clock.now () +. 0.01 in
           let reqs =
             Array.init (hi - lo) (fun k ->
                 let tag = tags.(lo + k) in
                 mk ~due:(t_start +. arrivals.(lo + k) -. arrivals.(lo)) ~conn:(conn_of (lo + k) tag) tag)
           in
           (* Fewer outstanding than [no_repeat_within]: no key twice in flight. *)
           Load.open_loop conns reqs ~max_outstanding:128 ~timeout:60.;
           Array.iter Conn.close_after_peer conns;
           reqs))
  in
  let cycle s =
    for _ = 1 to probes_per_cycle do
      probe ()
    done;
    let via =
      open_slice (fun () -> Array.init streams (fun _ -> Conn.connect rport)) s (fun k _ ->
          k mod streams)
    in
    let direct = open_slice (fun () -> Array.map Conn.connect ports) s (fun _ tag -> owner.(tag)) in
    let closed =
      List.init closed_parts (fun _ ->
          let conns = Array.init streams (fun _ -> Conn.connect rport) in
          let closed, completed, busy =
            Load.closed_loop conns ~window
              ~duration:(closed_share *. slice /. float_of_int closed_parts)
              ~timeout:60.
              ~next:(fun c -> mk ~conn:c (draw ()))
          in
          Array.iter Conn.close_after_peer conns;
          (closed, float_of_int completed /. busy))
    in
    (via, direct, Array.concat (List.map fst closed), List.map snd closed)
  in
  let runs = List.map cycle slices in
  let pool f = Array.concat (List.map f runs) in
  let via_router = pool (fun (v, _, _, _) -> v) in
  let direct = pool (fun (_, d, _, _) -> d) in
  let closed = pool (fun (_, _, c, _) -> c) in
  let rates = Array.of_list (List.concat_map (fun (_, _, _, r) -> r) runs) in
  let req_per_s = Stat.median rates in
  let via_router_answers = Serving.answers specs via_router in
  let latency =
    Serving.open_loop_report "open/router" via_router via_router_answers ~rate:open_rate
      ~slices:(cycles * open_parts)
  in
  let direct_answers = Serving.answers specs direct in
  let direct_latency =
    Serving.open_loop_report "open/direct" direct direct_answers ~rate:open_rate
      ~slices:(cycles * open_parts)
  in
  let closed_answers = Serving.answers specs closed in
  Serving.report "closed/router" closed closed_answers
    ~extra:
      (Printf.sprintf
         "  (%d parts, window %d on each of %d streams, median %.1f req/s)\n      parts: %s req/s"
         (Array.length rates) window streams req_per_s
         (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") rates))))
    ();
  (* Merged stats: per shard, every prepare it answered is accounted for. *)
  let st =
    let conn = Conn.connect rport in
    let st = Serving.stats conn in
    Conn.close_after_peer conn;
    st
  in
  let per_shard = match J.path [ "shards" ] st with Some (J.Arr l) -> l | _ -> [] in
  Serving.expect (List.length per_shard = 2 && Serving.count [ "cluster"; "healthy" ] st = 2)
    "router stats: %d shards listed" (List.length per_shard);
  let phases =
    [ (warm, warm_answers); (via_router, via_router_answers); (direct, direct_answers);
      (closed, closed_answers) ]
  in
  List.iteri
    (fun i s ->
      let prepares =
        List.fold_left
          (fun acc (reqs, _) ->
            Array.fold_left
              (fun acc (q : Load.request) -> if owner.(q.Load.tag) = i then acc + 1 else acc)
              acc reqs)
          0 phases
      in
      Serving.accounting ~who:(Printf.sprintf "shard %d" i) ~prepares ~others:0 s)
    per_shard;
  (* Warm answers are each key's reference; an answer for the same
     demand, through the router or straight from its shard, must match. *)
  let not_warm = ref 0 in
  List.iter
    (fun (reqs, answers) ->
      Array.iteri
        (fun k (q : Load.request) ->
          match (answers.(k), warm_answers.(q.Load.tag)) with
          | Some (a : Specs.answer), Some (w : Specs.answer) ->
            if not a.Specs.cache_hit then incr not_warm;
            if a.Specs.summary.C.batch_demand = a.Specs.summary.C.demand then
              Serving.expect
                (C.same_plan a.Specs.summary w.Specs.summary && a.Specs.scheme = w.Specs.scheme)
                "%s: answer differs from the shard's warm answer" (Specs.key specs.(q.Load.tag))
          | _ -> ())
        reqs)
    (List.tl phases);
  Serving.expect (!not_warm = 0)
    "%d timed answers were not cache hits: the run did not stay warm" !not_warm;
  let peak_rss_mb =
    List.fold_left (fun acc p -> acc +. Proc.peak_rss_mb p.Proc.pid) 0. (r :: Array.to_list shards)
  in
  (* Router recovery: SIGKILL it, start a new one over the same shards,
     time spawn to the first answered prepare of a cached key. *)
  let recoveries = ref [] in
  let rec restart i r =
    Proc.kill r;
    let t0 = Clock.now () in
    let r, rport = router (Printf.sprintf "restart%d" i) (Array.to_list ports) in
    let conn = Conn.connect rport in
    let q = mk ~conn:0 (i mod universe_size) in
    Load.batch [| conn |] [| q |] ~window:1 ~timeout:60.;
    recoveries := (Clock.now () -. t0) :: !recoveries;
    (match (Serving.answers specs [| q |]).(0), warm_answers.(q.Load.tag) with
    | Some a, Some w ->
      Serving.expect
        (a.Specs.cache_hit && C.same_plan a.Specs.summary w.Specs.summary)
        "restarted router: key %d not served warm" q.Load.tag
    | _ -> ());
    Conn.close conn;
    if i < restarts then restart (i + 1) r else r
  in
  let r = restart 1 r in
  stop (r :: Array.to_list shards);
  (* No process is spawned after this point. *)
  let verified =
    Serving.verify_sample (Random.State.make [| seed; 13 |]) specs phases ~n:200
  in
  Printf.printf "verified %d sampled answers against in-process re-plans\n" verified;
  let answers =
    List.concat_map (fun (_, a) -> List.filter_map Fun.id (Array.to_list a)) phases
  in
  let count k = float_of_int (Serving.count k st) in
  let hits = count [ "cache"; "hits" ] and misses = count [ "cache"; "misses" ] in
  let elapsed = Serving.elapsed via_router_answers in
  [
    ("setup_s", Stat.median (Array.of_list !setup));
    ("eval_s", eval_s);
    ("req_per_s", req_per_s);
    ("latency_p50_ms", Stat.quantile 0.5 latency);
    ("recovery_s", Stat.median (Array.of_list !recoveries));
    ("peak_rss_mb", peak_rss_mb);
    ("service.elapsed_p50_ms", Stat.quantile 0.5 elapsed);
    ("service.elapsed_p99_ms", Stat.quantile 0.99 elapsed);
    ( "service.transport_p50_ms",
      Stat.quantile 0.5 (Serving.transport via_router via_router_answers) );
    ("service.cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("service.cache_evictions", count [ "cache"; "evictions" ]);
    ("service.coalesced", count [ "coalesced" ]);
    ("service.plans_built", count [ "plans_built" ]);
    ( "service.batch_demand_mean",
      Stat.mean
        (Array.of_list
           (List.map
              (fun (a : Specs.answer) -> float_of_int a.Specs.summary.C.batch_demand)
              answers)) );
    ("cluster.hop_p50_ms", Stat.quantile 0.5 latency -. Stat.quantile 0.5 direct_latency);
    ("cluster.hop_p99_ms", Stat.quantile 0.99 latency -. Stat.quantile 0.99 direct_latency);
    ( "cluster.shard_answered",
      List.fold_left (fun acc s -> acc +. float_of_int (Serving.count [ "answered" ] s)) 0. per_shard );
  ]
  @ Serving.core_layers ()
