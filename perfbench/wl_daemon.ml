(* daemon_zipf: one `dmfd --stdio` with its durable defaults (strict
   group-commit WAL, snapshot every 512 records, plan store, 1024-plan
   LRU) and one planning worker, under Zipf-popular prepares over
   corpus ratios.  The key universe is four times the LRU, so hits,
   coalesced batches, fresh plans, store writes and store reads all
   occur.  The run ends by SIGKILLing the idle daemon and restarting it
   on the same directories.  One worker: on a 2-core machine two worker
   domains and the load generator oversubscribe the cores, and the
   same seed's throughput then spread by 20% from run to run. *)

module C = Perfbench_core.Checks

let universe_size = 4096

let zipf_s = 1.0

(* The measured phases run in whole cycles of the same requests: a cold
   batch, the q'-budgeted prepares, a closed-loop slice and an open-loop
   slice.  Each pooled figure then samples the whole run, and every run
   attempts the same number of each (one cycle per [cycle_seconds] of
   --seconds). *)
let cycle_seconds = 6.25

let cold_batch = 256

let open_per_cycle = 150

let closed_per_cycle = 512

(* Records journaled after the last snapshot when the daemon is killed,
   so that every run recovers the same amount of journal. *)
let tail_records = 256

let open_rate = 50.

let hot = 64

let window = 16

let restarts = 4

(* Set-up is timed on fresh daemons besides the one that serves: this
   many before the timed phases and as many after the restarts, so that
   their start-up and shut-down writes land in no timed phase and the
   median spans the run.  Timed all at once at the start, the median
   moved by half from run to run. *)
let probes = 14

let recent_specs = 32

let run ~root ~bin ~seed ~seconds =
  let cycles = max 1 (int_of_float (seconds /. cycle_seconds)) in
  let rng = Random.State.make [| seed; 1 |] in
  (* The Zipf traffic draws from the first [universe_size] specs; each
     cycle's cold batch takes the next [cold_batch], which nothing else
     asks for; the budgeted prepares follow. *)
  let drawn =
    Specs.universe rng (Specs.corpus ()) ~size:(universe_size + (cycles * cold_batch))
  in
  let budgeted = Specs.budgeted () in
  let specs = Array.append drawn budgeted in
  let cdf = Specs.zipf ~s:zipf_s ~n:universe_size in
  (* The open loop asks for the 64 most popular specs in one seeded
     order, repeated: cache hits whose latency is the serving and
     journaling path.  Each spec comes up once in every 64 requests, so
     none is twice in flight (none coalesces) and every cycle touches
     all of them: between two touches the LRU takes at most 256 cold,
     37 budgeted and 512 closed-loop specs, fewer than its 1024, so none
     is evicted.  Drawn from every planned spec, whose less popular
     members can drop out of the LRU between slices, the p95 swung from
     5.6 to 18 ms over ten seeds.  Fresh plans, coalescing and the plan
     store come from the closed loop, drawn from the whole universe. *)
  let order = Array.init hot Fun.id in
  for i = hot - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let hot_sent = ref 0 in
  let draw () =
    incr hot_sent;
    order.((!hot_sent - 1) mod hot)
  in
  let slices =
    List.init cycles (fun _ ->
        let arrivals = Specs.arrivals rng ~rate:open_rate ~n:open_per_cycle in
        (arrivals, Array.map (fun _ -> draw ()) arrivals))
  in
  let closed_rng = Random.State.make [| seed; 2 |] in
  let next_id = ref 0 in
  let mk ?due ~conn tag =
    incr next_id;
    Load.request ?due ~conn ~tag ~id:!next_id (Specs.line ~id:!next_id specs.(tag))
  in
  let dir =
    Proc.scratch_dir root (Printf.sprintf "daemon_zipf-%d" (Unix.getpid ()))
  in
  let launch ~under name =
    let t0 = Clock.now () in
    let d =
      Proc.spawn ~keep_stdin:true ~name:"dmfd"
        ~log:(Filename.concat dir (name ^ ".log"))
        (bin "dmfd")
        [ "--stdio"; "--workers"; "1"; "--wal-dir"; Filename.concat under "wal";
          "--store-dir"; Filename.concat under "store" ]
    in
    let conn = Conn.of_fds d.Proc.from_child (Option.get d.Proc.to_child) in
    Serving.ping conn;
    (d, conn, t0)
  in
  let shut d =
    Proc.close_stdin d;
    match Proc.wait d with
    | Some (Unix.WEXITED 0) -> ()
    | _ -> Serving.fail "dmfd did not shut down cleanly at end of input"
  in
  (* Set-up: a fresh daemon on empty directories, from spawn to its
     first answered ping. *)
  let setup = ref [] in
  let serving = Filename.concat dir "serving" and probing = Filename.concat dir "probe" in
  let d, conn, t0 = launch ~under:serving "serving" in
  setup := (Clock.now () -. t0) :: !setup;
  let probe () =
    Proc.rm_rf probing;
    let d, _, t0 = launch ~under:probing "probe" in
    setup := (Clock.now () -. t0) :: !setup;
    shut d
  in
  let conns = [| conn |] in
  let stats_calls = ref 0 in
  let stats () =
    incr stats_calls;
    Serving.stats conn
  in
  (* Cache hits of the most popular spec, one at a time (an accepted and
     a completed record each), move the journal to a known distance past
     a snapshot. *)
  let padding = ref [] in
  let pad k =
    for _ = 1 to k do
      let q = mk ~conn:0 0 in
      Load.batch conns [| q |] ~window:1 ~timeout:60.;
      padding := q :: !padding
    done
  in
  let snapshots () = Serving.count [ "wal"; "snapshots_written" ] (stats ()) in
  let to_snapshot () =
    let before = snapshots () in
    while snapshots () = before do
      pad 1
    done
  in
  let cycle c (arrivals, tags) =
    (* A batch of specs never asked before, planned from scratch: the
       stats must show no cache hit and no plan-store read for it. *)
    let cold = Array.init cold_batch (fun k -> mk ~conn:0 (universe_size + (c * cold_batch) + k)) in
    let st0 = stats () in
    let t0 = Clock.now () in
    Load.batch conns cold ~window ~timeout:120.;
    let cold_s = Clock.now () -. t0 in
    let st1 = stats () in
    let delta k = Serving.count k st1 - Serving.count k st0 in
    Serving.expect
      (delta [ "cache"; "hits" ] = 0
      && delta [ "plan_store"; "hits" ] = 0
      && delta [ "plan_store"; "served_from_store" ] = 0
      && delta [ "plans_built" ] + delta [ "coalesced" ] = cold_batch)
      "cycle %d: cold batch of %d met %d cache hits and %d store hits; %d planned, %d \
       coalesced"
      (c + 1) cold_batch (delta [ "cache"; "hits" ]) (delta [ "plan_store"; "hits" ])
      (delta [ "plans_built" ]) (delta [ "coalesced" ]);
    (* The budgeted prepares one at a time, so that none coalesce. *)
    let budget = Array.mapi (fun k _ -> mk ~conn:0 (Array.length drawn + k)) budgeted in
    Load.batch conns budget ~window:1 ~timeout:120.;
    let closed = Array.init closed_per_cycle (fun _ -> mk ~conn:0 (Specs.draw closed_rng cdf)) in
    let t0 = Clock.now () in
    Load.batch conns closed ~window ~timeout:120.;
    let closed_s = Clock.now () -. t0 in
    let t_start = Clock.now () +. 0.01 in
    let opened = Array.mapi (fun k tag -> mk ~due:(t_start +. arrivals.(k)) ~conn:0 tag) tags in
    Load.open_loop conns opened ~max_outstanding:512 ~timeout:60.;
    (cold, cold_s, budget, opened, closed, closed_s)
  in
  (* Before timing, the hot specs once each, one at a time so that each
     is cached under its own key: every open-loop request is then a
     cache hit. *)
  for _ = 1 to probes do
    probe ()
  done;
  let warm = Array.init hot (fun tag -> mk ~conn:0 tag) in
  Load.batch conns warm ~window:1 ~timeout:120.;
  let runs = List.mapi cycle slices in
  let pool f = Array.concat (List.map f runs) in
  let cold = pool (fun (c, _, _, _, _, _) -> c) in
  let budget = pool (fun (_, _, b, _, _, _) -> b) in
  let opened = pool (fun (_, _, _, o, _, _) -> o) in
  let closed = pool (fun (_, _, _, _, c, _) -> c) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. runs in
  let eval_s = sum (fun (_, s, _, _, _, _) -> s) in
  let req_per_s = float_of_int (Array.length closed) /. sum (fun (_, _, _, _, _, s) -> s) in
  let warm_answers = Serving.answers ~counted:false specs warm in
  Serving.report "warm-up" warm warm_answers
    ~extra:(Printf.sprintf "  (the %d hot specs, one at a time, untimed)" hot) ();
  let cold_answers = Serving.answers specs cold in
  Serving.report "cold" cold cold_answers
    ~extra:
      (Printf.sprintf "  (%d batches of %d, window %d on 1 stream, %.3f s)" cycles
         cold_batch window eval_s)
    ();
  Array.iteri
    (fun i a ->
      match a with
      | Some (a : Specs.answer) ->
        Serving.expect (not a.Specs.cache_hit) "%s: a cold request answered as a cache hit"
          (Specs.key specs.(cold.(i).Load.tag))
      | None -> ())
    cold_answers;
  let budget_answers = Serving.answers specs budget in
  Serving.report "budgeted" budget budget_answers
    ~extra:
      (Printf.sprintf "  (%d q'-budgeted specs per cycle, one at a time)"
         (Array.length budgeted))
    ();
  let open_answers = Serving.answers specs opened in
  let latency =
    Serving.open_loop_report "open" opened open_answers ~rate:open_rate ~slices:cycles
  in
  Array.iteri
    (fun i a ->
      match a with
      | Some (a : Specs.answer) ->
        Serving.expect a.Specs.cache_hit "%s: an open-loop request missed the cache"
          (Specs.key specs.(opened.(i).Load.tag))
      | None -> ())
    open_answers;
  let closed_answers = Serving.answers specs closed in
  Serving.report "closed" closed closed_answers
    ~extra:
      (Printf.sprintf "  (%d slices of %d, window %d on 1 stream, %.1f req/s overall)" cycles
         closed_per_cycle window req_per_s)
    ();
  let prepares =
    Array.length warm + Array.length cold + Array.length budget + Array.length opened
    + Array.length closed + List.length !padding
  in
  let others = 1 + !stats_calls in
  let st = stats () in
  Serving.accounting ~who:"dmfd" ~prepares ~others st;
  let peak_rss_mb = Proc.peak_rss_mb d.Proc.pid in
  (* The most recent specs answered for their own demand must come back
     from the recovered cache. *)
  let recent =
    let seen = Hashtbl.create recent_specs in
    let out = ref [] in
    for i = Array.length closed - 1 downto 0 do
      match closed_answers.(i) with
      | Some (a : Specs.answer)
        when List.length !out < recent_specs
             && a.Specs.summary.C.batch_demand = a.Specs.summary.C.demand
             && not (Hashtbl.mem seen closed.(i).Load.tag) ->
        Hashtbl.add seen closed.(i).Load.tag ();
        out := (closed.(i).Load.tag, a) :: !out
      | _ -> ()
    done;
    !out
  in
  (* Leave exactly [tail_records] past a snapshot, then SIGKILL the idle
     daemon. *)
  to_snapshot ();
  pad (tail_records / 2);
  let padding = Array.of_list (List.rev !padding) in
  Serving.report "padding" padding (Serving.answers ~counted:false specs padding)
    ~extra:"  (cache hits one at a time, up to a snapshot and the journal tail)"
    ();
  Proc.kill d;
  let recoveries = ref [] and replay = ref [] and prime = ref [] in
  for r = 1 to restarts do
    let d, conn, t0 = launch ~under:serving (Printf.sprintf "restart%d" r) in
    recoveries := (Clock.now () -. t0) :: !recoveries;
    let st = Serving.stats conn in
    let rec_ = [ "wal"; "recovery" ] in
    Serving.expect
      (abs (Serving.count (rec_ @ [ "replayed" ]) st - tail_records) <= 2)
      "restart %d replayed %d records, not the %d-record tail" r
      (Serving.count (rec_ @ [ "replayed" ]) st) tail_records;
    replay := Serving.num (rec_ @ [ "wall_ms" ]) st :: !replay;
    let plans = Serving.count (rec_ @ [ "primed_plans" ]) st in
    Serving.expect (plans > 0) "restart %d primed no plans" r;
    prime :=
      (1000. *. Serving.num (rec_ @ [ "prime_ms" ]) st /. float_of_int (max 1 plans))
      :: !prime;
    if r < restarts then Proc.kill d
    else begin
      let again = Array.of_list (List.map (fun (tag, _) -> mk ~conn:0 tag) recent) in
      Load.batch [| conn |] again ~window:1 ~timeout:60.;
      let again_answers = Serving.answers ~counted:false specs again in
      Serving.report "after restart" again again_answers
        ~extra:(Printf.sprintf "  (%d recent specs, one at a time)" (Array.length again))
        ();
      List.iteri
        (fun i (tag, (before : Specs.answer)) ->
          match again_answers.(i) with
          | Some (a : Specs.answer) ->
            Serving.expect
              (a.Specs.cache_hit && a.Specs.scheme = before.Specs.scheme
              && C.same_plan a.Specs.summary before.Specs.summary)
              "%s: not an identical cache hit after the restart" (Specs.key specs.(tag))
          | None -> ())
        recent;
      let st = Serving.stats conn in
      Serving.accounting ~who:"restarted dmfd" ~prepares:(Array.length again) ~others:2 st;
      Serving.expect
        (Serving.count [ "cache"; "hits" ] st = Array.length again)
        "restarted dmfd: %d cache hits for %d recent specs"
        (Serving.count [ "cache"; "hits" ] st)
        (Array.length again);
      shut d
    end
  done;
  for _ = 1 to probes do
    probe ()
  done;
  (* No daemon is spawned after this point: the re-plans below may use
     the library's domains. *)
  let all =
    [ (warm, warm_answers); (cold, cold_answers); (opened, open_answers);
      (closed, closed_answers) ]
  in
  let verified = Serving.verify_sample (Random.State.make [| seed; 3 |]) specs all ~n:200 in
  let verified_budgeted =
    Serving.verify_sample (Random.State.make [| seed; 4 |]) specs [ (budget, budget_answers) ]
      ~n:(Array.length budgeted)
  in
  Printf.printf
    "verified %d sampled answers and %d budgeted ones against in-process re-plans\n" verified
    verified_budgeted;
  let all = (budget, budget_answers) :: all in
  let answers = List.concat_map (fun (_, a) -> List.filter_map Fun.id (Array.to_list a)) all in
  let batch_mean =
    Stat.mean
      (Array.of_list
         (List.map (fun (a : Specs.answer) -> float_of_int a.Specs.summary.C.batch_demand) answers))
  in
  let count k = float_of_int (Serving.count k st) in
  let hits = count [ "cache"; "hits" ] and misses = count [ "cache"; "misses" ] in
  let entries = count [ "plan_store"; "entries" ] in
  let elapsed = Serving.elapsed open_answers in
  [
    ("setup_s", Stat.median (Array.of_list !setup));
    ("eval_s", eval_s);
    ("req_per_s", req_per_s);
    ("latency_p50_ms", Stat.quantile 0.5 latency);
    ("recovery_s", Stat.median (Array.of_list !recoveries));
    ("peak_rss_mb", peak_rss_mb);
    ("service.elapsed_p50_ms", Stat.quantile 0.5 elapsed);
    ("service.elapsed_p99_ms", Stat.quantile 0.99 elapsed);
    ("service.transport_p50_ms", Stat.quantile 0.5 (Serving.transport opened open_answers));
    ("service.cache_hit_ratio", if hits +. misses > 0. then hits /. (hits +. misses) else 0.);
    ("service.cache_evictions", count [ "cache"; "evictions" ]);
    ("service.coalesced", count [ "coalesced" ]);
    ("service.plans_built", count [ "plans_built" ]);
    ("service.batch_demand_mean", batch_mean);
    ("durable.fsyncs_per_req", count [ "wal"; "fsyncs" ] /. float_of_int prepares);
    ("durable.avg_batch_size", Serving.num [ "wal"; "avg_batch_size" ] st);
    ("durable.snapshots", count [ "wal"; "snapshots_written" ]);
    ("durable.store_hits", count [ "plan_store"; "hits" ]);
    ("durable.store_writes", count [ "plan_store"; "writes" ]);
    ( "durable.store_bytes_per_entry",
      if entries > 0. then count [ "plan_store"; "bytes" ] /. entries else 0. );
    ("durable.replay_ms", Stat.median (Array.of_list !replay));
    ("durable.prime_us_per_plan", Stat.median (Array.of_list !prime));
  ]
  @ Serving.core_layers ()
