(* The preparation server: JSON codec round-trips, admission-queue
   coalescing (the paper's demand aggregation), LRU plan-cache
   eviction, and an end-to-end stdio smoke with counter accounting. *)

open QCheck2

let pcr16 = Generators.pcr16

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let json_gen =
  let open Gen in
  let scalar =
    oneof
      [
        return Service.Jsonl.Null;
        map (fun b -> Service.Jsonl.Bool b) bool;
        map (fun i -> Service.Jsonl.Int i) (int_range (-1_000_000) 1_000_000);
        map (fun f -> Service.Jsonl.Float f) (float_range (-1e9) 1e9);
        map (fun s -> Service.Jsonl.String s) (string_size (int_range 0 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            ( 1,
              map
                (fun vs -> Service.Jsonl.List vs)
                (list_size (int_range 0 4) (self (depth - 1))) );
            ( 1,
              map
                (fun kvs -> Service.Jsonl.Obj kvs)
                (list_size (int_range 0 4)
                   (pair key (self (depth - 1)))) );
          ])
    2

let prop_json_roundtrip =
  Generators.qtest ~count:500 "Jsonl round-trips any value it prints"
    json_gen
    (fun v -> Service.Jsonl.to_string v)
    (fun v ->
      match Service.Jsonl.of_string (Service.Jsonl.to_string v) with
      | Ok v' -> Service.Jsonl.equal v v'
      | Error _ -> false)

let spec_gen =
  let open Gen in
  Generators.ratio_gen >>= fun ratio ->
  Generators.demand_gen >>= fun demand ->
  Generators.algorithm_gen >>= fun algorithm ->
  oneofl [ Mdst.Scheduler.mms; Mdst.Scheduler.srs; Mdst.Scheduler.oms ] >>= fun scheduler ->
  opt (int_range 1 8) >>= fun mixers ->
  opt (int_range 1 12) >|= fun storage_limit ->
  { Service.Request.ratio; demand; algorithm; scheduler; mixers; storage_limit }

let spec_print (s : Service.Request.spec) = Service.Request.cache_key s

let prop_request_roundtrip =
  Generators.qtest ~count:300 "Request round-trips through its JSON encoding"
    spec_gen spec_print (fun spec ->
      let request =
        { Service.Request.id = Some (Service.Jsonl.Int 42); kind = Prepare spec }
      in
      match Service.Request.of_json (Service.Request.to_json request) with
      | Ok { Service.Request.id = Some (Service.Jsonl.Int 42); kind = Prepare spec' } ->
        Service.Request.cache_key spec = Service.Request.cache_key spec'
        && Dmf.Ratio.equal spec.Service.Request.ratio
             spec'.Service.Request.ratio
      | Ok _ | Error _ -> false)

let decode_errors () =
  let reject line =
    match Service.Request.of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" line
  in
  reject "not json at all";
  reject {|{"ratio": "2:1:1", "D": 4}|};
  (* no req field *)
  reject {|{"req": "prepare", "D": 4}|};
  (* no ratio *)
  reject {|{"req": "prepare", "ratio": "3:3", "D": 4}|};
  (* sum not 2^d *)
  reject {|{"req": "prepare", "ratio": "2:1:1", "D": 0}|};
  reject {|{"req": "prepare", "ratio": "2:1:1", "D": -3}|};
  reject {|{"req": "prepare", "ratio": "2:1:1", "D": 4, "Mc": 0}|};
  reject {|{"req": "prepare", "ratio": "2:1:1", "D": 4, "scheduler": "XYZ"}|};
  reject {|{"req": "frobnicate"}|};
  (* protocol ids resolve like on the dmfstream command line *)
  match Service.Request.of_line {|{"req": "prepare", "ratio": "pcr16", "D": 4}|} with
  | Ok { Service.Request.kind = Prepare spec; _ } ->
    Alcotest.(check bool) "pcr16 resolves" true
      (Dmf.Ratio.equal spec.Service.Request.ratio pcr16)
  | Ok _ | Error _ -> Alcotest.fail "protocol-id ratio rejected"

(* ------------------------------------------------------------------ *)
(* Coalescing                                                          *)

let spec_for ?(demand = 4) () =
  {
    Service.Request.ratio = pcr16;
    demand;
    algorithm = Mixtree.Algorithm.MM;
    scheduler = Mdst.Scheduler.srs;
    mixers = Some 3;
    storage_limit = None;
  }

let coalescing () =
  let k = 5 in
  let queue = Service.Queue.create ~capacity:8 () in
  let tickets =
    List.init k (fun _ ->
        match Service.Queue.submit queue (spec_for ()) with
        | Ok ticket -> ticket
        | Error msg -> Alcotest.failf "submit rejected: %s" msg)
  in
  (* All k requests merged into a single pending planning job. *)
  Alcotest.(check int) "one pending job" 1 (Service.Queue.depth queue);
  Alcotest.(check int) "k-1 merges" (k - 1) (Service.Queue.coalesced_total queue);
  (* One worker takes the batch: its demand is the sum. *)
  let job =
    match Service.Queue.take queue with
    | Some job -> job
    | None -> Alcotest.fail "queue gave no job"
  in
  Alcotest.(check int) "batch answers k requests" k
    (Service.Queue.job_requests job);
  let spec = Service.Queue.job_spec job in
  Alcotest.(check int) "summed demand" (k * 4) spec.Service.Request.demand;
  (* A request arriving after the take starts a fresh job. *)
  let late =
    match Service.Queue.submit queue (spec_for ()) with
    | Ok t -> t
    | Error msg -> Alcotest.failf "late submit rejected: %s" msg
  in
  Alcotest.(check int) "taken job no longer coalesces" 1
    (Service.Queue.depth queue);
  (* Plan once, answer everyone. *)
  let prepared = Service.Prep.run spec in
  Service.Queue.fulfil job
    (Ok
       {
         Service.Queue.prepared;
         batch_demand = spec.Service.Request.demand;
         coalesced = Service.Queue.job_requests job;
         cache_hit = false;
       });
  let plan, schedule =
    match (prepared.Service.Prep.plan, prepared.Service.Prep.schedule) with
    | Some p, Some s -> (p, s)
    | _ -> Alcotest.fail "single-pass job kept no plan"
  in
  (* The one batch schedule is valid and serves every waiter's own D. *)
  (match Mdst.Schedule.validate ~plan schedule with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "batch schedule invalid: %s" msg);
  List.iter
    (fun ticket ->
      match Service.Queue.wait ticket with
      | Ok outcome ->
        Alcotest.(check int) "batch demand seen by waiter" (k * 4)
          outcome.Service.Queue.batch_demand;
        Alcotest.(check int) "waiter count" k outcome.Service.Queue.coalesced;
        Alcotest.(check bool) "batch covers this waiter's demand" true
          (Mdst.Plan.targets plan >= Service.Queue.ticket_demand ticket)
      | Error msg -> Alcotest.failf "waiter failed: %s" msg)
    tickets;
  (* The batch metrics equal a direct Mdst call for the summed demand
     (the acceptance check: the server adds no cost of its own). *)
  let direct =
    Mdst.Engine.prepare
      {
        Mdst.Engine.ratio = pcr16;
        demand = k * 4;
        algorithm = Mixtree.Algorithm.MM;
        scheduler = Mdst.Scheduler.srs;
        mixers = Some 3;
      }
  in
  let s = prepared.Service.Prep.summary in
  Alcotest.(check int) "Tc matches direct engine call"
    direct.Mdst.Engine.metrics.Mdst.Metrics.tc s.Service.Response.tc;
  Alcotest.(check int) "W matches" direct.Mdst.Engine.metrics.Mdst.Metrics.waste
    s.Service.Response.waste;
  Alcotest.(check int) "q matches" direct.Mdst.Engine.metrics.Mdst.Metrics.q
    s.Service.Response.q;
  (* Drain the late job so its waiter resolves too. *)
  (match Service.Queue.take queue with
  | Some late_job ->
    Service.Queue.fulfil late_job (Error "not planned in this test")
  | None -> Alcotest.fail "late job missing");
  (match Service.Queue.wait late with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "late waiter resolved against the taken batch");
  Service.Queue.close queue

let demand_cap_merge () =
  (* Merging never pushes a batch past Validate.max_demand: the
     overflowing request becomes its own fresh job. *)
  let queue = Service.Queue.create ~capacity:8 () in
  let big = Service.Validate.max_demand - 2 in
  let submit d =
    match Service.Queue.submit queue (spec_for ~demand:d ()) with
    | Ok t -> t
    | Error msg -> Alcotest.failf "submit rejected: %s" msg
  in
  let _t1 = submit big in
  let _t2 = submit 4 in
  Alcotest.(check int) "second job opened" 2 (Service.Queue.depth queue);
  Alcotest.(check int) "no merge past the cap" 0
    (Service.Queue.coalesced_total queue);
  (* The fresh job is now the coalescing target. *)
  let _t3 = submit 4 in
  Alcotest.(check int) "third request merges into the fresh job" 1
    (Service.Queue.coalesced_total queue);
  Service.Queue.close queue

(* ------------------------------------------------------------------ *)
(* LRU cache                                                           *)

let lru_eviction () =
  let cache = Service.Cache.create ~capacity:2 in
  Service.Cache.add cache "a" 1;
  Service.Cache.add cache "b" 2;
  (* Touch "a": now "b" is the least recently used. *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Service.Cache.find cache "a");
  Service.Cache.add cache "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Service.Cache.peek cache "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Service.Cache.peek cache "a");
  Alcotest.(check (list string)) "MRU order" [ "c"; "a" ]
    (Service.Cache.keys cache);
  Alcotest.(check (option int)) "miss counted" None
    (Service.Cache.find cache "b");
  let s = Service.Cache.stats cache in
  Alcotest.(check int) "hits" 1 s.Service.Cache.hits;
  Alcotest.(check int) "misses" 1 s.Service.Cache.misses;
  Alcotest.(check int) "evictions" 1 s.Service.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Service.Cache.size;
  (* Overwriting refreshes recency instead of growing the cache. *)
  Service.Cache.add cache "a" 10;
  Service.Cache.add cache "d" 4;
  Alcotest.(check (list string)) "c evicted after a's refresh" [ "d"; "a" ]
    (Service.Cache.keys cache);
  Alcotest.(check (list int)) "values in MRU order, a overwritten" [ 4; 10 ]
    (Service.Cache.values cache);
  (* Capacity 0 disables caching. *)
  let off = Service.Cache.create ~capacity:0 in
  Service.Cache.add off "x" 1;
  Alcotest.(check (option int)) "disabled cache stores nothing" None
    (Service.Cache.peek off "x")

let prop_lru_capacity =
  Generators.qtest ~count:200 "LRU never exceeds capacity and evicts in order"
    Gen.(
      pair (int_range 1 8)
        (list_size (int_range 0 40) (int_range 0 11)))
    (Print.pair string_of_int (Print.list string_of_int))
    (fun (capacity, inserts) ->
      let cache = Service.Cache.create ~capacity in
      List.iter
        (fun k -> Service.Cache.add cache (string_of_int k) k)
        inserts;
      (* Reference model: most-recent-first list of distinct keys. *)
      let model =
        List.fold_left
          (fun acc k ->
            let key = string_of_int k in
            key :: List.filter (fun k' -> k' <> key) acc)
          [] inserts
      in
      let expected = List.filteri (fun i _ -> i < capacity) model in
      Service.Cache.keys cache = expected)

(* ------------------------------------------------------------------ *)
(* stdio end-to-end smoke                                              *)

let geti json key =
  match Option.bind (Service.Jsonl.member key json) Service.Jsonl.to_int with
  | Some v -> v
  | None -> Alcotest.failf "response lacks integer %s" key

let getb json key =
  match Option.bind (Service.Jsonl.member key json) Service.Jsonl.to_bool with
  | Some v -> v
  | None -> Alcotest.failf "response lacks bool %s" key

(* Drive [serve_channels] — the exact transport of [dmfd --stdio] — over
   a pair of pipes: write all request lines, close, collect the
   responses.  No sockets, no subprocess. *)
let round_trip server requests =
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  let server_ic = Unix.in_channel_of_descr req_read in
  let server_oc = Unix.out_channel_of_descr resp_write in
  let server_thread =
    Thread.create
      (fun () ->
        Service.Server.serve_channels server server_ic server_oc;
        close_out_noerr server_oc;
        close_in_noerr server_ic)
      ()
  in
  let client_oc = Unix.out_channel_of_descr req_write in
  let client_ic = Unix.in_channel_of_descr resp_read in
  List.iter
    (fun line ->
      output_string client_oc line;
      output_char client_oc '\n')
    requests;
  close_out client_oc;
  let responses =
    List.map
      (fun _ ->
        match Service.Jsonl.of_string (input_line client_ic) with
        | Ok json -> json
        | Error msg -> Alcotest.failf "bad response line: %s" msg)
      requests
  in
  Thread.join server_thread;
  close_in_noerr client_ic;
  responses

let stdio_smoke () =
  let server = Service.Server.create ~workers:1 ~cache_capacity:16 () in
  (* The first prepare (a distinct, larger job) occupies the single
     worker, so the two identical D=20 requests behind it normally
     coalesce while it runs.  The scheduling race is real, though — the
     worker may drain them one by one — so every assertion below holds
     for both outcomes, with the coalesced count [c] read back from the
     response. *)
  let requests =
    [
      {|{"req": "ping", "id": 1}|};
      {|{"req": "prepare", "ratio": "2:1:1:1:1:1:9", "D": 400, "Mc": 1, "id": 2}|};
      {|{"req": "prepare", "ratio": "2:1:1:1:1:1:9", "D": 20, "Mc": 3, "id": 3}|};
      {|{"req": "prepare", "ratio": "3:3", "D": 4, "id": 4}|};
      {|{"req": "prepare", "ratio": "2:1:1:1:1:1:9", "D": 20, "Mc": 3, "id": 5}|};
      {|{"req": "stats", "id": 6}|};
    ]
  in
  let responses = round_trip server requests in
  match responses with
  | [ pong; slow; first; invalid; second; stats ] ->
    Alcotest.(check bool) "pong ok" true (getb pong "ok");
    Alcotest.(check int) "pong echoes id" 1 (geti pong "id");
    Alcotest.(check bool) "slow prepare ok" true (getb slow "ok");
    Alcotest.(check bool) "invalid ratio rejected" false (getb invalid "ok");
    Alcotest.(check int) "error echoes id" 4 (geti invalid "id");
    (* The invalid request never entered the queue, so the identical
       pair is adjacent there.  c = how many requests its planning job
       answered. *)
    let c = geti first "coalesced" in
    if c < 1 || c > 2 then Alcotest.failf "impossible coalesced count %d" c;
    Alcotest.(check int) "own demand echoed" 20 (geti first "D");
    Alcotest.(check int) "batch demand = summed demand" (20 * c)
      (geti first "batch_D");
    (* The response metrics equal a direct engine call for the batch —
       the server adds no cost of its own (the acceptance criterion). *)
    let direct d =
      (Mdst.Engine.prepare
         {
           Mdst.Engine.ratio = pcr16;
           demand = d;
           algorithm = Mixtree.Algorithm.MM;
           scheduler = Mdst.Scheduler.srs;
           mixers = Some 3;
         })
        .Mdst.Engine.metrics
    in
    let batch = direct (20 * c) in
    Alcotest.(check int) "Tc matches direct call" batch.Mdst.Metrics.tc
      (geti first "Tc");
    Alcotest.(check int) "W matches direct call" batch.Mdst.Metrics.waste
      (geti first "W");
    Alcotest.(check int) "q matches direct call" batch.Mdst.Metrics.q
      (geti first "q");
    Alcotest.(check int) "I matches direct call" batch.Mdst.Metrics.input_total
      (geti first "I");
    (* Its twin saw the same plan: the batch when coalesced, the cached
       plan (same cache key) when not.  Either way no second forest. *)
    if c = 2 then begin
      Alcotest.(check int) "twin in same batch" 40 (geti second "batch_D");
      Alcotest.(check bool) "no cache involved" false (getb second "cache_hit")
    end
    else
      Alcotest.(check bool) "twin served from the plan cache" true
        (getb second "cache_hit");
    Alcotest.(check int) "twin same Tc" (geti first "Tc") (geti second "Tc");
    (* Stats accounting, evaluated at its pipeline position: 5 responses
       written before it, one an error; the pair triggered exactly one
       forest construction whichever way the race went. *)
    Alcotest.(check int) "served" 5 (geti stats "served");
    Alcotest.(check int) "errors" 1 (geti stats "errors");
    Alcotest.(check int) "merged requests" (c - 1) (geti stats "coalesced");
    Alcotest.(check int) "planning jobs" (1 + (3 - c)) (geti stats "jobs");
    Alcotest.(check int) "one forest per distinct target" 2
      (geti stats "plans_built");
    let cache =
      match Service.Jsonl.member "cache" stats with
      | Some obj -> obj
      | None -> Alcotest.fail "stats lacks cache object"
    in
    Alcotest.(check int) "cache misses" 2 (geti cache "misses");
    Alcotest.(check int) "cache hits" (2 - c) (geti cache "hits");
    Alcotest.(check int) "cache size" 2 (geti cache "size");
    Alcotest.(check int) "queue drained" 0 (geti stats "queue_depth");
    (* A fresh stream re-asking for the slow job's exact target is a
       guaranteed cache hit: same cache key, nothing to race with. *)
    let warm =
      round_trip server
        [ {|{"req": "prepare", "ratio": "2:1:1:1:1:1:9", "D": 400, "Mc": 1}|} ]
    in
    (match warm with
    | [ json ] ->
      Alcotest.(check bool) "warm request ok" true (getb json "ok");
      Alcotest.(check bool) "warm request hits the plan cache" true
        (getb json "cache_hit");
      Alcotest.(check int) "warm Tc unchanged" (geti slow "Tc")
        (geti json "Tc")
    | _ -> Alcotest.fail "warm round trip lost the response");
    Service.Server.stop server
  | _ -> Alcotest.fail "wrong response count"

(* ------------------------------------------------------------------ *)
(* kill -9 mid-stream: the crash-recovery e2e smoke                    *)

let with_temp_dir f =
  let dir = Filename.temp_dir "service-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* A real SIGKILL halfway through a request stream: a forked child runs
   the server with a strict-fsync WAL over pipes, the parent reads two
   responses and kills it with no chance to clean up, then recovers the
   journal and checks every answered response is reproducible. *)
let kill9_recovery () =
  with_temp_dir (fun dir ->
      let ratios =
        List.filteri (fun i _ -> i < 6) (Lazy.force Generators.corpus_slice)
      in
      let lines =
        List.mapi
          (fun i ratio ->
            Printf.sprintf
              {|{"req": "prepare", "ratio": "%s", "D": 32, "id": %d}|}
              (Dmf.Ratio.to_string ratio) i)
          ratios
      in
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 16;
        }
      in
      let req_read, req_write = Unix.pipe ~cloexec:false () in
      let resp_read, resp_write = Unix.pipe ~cloexec:false () in
      Analysis.Runtime.assert_no_domains_spawned ();
      match Unix.fork () with
      | 0 ->
        (* The daemon-to-be-crashed.  Never exits on its own: the parent
           holds the request pipe open and SIGKILLs it mid-stream. *)
        Unix.close req_write;
        Unix.close resp_read;
        (try
           let manager, _ = Durable.Manager.start config in
           let server =
             Service.Server.create ~workers:1 ~cache_capacity:16
               ~on_accept:(Durable.Manager.on_accept manager)
               ~on_complete:(fun ~spec ~requests ~ok ->
                 Durable.Manager.on_complete manager ~spec ~requests ~ok)
               ()
           in
           Service.Server.serve_channels server
             (Unix.in_channel_of_descr req_read)
             (Unix.out_channel_of_descr resp_write)
         with _ -> Unix._exit 1);
        Unix._exit 0
      | pid ->
        Unix.close req_read;
        Unix.close resp_write;
        let client_oc = Unix.out_channel_of_descr req_write in
        let client_ic = Unix.in_channel_of_descr resp_read in
        List.iter
          (fun line ->
            output_string client_oc line;
            output_char client_oc '\n')
          lines;
        flush client_oc;
        let parse line =
          match Service.Jsonl.of_string line with
          | Ok json -> json
          | Error msg -> Alcotest.failf "bad response line: %s" msg
        in
        (* Bind each read: list elements evaluate right to left. *)
        let first_answer = parse (input_line client_ic) in
        let second_answer = parse (input_line client_ic) in
        let answered = [ first_answer; second_answer ] in
        Unix.kill pid Sys.sigkill;
        (match Unix.waitpid [] pid with
        | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
        | _, _ -> Alcotest.fail "child did not die of SIGKILL");
        close_out_noerr client_oc;
        close_in_noerr client_ic;
        (* The journal survived the kill: with a strict fsync policy
           every response the parent read was durable before it was
           written, so recovery rebuilds at least those plans. *)
        let state, stats = Durable.Replay.recover ~dir ~cache_capacity:16 in
        Alcotest.(check bool) "records replayed" true
          (stats.Durable.Replay.replayed >= 4);
        Alcotest.(check bool) "no sequence gap" false stats.Durable.Replay.gap;
        let keys = Durable.State.cache_keys state in
        let answered_lines = List.filteri (fun i _ -> i < 2) lines in
        List.iter
          (fun line ->
            match Service.Request.of_line line with
            | Ok { Service.Request.kind = Prepare spec; _ } ->
              let key = Service.Request.cache_key spec in
              Alcotest.(check bool)
                (Printf.sprintf "answered plan %s recovered" key)
                true (List.mem key keys)
            | Ok _ | Error _ -> Alcotest.fail "bad request line")
          answered_lines;
        (* Boot a fresh daemon from the directory exactly as dmfd does
           and re-issue the answered requests: identical payloads. *)
        let manager, _ = Durable.Manager.start config in
        let server = Service.Server.create ~workers:1 ~cache_capacity:16 () in
        ignore (Durable.Manager.prime manager server);
        let replayed = round_trip server answered_lines in
        let volatile = [ "elapsed_ms"; "cache_hit"; "coalesced"; "batch_D" ] in
        let normalize = function
          | Service.Jsonl.Obj kvs ->
            Service.Jsonl.Obj
              (List.filter (fun (k, _) -> not (List.mem k volatile)) kvs)
          | j -> j
        in
        List.iter2
          (fun a b ->
            if not (Service.Jsonl.equal (normalize a) (normalize b)) then
              Alcotest.failf "payload diverged after recovery:\n  %s\n  %s"
                (Service.Jsonl.to_string a) (Service.Jsonl.to_string b))
          answered replayed;
        Service.Server.stop server;
        Durable.Manager.close manager)

(* ------------------------------------------------------------------ *)
(* TCP accept loop                                                     *)

(* Run [Net.serve] with [handle] on a thread and return the port it
   bound.  The listener lives as long as the test process. *)
let listen handle =
  let m = Mutex.create () and cv = Condition.create () and bound = ref 0 in
  ignore
    (Thread.create
       (fun () ->
         try
           Service.Net.serve ~host:"127.0.0.1" ~port:0
             ~on_listen:(fun port ->
               Mutex.lock m;
               bound := port;
               Condition.signal cv;
               Mutex.unlock m)
             handle
         with _ -> ())
       ());
  Mutex.lock m;
  while !bound = 0 do
    Condition.wait cv m
  done;
  let port = !bound in
  Mutex.unlock m;
  port

(* Hundreds of short connections back to back on one listener, from a
   few clients at once: ping, read the pong, close, reconnect at once.
   Each accepted descriptor must be closed exactly once: a second close
   lands on whichever connection the kernel handed the same number to
   next, and that connection's ping goes unanswered.  A receive timeout
   turns a lost connection into a miss instead of a hang. *)
let tcp_reconnect_storm () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let server = Service.Server.create ~workers:1 () in
  let port = listen (Service.Server.serve_channels server) in
  let clients = 4 and per_client = 100 in
  let answered = Atomic.make 0 in
  let client () =
    for id = 1 to per_client do
      let fd = Service.Net.connect ~host:"127.0.0.1" ~port in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      (match
         Printf.fprintf oc "{\"req\": \"ping\", \"id\": %d}\n%!" id;
         Service.Jsonl.of_string (input_line ic)
       with
      | Ok json when geti json "id" = id && getb json "ok" ->
        Atomic.incr answered
      | Ok _ | Error _ -> ()
      | exception (End_of_file | Sys_error _) -> ());
      close_out_noerr oc
    done
  in
  List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
  Alcotest.(check int) "every ping answered" (clients * per_client)
    (Atomic.get answered);
  Service.Server.stop server

(* Every exchange is one request line and one answer line, so neither
   end may hold a short write back for Nagle's algorithm: the accepted
   descriptor has TCP_NODELAY before the handler sees it, and so does
   the one Net.connect returns. *)
let accepted_nodelay () =
  let port =
    listen (fun ic oc ->
        let on = Unix.getsockopt (Unix.descr_of_in_channel ic) Unix.TCP_NODELAY in
        Printf.fprintf oc "%b\n%!" on)
  in
  let fd = Service.Net.connect ~host:"127.0.0.1" ~port in
  let ic = Unix.in_channel_of_descr fd in
  Alcotest.(check string) "TCP_NODELAY on the accepted socket" "true"
    (input_line ic);
  close_in ic

let connected_nodelay () =
  let port = listen (fun ic _ -> ignore (input_line ic)) in
  let fd = Service.Net.connect ~host:"127.0.0.1" ~port in
  Alcotest.(check bool) "TCP_NODELAY on the connected socket" true
    (Unix.getsockopt fd Unix.TCP_NODELAY);
  Unix.close fd

(* ------------------------------------------------------------------ *)
(* Primary failover: kill -9 the primary, promote the hot standby      *)

(* Serve one NDJSON stream through the follower (which may promote
   itself mid-stream and delegate to its full server). *)
let follower_round_trip follower requests =
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  let server_ic = Unix.in_channel_of_descr req_read in
  let server_oc = Unix.out_channel_of_descr resp_write in
  let server_thread =
    Thread.create
      (fun () ->
        Replication.Follower.serve_channels follower server_ic server_oc;
        close_out_noerr server_oc;
        close_in_noerr server_ic)
      ()
  in
  let client_oc = Unix.out_channel_of_descr req_write in
  let client_ic = Unix.in_channel_of_descr resp_read in
  List.iter
    (fun line ->
      output_string client_oc line;
      output_char client_oc '\n')
    requests;
  close_out client_oc;
  let responses =
    List.map
      (fun _ ->
        match Service.Jsonl.of_string (input_line client_ic) with
        | Ok json -> json
        | Error msg -> failwith ("bad response line: " ^ msg))
      requests
  in
  Thread.join server_thread;
  close_in_noerr client_ic;
  responses

(* The whole scenario runs in a forked child so the promotion's worker
   domains never taint this (fork-using) test process: the child forks
   the primary-to-be-killed FIRST, then runs the follower — threads
   only — and spawns domains only at promotion, after its own fork. *)
let failover_scenario ~primary_dir ~follower_dir =
  let die fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline ("failover scenario: " ^ msg);
        Unix._exit 1)
      fmt
  in
  let ratios =
    List.filteri (fun i _ -> i < 4) (Lazy.force Generators.corpus_slice)
  in
  let lines =
    List.mapi
      (fun i ratio ->
        Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 32, "id": %d}|}
          (Dmf.Ratio.to_string ratio) i)
      ratios
  in
  let req_read, req_write = Unix.pipe ~cloexec:false () in
  let resp_read, resp_write = Unix.pipe ~cloexec:false () in
  let port_read, port_write = Unix.pipe ~cloexec:false () in
  (* This runs in a child forked from the domain-free test process;
     domains appear only at promotion, strictly after this fork. *)
  Analysis.Runtime.assert_no_domains_spawned ();
  match Unix.fork () with
  | 0 ->
    (* The primary: a dmfd core plus a replication feed, to be
       SIGKILLed with no chance to clean up. *)
    Unix.close req_write;
    Unix.close resp_read;
    Unix.close port_read;
    (try
       let config =
         {
           Durable.Manager.dir = primary_dir;
           fsync = Durable.Wal.strict;
           snapshot_every = 0;
           cache_capacity = 16;
         }
       in
       let manager, _ = Durable.Manager.start config in
       let feed =
         Replication.Feed.create
           {
             Replication.Feed.dir = primary_dir;
             last_seq = (fun () -> Durable.Manager.last_seq manager);
             fetch_plan = (fun _ -> None);
           }
       in
       Durable.Manager.subscribe_journal manager (Replication.Feed.notify feed);
       ignore
         (Thread.create
            (fun () ->
              Replication.Feed.serve_tcp feed
                ~on_listen:(fun port ->
                  let oc = Unix.out_channel_of_descr port_write in
                  output_string oc (string_of_int port);
                  output_char oc '\n';
                  flush oc)
                ~host:"127.0.0.1" ~port:0)
            ());
       let server =
         Service.Server.create ~workers:1 ~cache_capacity:16
           ~on_accept:(Durable.Manager.on_accept manager)
           ~on_complete:(fun ~spec ~requests ~ok ->
             Durable.Manager.on_complete manager ~spec ~requests ~ok)
           ()
       in
       Service.Server.serve_channels server
         (Unix.in_channel_of_descr req_read)
         (Unix.out_channel_of_descr resp_write)
     with _ -> Unix._exit 1);
    Unix._exit 0
  | primary_pid ->
    Unix.close req_read;
    Unix.close resp_write;
    Unix.close port_write;
    let feed_port =
      match input_line (Unix.in_channel_of_descr port_read) with
      | line -> (
        match int_of_string_opt (String.trim line) with
        | Some port -> port
        | None -> die "bad feed port announce %S" line)
      | exception End_of_file -> die "primary died before announcing its feed"
    in
    let follower =
      Replication.Follower.create
        {
          Replication.Follower.host = "127.0.0.1";
          port = feed_port;
          dir = follower_dir;
          cache_capacity = 16;
          queue_capacity = 64;
          workers = Some 1;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          store = None;
          fetch_plans = false;
          reconnect_ms = 50.;
        }
    in
    Replication.Follower.start follower;
    (* Stream the requests to the primary and collect every response:
       these are the accepted-and-answered payloads that must survive
       the kill. *)
    let client_oc = Unix.out_channel_of_descr req_write in
    let client_ic = Unix.in_channel_of_descr resp_read in
    List.iter
      (fun line ->
        output_string client_oc line;
        output_char client_oc '\n')
      lines;
    flush client_oc;
    let answered =
      List.map
        (fun _ ->
          match Service.Jsonl.of_string (input_line client_ic) with
          | Ok json -> json
          | Error msg -> die "bad primary response: %s" msg
          | exception End_of_file -> die "primary died early")
        lines
    in
    (* Each answered prepare journaled an accepted and a completed
       record; wait until the follower has applied them all. *)
    let target = 2 * List.length lines in
    let deadline = Unix.gettimeofday () +. 30. in
    while
      Replication.Follower.last_applied follower < target
      && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.02
    done;
    if Replication.Follower.last_applied follower < target then
      die "follower stuck at seq %d of %d"
        (Replication.Follower.last_applied follower)
        target;
    (* SIGKILL the primary: no flush, no close, no goodbye. *)
    Unix.kill primary_pid Sys.sigkill;
    (match Unix.waitpid [] primary_pid with
    | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
    | _ -> die "primary did not die of SIGKILL");
    close_out_noerr client_oc;
    close_in_noerr client_ic;
    (* Promote over the wire, then re-issue every answered request on
       the same stream — the promoted node must recover its mirror
       (replayed > 0) and serve byte-identical payloads. *)
    let responses =
      follower_round_trip follower
        (({|{"req": "promote", "id": 100}|} :: lines)
        @ [ {|{"req": "stats", "id": 101}|} ])
    in
    let promote_resp, replayed_resps, stats_resp =
      match responses with
      | p :: rest -> (
        match List.rev rest with
        | s :: answered_rev -> (p, List.rev answered_rev, s)
        | [] -> die "no stats response")
      | [] -> die "no promote response"
    in
    if not (getb promote_resp "ok") then die "promote failed";
    if geti promote_resp "replayed" <= 0 then
      die "promotion replayed nothing (expected a real recovery)";
    if geti stats_resp "served" < List.length lines then
      die "promoted node served %d of %d re-issued requests"
        (geti stats_resp "served") (List.length lines);
    (match Service.Jsonl.member "replication" stats_resp with
    | Some r -> (
      match
        Option.bind (Service.Jsonl.member "role" r) Service.Jsonl.to_str
      with
      | Some "primary" -> ()
      | _ -> die "promoted node does not report role primary")
    | None -> die "promoted node's stats lack a replication object");
    let volatile = [ "elapsed_ms"; "cache_hit"; "coalesced"; "batch_D" ] in
    let normalize = function
      | Service.Jsonl.Obj kvs ->
        Service.Jsonl.Obj
          (List.filter (fun (k, _) -> not (List.mem k volatile)) kvs)
      | j -> j
    in
    List.iter2
      (fun a b ->
        if not (Service.Jsonl.equal (normalize a) (normalize b)) then
          die "payload diverged after failover:\n  %s\n  %s"
            (Service.Jsonl.to_string a) (Service.Jsonl.to_string b))
      answered replayed_resps;
    Replication.Follower.close follower;
    Unix._exit 0

let primary_failover () =
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun follower_dir ->
          Analysis.Runtime.assert_no_domains_spawned ();
          match Unix.fork () with
          | 0 -> (
            try failover_scenario ~primary_dir ~follower_dir
            with e ->
              prerr_endline ("failover scenario: " ^ Printexc.to_string e);
              Unix._exit 1)
          | pid -> (
            match Unix.waitpid [] pid with
            | _, Unix.WEXITED 0 -> ()
            | _, Unix.WEXITED n ->
              Alcotest.failf "failover scenario exited with %d" n
            | _ -> Alcotest.fail "failover scenario died of a signal")))

let () =
  Alcotest.run "service"
    [
      (* Must run first: OCaml 5 forbids Unix.fork once any domain has
         ever been spawned, and every later server test spawns worker
         domains.  (Each forked child forks again, or spawns domains,
         only after its own fork.) *)
      ( "crash-recovery",
        [
          Alcotest.test_case "kill -9 primary, promote the follower" `Quick
            primary_failover;
          Alcotest.test_case "kill -9 mid-stream, recover, re-answer" `Quick
            (kill9_recovery
            [@dmflint.allow
              "fork-after-domain: the preceding failover test spawns domains \
               only inside its forked child; this test process is still \
               domain-free here, and the fork site re-asserts that at \
               runtime"]);
        ] );
      ( "jsonl",
        [
          prop_json_roundtrip;
          prop_request_roundtrip;
          Alcotest.test_case "decode rejects malformed requests" `Quick
            decode_errors;
        ] );
      ( "queue",
        [
          Alcotest.test_case "k identical requests coalesce into one job"
            `Quick coalescing;
          Alcotest.test_case "merge respects the demand cap" `Quick
            demand_cap_merge;
        ] );
      ( "cache",
        [
          Alcotest.test_case "LRU eviction order and counters" `Quick
            lru_eviction;
          prop_lru_capacity;
        ] );
      ( "server",
        [
          Alcotest.test_case "stdio end-to-end smoke" `Quick stdio_smoke;
          Alcotest.test_case "back-to-back TCP connections all answered"
            `Quick tcp_reconnect_storm;
          Alcotest.test_case "accepted sockets have TCP_NODELAY" `Quick
            accepted_nodelay;
          Alcotest.test_case "connected sockets have TCP_NODELAY" `Quick
            connected_nodelay;
        ] );
    ]
