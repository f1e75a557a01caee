(* lib/cluster: the consistent-hash ring, the deterministic stats
   merge, and the routing proxy end-to-end (live shard + dead shard
   behind one in-process router). *)

let geti name json =
  match Option.bind (Service.Jsonl.member name json) Service.Jsonl.to_int with
  | Some v -> v
  | None -> Alcotest.failf "missing int field %S" name

let getb name json =
  match Option.bind (Service.Jsonl.member name json) Service.Jsonl.to_bool with
  | Some v -> v
  | None -> Alcotest.failf "missing bool field %S" name

let gets name json =
  match Option.bind (Service.Jsonl.member name json) Service.Jsonl.to_str with
  | Some v -> v
  | None -> Alcotest.failf "missing string field %S" name

(* ------------------------------------------------------------------ *)
(* Request keys across re-encoding                                     *)

(* Sharding is only sound if the key is stable across the wire: a
   request re-encoded by any hop must land on the same shard.  The
   property drives a random spec through to_json -> to_string ->
   of_string -> of_json and demands identical coalesce and cache
   keys. *)
let spec_gen =
  let open QCheck2.Gen in
  Generators.ratio_gen >>= fun ratio ->
  Generators.demand_gen >>= fun demand ->
  Generators.algorithm_gen >>= fun algorithm ->
  oneofl (Mdst.Scheduler.all ()) >>= fun scheduler ->
  opt (int_range 1 8) >>= fun mixers ->
  opt (int_range 0 16) >|= fun storage_limit ->
  { Service.Request.ratio; demand; algorithm; scheduler; mixers; storage_limit }

let spec_print spec = Service.Request.cache_key spec

let key_stability =
  Generators.qtest "coalesce/cache key stable across re-encoding" spec_gen
    spec_print (fun spec ->
      let request =
        { Service.Request.id = None; kind = Service.Request.prepare spec }
      in
      let line = Service.Jsonl.to_string (Service.Request.to_json request) in
      match Service.Request.of_line line with
      | Ok { Service.Request.kind = Service.Request.Prepare { spec = spec'; key }; _ } ->
        String.equal (Service.Request.coalesce_key spec) key
        && String.equal
          (Service.Request.coalesce_key spec)
          (Service.Request.coalesce_key spec')
        && String.equal
             (Service.Request.cache_key spec)
             (Service.Request.cache_key spec')
      | Ok _ -> QCheck2.Test.fail_report "re-decoded as a non-prepare request"
      | Error msg -> QCheck2.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Ring balance and remap                                              *)

let keys n = List.init n (Printf.sprintf "ratio-%d|MM|SRS|Mc=auto|q'=-")

let shard_labels n = List.init n (Printf.sprintf "10.0.0.%d:7433")

let counts ring key_list =
  let c = Array.make (Cluster.Ring.shards ring) 0 in
  List.iter
    (fun k ->
      let i = Cluster.Ring.lookup ring k in
      c.(i) <- c.(i) + 1)
    key_list;
  c

let balance () =
  let shards = 8 and n = 4000 in
  let ring = Cluster.Ring.create (shard_labels shards) in
  let fair = float_of_int n /. float_of_int shards in
  Array.iteri
    (fun i c ->
      let load = float_of_int c /. fair in
      if load < 0.5 || load > 1.7 then
        Alcotest.failf "shard %d holds %.2fx its fair share" i load)
    (counts ring (keys n))

(* Adding a shard may only move keys onto the new shard, and only about
   1/(N+1) of them; everything else keeps its owner.  (Ownership is
   compared by label: indices shift with list order, labels cannot.) *)
let remap_add () =
  let before = shard_labels 5 in
  let added = "10.0.0.99:7433" in
  let ring5 = Cluster.Ring.create before in
  let ring6 = Cluster.Ring.create (before @ [ added ]) in
  let n = 4000 in
  let moved =
    List.fold_left
      (fun moved k ->
        let old_label = Cluster.Ring.label ring5 (Cluster.Ring.lookup ring5 k) in
        let new_label = Cluster.Ring.label ring6 (Cluster.Ring.lookup ring6 k) in
        if String.equal old_label new_label then moved
        else begin
          Alcotest.(check string)
            (Printf.sprintf "moved key %s lands on the added shard" k)
            added new_label;
          moved + 1
        end)
      0 (keys n)
  in
  let fraction = float_of_int moved /. float_of_int n in
  let expected = 1. /. 6. in
  if fraction < 0.5 *. expected || fraction > 2. *. expected then
    Alcotest.failf "add remapped %.3f of keys (expected about %.3f)" fraction
      expected

let remap_remove () =
  let survivors = shard_labels 5 in
  let removed = "10.0.0.99:7433" in
  let ring6 = Cluster.Ring.create (survivors @ [ removed ]) in
  let ring5 = Cluster.Ring.create survivors in
  let n = 4000 in
  let moved =
    List.fold_left
      (fun moved k ->
        let old_label = Cluster.Ring.label ring6 (Cluster.Ring.lookup ring6 k) in
        let new_label = Cluster.Ring.label ring5 (Cluster.Ring.lookup ring5 k) in
        if String.equal old_label removed then moved + 1
        else begin
          (* A key a survivor owned must not move at all. *)
          Alcotest.(check string)
            (Printf.sprintf "key %s keeps its surviving owner" k)
            old_label new_label;
          moved
        end)
      0 (keys n)
  in
  let fraction = float_of_int moved /. float_of_int n in
  let expected = 1. /. 6. in
  if fraction < 0.5 *. expected || fraction > 2. *. expected then
    Alcotest.failf "remove freed %.3f of keys (expected about %.3f)" fraction
      expected

let deterministic () =
  let labels = shard_labels 4 in
  let a = Cluster.Ring.create labels in
  let b = Cluster.Ring.create labels in
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "same owner for %s" k)
        (Cluster.Ring.lookup a k) (Cluster.Ring.lookup b k))
    (keys 500)

(* ------------------------------------------------------------------ *)
(* Stats merge                                                         *)

let fake_body ~served ~latency ~uptime =
  match
    Service.Jsonl.of_string
      (Printf.sprintf
         {|{"queue_depth": 1, "workers": 2, "served": %d, "errors": 0,
           "coalesced": 3, "jobs": 4, "plans_built": 2,
           "cache": {"hits": 5, "misses": 6, "evictions": 0, "size": 2,
                     "capacity": 64},
           "avg_latency_ms": %f, "uptime_s": %f,
           "wal": {"records": 7}}|}
         served latency uptime)
  with
  | Ok json -> json
  | Error msg -> Alcotest.failf "fake stats body: %s" msg

let client ~addr ~healthy =
  {
    Cluster.Shard_client.addr;
    healthy;
    sent = 10;
    answered = (if healthy then 10 else 7);
    failed = (if healthy then 0 else 3);
    connects = 1;
  }

let merge_stats () =
  let merged =
    Cluster.Stats.merge
      [
        ( ( client ~addr:"a:1" ~healthy:true,
            Some (fake_body ~served:30 ~latency:2.0 ~uptime:5.0) ),
          None );
        ( ( client ~addr:"b:2" ~healthy:true,
            Some (fake_body ~served:10 ~latency:6.0 ~uptime:9.0) ),
          None );
        ((client ~addr:"c:3" ~healthy:false, None), None);
      ]
  in
  Alcotest.(check int) "served summed" 40 (geti "served" merged);
  Alcotest.(check int) "workers summed" 4 (geti "workers" merged);
  Alcotest.(check int) "plans summed" 4 (geti "plans_built" merged);
  (match Service.Jsonl.member "cache" merged with
  | Some cache -> Alcotest.(check int) "cache hits summed" 10 (geti "hits" cache)
  | None -> Alcotest.fail "merged stats lacks cache");
  (* 30 requests at 2 ms and 10 at 6 ms average to 3 ms. *)
  (match
     Option.bind (Service.Jsonl.member "avg_latency_ms" merged)
       Service.Jsonl.to_float
   with
  | Some avg -> Alcotest.(check (float 1e-9)) "latency weighted" 3.0 avg
  | None -> Alcotest.fail "merged stats lacks avg_latency_ms");
  (match
     Option.bind (Service.Jsonl.member "uptime_s" merged) Service.Jsonl.to_float
   with
  | Some up -> Alcotest.(check (float 1e-9)) "uptime is the oldest" 9.0 up
  | None -> Alcotest.fail "merged stats lacks uptime_s");
  (match Service.Jsonl.member "cluster" merged with
  | Some c ->
    Alcotest.(check int) "shard count" 3 (geti "shards" c);
    Alcotest.(check int) "healthy count" 2 (geti "healthy" c)
  | None -> Alcotest.fail "merged stats lacks cluster object");
  match
    Option.bind (Service.Jsonl.member "shards" merged) Service.Jsonl.to_list
  with
  | Some [ a; b; c ] ->
    Alcotest.(check string) "ring order preserved" "a:1" (gets "addr" a);
    (match Service.Jsonl.member "wal" a with
    | Some w -> Alcotest.(check int) "wal nested verbatim" 7 (geti "records" w)
    | None -> Alcotest.fail "healthy shard entry lacks wal");
    Alcotest.(check bool) "second healthy" true (getb "healthy" b);
    Alcotest.(check bool) "dead shard unhealthy" false (getb "healthy" c);
    Alcotest.(check int) "dead shard failures" 3 (geti "failed" c);
    Alcotest.(check bool) "dead shard carries no counters" true
      (Service.Jsonl.member "served" c = None)
  | Some l -> Alcotest.failf "expected 3 shard entries, got %d" (List.length l)
  | None -> Alcotest.fail "merged stats lacks shards array"

let merge_empty () =
  let merged =
    Cluster.Stats.merge [ ((client ~addr:"a:1" ~healthy:false, None), None) ]
  in
  Alcotest.(check int) "all counters zero" 0 (geti "served" merged);
  match Service.Jsonl.member "cluster" merged with
  | Some c -> Alcotest.(check int) "nothing healthy" 0 (geti "healthy" c)
  | None -> Alcotest.fail "merged stats lacks cluster object"

(* A shard with a hot standby: the follower's counters join the sums,
   its entry nests under the shard's [follower] member, and the
   top-level [replication] summary carries role census and worst lag. *)
let follower_body ~lag_records ~lag_ms =
  match
    Service.Jsonl.of_string
      (Printf.sprintf
         {|{"queue_depth": 0, "workers": 0, "served": 5, "errors": 0,
           "coalesced": 0, "jobs": 0, "plans_built": 1,
           "cache": {"hits": 5, "misses": 0, "evictions": 0, "size": 2,
                     "capacity": 64},
           "avg_latency_ms": 1.0, "uptime_s": 2.0,
           "wal": {"records": 7},
           "replication": {"role": "follower", "last_applied_seq": 7,
                           "lag_records": %d, "lag_ms": %f}}|}
         lag_records lag_ms)
  with
  | Ok json -> json
  | Error msg -> Alcotest.failf "fake follower body: %s" msg

let merge_follower () =
  let merged =
    Cluster.Stats.merge
      [
        ( ( client ~addr:"a:1" ~healthy:true,
            Some (fake_body ~served:30 ~latency:2.0 ~uptime:5.0) ),
          Some
            ( client ~addr:"a:2" ~healthy:true,
              Some (follower_body ~lag_records:3 ~lag_ms:12.5) ) );
        ((client ~addr:"b:3" ~healthy:false, None), None);
      ]
  in
  Alcotest.(check int)
    "served sums primary and follower" 35 (geti "served" merged);
  (match Service.Jsonl.member "cluster" merged with
  | Some c ->
    Alcotest.(check int) "shard count excludes followers" 2 (geti "shards" c);
    Alcotest.(check int) "one follower registered" 1 (geti "followers" c);
    Alcotest.(check int) "follower healthy" 1 (geti "followers_healthy" c)
  | None -> Alcotest.fail "merged stats lacks cluster object");
  (match Service.Jsonl.member "replication" merged with
  | Some r ->
    Alcotest.(check int) "one follower role" 1 (geti "followers" r);
    Alcotest.(check int) "worst lag in records" 3 (geti "max_lag_records" r)
  | None -> Alcotest.fail "merged stats lacks replication summary");
  match
    Option.bind (Service.Jsonl.member "shards" merged) Service.Jsonl.to_list
  with
  | Some [ a; _b ] -> (
    match Service.Jsonl.member "follower" a with
    | Some f ->
      Alcotest.(check string) "follower addr nested" "a:2" (gets "addr" f);
      (match Service.Jsonl.member "replication" f with
      | Some r ->
        Alcotest.(check string) "role verbatim" "follower" (gets "role" r)
      | None -> Alcotest.fail "follower entry lacks replication object")
    | None -> Alcotest.fail "shard entry lacks follower member")
  | _ -> Alcotest.fail "merged stats lacks the two shard entries"

(* ------------------------------------------------------------------ *)
(* Router end-to-end: one live shard, one dead                         *)

(* A port that refuses connections: bind, read the port back, close. *)
let refused_port () =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  Unix.close sock;
  port

(* Start a real daemon core on an ephemeral TCP port; hand back the
   port once the listener is live.  The accept loop runs on a thread
   that dies with the test process; the worker domains are joined by
   [Service.Server.stop]. *)
let start_live_shard () =
  let server = Service.Server.create ~workers:1 () in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let port = ref 0 in
  ignore
    (Thread.create
       (fun () ->
         try
           Service.Server.serve_tcp server
             ~on_listen:(fun bound ->
               Mutex.lock m;
               port := bound;
               Condition.signal cv;
               Mutex.unlock m)
             ~host:"127.0.0.1" ~port:0
         with _ -> ())
       ());
  Mutex.lock m;
  while !port = 0 do
    Condition.wait cv m
  done;
  let bound = !port in
  Mutex.unlock m;
  (server, bound)

(* Closing a client must reach the shard at once.  The probe's reader
   thread is blocked reading when [close] runs; a plain close of the
   descriptor leaves that read holding the socket open, so the shard
   would never see EOF.  An echo peer records when its handler reads
   EOF. *)
let close_reaches_shard () =
  let port = Atomic.make 0 and eof = Atomic.make false in
  let answer = Atomic.make None in
  let await ~timeout pred =
    let deadline = Unix.gettimeofday () +. timeout in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      Thread.delay 0.01
    done;
    pred ()
  in
  ignore
    (Thread.create
       (fun () ->
         Service.Net.serve ~host:"127.0.0.1" ~port:0
           ~on_listen:(Atomic.set port)
           (fun ic oc ->
             let rec echo () =
               match input_line ic with
               | line ->
                 output_string oc (line ^ "\n");
                 flush oc;
                 echo ()
               | exception (End_of_file | Sys_error _) -> Atomic.set eof true
             in
             echo ()))
       ());
  ignore (await ~timeout:5. (fun () -> Atomic.get port <> 0));
  let client =
    Cluster.Shard_client.create
      (Cluster.Shard_client.default_config ~host:"127.0.0.1"
         ~port:(Atomic.get port))
  in
  Cluster.Shard_client.send client "probe" (Atomic.set answer);
  Alcotest.(check bool) "the echo came back" true
    (await ~timeout:5. (fun () -> Atomic.get answer = Some "probe"));
  (* Let the reader go back to its blocking read. *)
  Thread.delay 0.05;
  Cluster.Shard_client.close client;
  Alcotest.(check bool) "the shard reads EOF within 2 s" true
    (await ~timeout:2. (fun () -> Atomic.get eof))

let spec_of_ratio ratio =
  {
    Service.Request.ratio;
    demand = 8;
    algorithm = Mixtree.Algorithm.MM;
    scheduler = Mdst.Scheduler.srs;
    mixers = None;
    storage_limit = None;
  }

(* One ratio owned by each shard, found through the router's own
   placement function — the same arithmetic the proxy path uses. *)
let ratios_per_shard router =
  let owned = Array.make 2 None in
  List.iter
    (fun ratio ->
      let idx, _ = Cluster.Router.route router (spec_of_ratio ratio) in
      if owned.(idx) = None then owned.(idx) <- Some ratio)
    (Lazy.force Generators.corpus_slice);
  match (owned.(0), owned.(1)) with
  | Some a, Some b -> (a, b)
  | _ -> Alcotest.fail "corpus slice never hit one of the two shards"

let router_end_to_end () =
  let server, live_port = start_live_shard () in
  let dead_port = refused_port () in
  let router =
    Cluster.Router.create ~retries:1 ~backoff_ms:5. ~cooldown_ms:100.
      [
        (("127.0.0.1", live_port), None);
        (("127.0.0.1", dead_port), None);
      ]
  in
  let live_ratio, dead_ratio = ratios_per_shard router in
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let proxy =
    Thread.create
      (fun () ->
        Cluster.Router.serve_channels router
          (Unix.in_channel_of_descr req_read)
          (Unix.out_channel_of_descr resp_write))
      ()
  in
  let oc = Unix.out_channel_of_descr req_write in
  let ic = Unix.in_channel_of_descr resp_read in
  let prepare id ratio =
    Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 8, "id": %d}|}
      (Dmf.Ratio.to_string ratio)
      id
  in
  (* Interleave live and dead shards, finish with ping and stats: the
     response stream must come back in exactly this order. *)
  let lines =
    [
      prepare 1 live_ratio;
      prepare 2 dead_ratio;
      prepare 3 live_ratio;
      prepare 4 dead_ratio;
      {|{"req": "ping", "id": 5}|};
      {|{"req": "stats", "id": 6}|};
    ]
  in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    lines;
  flush oc;
  let responses =
    List.map
      (fun _ ->
        match Service.Jsonl.of_string (input_line ic) with
        | Ok json -> json
        | Error msg -> Alcotest.failf "bad response line: %s" msg)
      lines
  in
  Alcotest.(check (list int))
    "responses in request order" [ 1; 2; 3; 4; 5; 6 ]
    (List.map (geti "id") responses);
  (match responses with
  | [ live1; dead1; live2; dead2; pong; stats ] ->
    Alcotest.(check bool) "live shard answers" true (getb "ok" live1);
    Alcotest.(check bool) "live shard answers again" true (getb "ok" live2);
    Alcotest.(check bool) "second hit is a cache hit" true
      (getb "cache_hit" live2);
    Alcotest.(check bool) "dead shard errors, not hangs" false
      (getb "ok" dead1);
    Alcotest.(check bool) "dead shard still errors" false (getb "ok" dead2);
    Alcotest.(check bool) "ping answered locally" true (getb "ok" pong);
    Alcotest.(check bool) "merged stats ok" true (getb "ok" stats);
    Alcotest.(check int) "live shard served both prepares" 2
      (geti "served" stats);
    (match Service.Jsonl.member "cluster" stats with
    | Some c ->
      Alcotest.(check int) "two shards" 2 (geti "shards" c);
      Alcotest.(check int) "one healthy" 1 (geti "healthy" c)
    | None -> Alcotest.fail "merged stats lacks cluster object");
    (match
       Option.bind (Service.Jsonl.member "shards" stats) Service.Jsonl.to_list
     with
    | Some [ s0; s1 ] ->
      Alcotest.(check bool) "shard 0 healthy" true (getb "healthy" s0);
      Alcotest.(check bool) "shard 1 dead" false (getb "healthy" s1)
    | _ -> Alcotest.fail "merged stats lacks the two shard entries")
  | _ -> Alcotest.fail "wrong response count");
  (* The route diagnostic agrees with where the requests actually went. *)
  output_string oc
    (Printf.sprintf {|{"req": "route", "ratio": "%s", "D": 8, "id": 7}|}
       (Dmf.Ratio.to_string live_ratio));
  output_char oc '\n';
  flush oc;
  (match Service.Jsonl.of_string (input_line ic) with
  | Ok json ->
    Alcotest.(check int) "route echoes id" 7 (geti "id" json);
    Alcotest.(check int) "live ratio owned by shard 0" 0 (geti "shard" json);
    Alcotest.(check string)
      "route reports the coalesce key"
      (Service.Request.coalesce_key (spec_of_ratio live_ratio))
      (gets "key" json)
  | Error msg -> Alcotest.failf "bad route response: %s" msg);
  close_out oc;
  Thread.join proxy;
  Unix.close resp_read;
  Cluster.Router.close router;
  Service.Server.stop server

(* Failover: the shard's primary endpoint refuses connections, its
   follower is a live daemon.  Forwarded requests must fall through to
   the follower (answered, not error lines), and the merged stats must
   show the primary dead but the follower healthy. *)
let router_failover () =
  let server, live_port = start_live_shard () in
  let dead_port = refused_port () in
  let router =
    Cluster.Router.create ~retries:1 ~backoff_ms:5. ~cooldown_ms:100.
      [ (("127.0.0.1", dead_port), Some ("127.0.0.1", live_port)) ]
  in
  Alcotest.(check int) "one follower" 1 (Cluster.Router.followers router);
  let req_read, req_write = Unix.pipe () in
  let resp_read, resp_write = Unix.pipe () in
  let proxy =
    Thread.create
      (fun () ->
        Cluster.Router.serve_channels router
          (Unix.in_channel_of_descr req_read)
          (Unix.out_channel_of_descr resp_write))
      ()
  in
  let oc = Unix.out_channel_of_descr req_write in
  let ic = Unix.in_channel_of_descr resp_read in
  let ratio = List.hd (Lazy.force Generators.corpus_slice) in
  let lines =
    [
      Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 8, "id": 1}|}
        (Dmf.Ratio.to_string ratio);
      Printf.sprintf {|{"req": "prepare", "ratio": "%s", "D": 8, "id": 2}|}
        (Dmf.Ratio.to_string ratio);
      {|{"req": "stats", "id": 3}|};
    ]
  in
  (* One request at a time: two identical prepares in flight together
     may coalesce into one planning job, and then the second is no
     cache hit. *)
  let responses =
    List.map
      (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc;
        match Service.Jsonl.of_string (input_line ic) with
        | Ok json -> json
        | Error msg -> Alcotest.failf "bad response line: %s" msg)
      lines
  in
  (match responses with
  | [ first; second; stats ] ->
    Alcotest.(check bool) "failover answers the prepare" true
      (getb "ok" first);
    Alcotest.(check bool) "failover answers again" true (getb "ok" second);
    Alcotest.(check bool) "second hit is a cache hit" true
      (getb "cache_hit" second);
    Alcotest.(check bool) "merged stats ok" true (getb "ok" stats);
    (match Service.Jsonl.member "cluster" stats with
    | Some c ->
      Alcotest.(check int) "primary dead" 0 (geti "healthy" c);
      Alcotest.(check int) "follower healthy" 1 (geti "followers_healthy" c)
    | None -> Alcotest.fail "merged stats lacks cluster object");
    Alcotest.(check int) "follower served the prepares" 2
      (geti "served" stats)
  | _ -> Alcotest.fail "wrong response count");
  close_out oc;
  Thread.join proxy;
  Unix.close resp_read;
  Cluster.Router.close router;
  Service.Server.stop server

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          key_stability;
          Alcotest.test_case "balance within tolerance" `Quick balance;
          Alcotest.test_case "add remaps only onto the new shard" `Quick
            remap_add;
          Alcotest.test_case "remove moves only the removed shard's keys"
            `Quick remap_remove;
          Alcotest.test_case "placement is deterministic" `Quick deterministic;
        ] );
      ( "stats",
        [
          Alcotest.test_case "merge sums, weights and nests" `Quick merge_stats;
          Alcotest.test_case "merge of nothing is all zeros" `Quick merge_empty;
          Alcotest.test_case "follower probes sum and nest" `Quick
            merge_follower;
        ] );
      ( "router",
        [
          Alcotest.test_case "live + dead shard end-to-end" `Quick
            router_end_to_end;
          Alcotest.test_case "dead primary fails over to its follower" `Quick
            router_failover;
          Alcotest.test_case "client close reaches the shard" `Quick
            close_reaches_shard;
        ] );
    ]
