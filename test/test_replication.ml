(* lib/replication: the wire codec, the byte-verbatim sink, and a live
   primary -> follower stream end-to-end in one process (feed over an
   ephemeral TCP port, follower applying, disconnect/resume, and
   promotion to a writable primary). *)

let with_temp_dir f =
  let dir = Filename.temp_dir "replication-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let spec_for ?(ratio = Generators.pcr16) ?(demand = 8) () =
  {
    Service.Request.ratio;
    demand;
    algorithm = Mixtree.Algorithm.MM;
    scheduler = Mdst.Scheduler.srs;
    mixers = Some 3;
    storage_limit = None;
  }

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)

let frame_roundtrip () =
  let check frame =
    let line = Replication.Wire.to_line frame in
    match Replication.Wire.of_line line with
    | Ok frame' ->
      Alcotest.(check string)
        "frame survives its own encoding" line
        (Replication.Wire.to_line frame')
    | Error msg -> Alcotest.failf "decode failed on %s: %s" line msg
  in
  check (Replication.Wire.Subscribe { segment = 42; offset = 31337 });
  check Replication.Wire.(Subscribe start);
  check (Replication.Wire.Hello { resumed = true; last_seq = 7 });
  check (Replication.Wire.Hello { resumed = false; last_seq = 0 });
  check (Replication.Wire.Open_segment 12);
  check (Replication.Wire.At { last_seq = 9; ms = 123.5 });
  (* Snapshot payloads are arbitrary bytes: all 256 must survive. *)
  let blob = String.init 256 Char.chr in
  check (Replication.Wire.Snapshot { seq = 3; data = blob });
  (match
     Replication.Wire.of_line
       (Replication.Wire.to_line
          (Replication.Wire.Snapshot { seq = 3; data = blob }))
   with
  | Ok (Replication.Wire.Snapshot { data; _ }) ->
    Alcotest.(check string) "binary snapshot data intact" blob data
  | Ok _ | Error _ -> Alcotest.fail "snapshot frame lost its payload");
  check (Replication.Wire.Plan_get (spec_for ()));
  check (Replication.Wire.Plan { key = "k"; data = Some blob });
  check (Replication.Wire.Plan { key = "k"; data = None })

let classify_lines () =
  let record =
    Durable.Record.encode ~seq:1 (Durable.Record.Accepted (spec_for ()))
  in
  (match Replication.Wire.classify record with
  | Ok (`Record line) ->
    Alcotest.(check string) "record lines pass through verbatim" record line
  | Ok (`Frame _) -> Alcotest.fail "record line classified as a frame"
  | Error msg -> Alcotest.failf "record line rejected: %s" msg);
  (match Replication.Wire.classify (Replication.Wire.to_line (Replication.Wire.Open_segment 5)) with
  | Ok (`Frame (Replication.Wire.Open_segment 5)) -> ()
  | _ -> Alcotest.fail "control frame not recognized");
  match Replication.Wire.classify "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage line classified"

(* ------------------------------------------------------------------ *)
(* Sink                                                                *)

let sink_cursor_and_reset () =
  with_temp_dir (fun dir ->
      let sink = Replication.Sink.create ~dir in
      Alcotest.(check bool) "fresh mirror starts at the zero cursor" true
        (Replication.Sink.cursor sink = Replication.Wire.start);
      Replication.Sink.open_segment sink 1;
      let line =
        Durable.Record.encode ~seq:1 (Durable.Record.Accepted (spec_for ()))
      in
      Replication.Sink.append_line sink line;
      Replication.Sink.flush sink;
      let cursor = Replication.Sink.cursor sink in
      Alcotest.(check int) "cursor segment" 1 cursor.Replication.Wire.segment;
      Alcotest.(check int) "cursor offset = bytes written"
        (String.length line + 1)
        cursor.Replication.Wire.offset;
      Alcotest.(check int) "one line mirrored" 1
        (Replication.Sink.appended sink);
      Replication.Sink.close sink;
      (* Reopening reads the cursor back from the directory — the
         restart-resume path. *)
      let sink2 = Replication.Sink.create ~dir in
      Alcotest.(check bool) "cursor recovered from the listing" true
        (Replication.Sink.cursor sink2 = cursor);
      (* Reset wipes segments and snapshots but keeps the claim. *)
      Replication.Sink.put_snapshot sink2 ~seq:1 ~data:"{}";
      Replication.Sink.reset sink2;
      Alcotest.(check bool) "reset returns to the zero cursor" true
        (Replication.Sink.cursor sink2 = Replication.Wire.start);
      Alcotest.(check bool) "reset removed the segments" true
        (Durable.Wal.segments ~dir = []);
      Alcotest.(check bool) "reset removed the snapshots" true
        (Durable.Snapshot.list ~dir = []);
      Replication.Sink.close sink2)

(* lockf claims only exclude other PROCESSES, so the misuse we can
   check in-process is the protocol one: no appends before the feed
   has opened a segment. *)
let sink_append_guard () =
  with_temp_dir (fun dir ->
      let sink = Replication.Sink.create ~dir in
      (match Replication.Sink.append_line sink "orphan line" with
      | exception Failure _ -> ()
      | () -> Alcotest.fail "append before open_segment must raise");
      Replication.Sink.close sink)

(* ------------------------------------------------------------------ *)
(* Live stream end-to-end                                              *)

let await ?(timeout = 30.) what pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Byte-verbatim mirroring: every segment the follower holds must be a
   prefix (here: an exact copy) of the primary's same-named file. *)
let check_mirror ~primary_dir ~follower_dir =
  let mirrored = Durable.Wal.segments ~dir:follower_dir in
  if mirrored = [] then Alcotest.fail "follower mirrored no segments";
  List.iter
    (fun (seq, path) ->
      let primary_path =
        Filename.concat primary_dir (Durable.Wal.segment_name seq)
      in
      Alcotest.(check string)
        (Printf.sprintf "segment %d is byte-identical" seq)
        (read_file primary_path) (read_file path))
    mirrored

let start_primary ?(snapshot_every = 0) ?(fetch_plan = fun _ -> None) ~dir ()
    =
  let manager, _ =
    Durable.Manager.start
      {
        Durable.Manager.dir;
        fsync = Durable.Wal.strict;
        snapshot_every;
        cache_capacity = 8;
      }
  in
  let feed =
    Replication.Feed.create
      {
        Replication.Feed.dir;
        last_seq = (fun () -> Durable.Manager.last_seq manager);
        fetch_plan;
      }
  in
  Durable.Manager.subscribe_journal manager (Replication.Feed.notify feed);
  let m = Mutex.create () in
  let cv = Condition.create () in
  let port = ref 0 in
  ignore
    (Thread.create
       (fun () ->
         try
           Replication.Feed.serve_tcp feed
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
  (manager, feed, bound)

let follower_config ~port ~dir =
  {
    Replication.Follower.host = "127.0.0.1";
    port;
    dir;
    cache_capacity = 8;
    queue_capacity = 16;
    workers = Some 1;
    fsync = Durable.Wal.strict;
    snapshot_every = 0;
    store = None;
    fetch_plans = false;
    reconnect_ms = 30.;
  }

(* A follower killed mid-append leaves a partial record at the end of
   its last mirrored segment.  Booting on that mirror must cut the
   segment back to its valid bytes, or the resumed stream's first
   record would merge with the torn line. *)
let torn_mirror_repaired () =
  with_temp_dir (fun dir ->
      let sink = Replication.Sink.create ~dir in
      Replication.Sink.open_segment sink 1;
      let record seq ratio =
        Durable.Record.encode ~seq
          (Durable.Record.Accepted
             (spec_for ~ratio:(Dmf.Ratio.of_string ratio) ()))
      in
      List.iteri
        (fun i ratio -> Replication.Sink.append_line sink (record (i + 1) ratio))
        [ "3:1"; "1:1:2" ];
      Replication.Sink.flush sink;
      Replication.Sink.close sink;
      let path =
        match Durable.Wal.segments ~dir with
        | [ (_, path) ] -> path
        | _ -> Alcotest.fail "expected one mirrored segment"
      in
      let valid_bytes = (Unix.stat path).Unix.st_size in
      let torn = record 3 "5:3" in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (String.sub torn 0 (String.length torn / 2));
      close_out oc;
      let follower =
        Replication.Follower.create (follower_config ~port:1 ~dir)
      in
      Alcotest.(check int) "segment cut back to its valid bytes" valid_bytes
        (Unix.stat path).Unix.st_size;
      Alcotest.(check int) "both whole records replayed" 2
        (Replication.Follower.last_applied follower);
      Replication.Follower.close follower)

let geti json key =
  match Option.bind (Service.Jsonl.member key json) Service.Jsonl.to_int with
  | Some v -> v
  | None -> Alcotest.failf "json lacks integer %s" key

let gets json key =
  match Option.bind (Service.Jsonl.member key json) Service.Jsonl.to_str with
  | Some v -> v
  | None -> Alcotest.failf "json lacks string %s" key

let stream_apply_resume_promote () =
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun follower_dir ->
          let manager, feed, port = start_primary ~dir:primary_dir () in
          let journal spec =
            Durable.Manager.on_accept manager spec;
            Durable.Manager.on_complete manager ~spec ~requests:1 ~ok:true
          in
          (* Records journaled before the follower exists: it must
             stream the backlog. *)
          let spec_a = spec_for () in
          let spec_b = spec_for ~ratio:(Dmf.Ratio.of_string "3:1") () in
          journal spec_a;
          let follower =
            Replication.Follower.create (follower_config ~port ~dir:follower_dir)
          in
          Replication.Follower.start follower;
          await "backlog applied" (fun () ->
              Replication.Follower.last_applied follower >= 2);
          (* Records journaled while the follower is live: the tail. *)
          journal spec_b;
          await "live tail applied" (fun () ->
              Replication.Follower.last_applied follower >= 4);
          Alcotest.(check bool) "follower reports connected" true
            (Replication.Follower.connected follower);
          check_mirror ~primary_dir ~follower_dir;
          let repl = Replication.Follower.repl_json follower in
          Alcotest.(check string) "role follower" "follower" (gets repl "role");
          Alcotest.(check int) "applied seq in stats" 4
            (geti repl "last_applied_seq");
          (* Disconnect (close the whole follower), journal more, and
             resume from the mirror's cursor: no reset, no re-apply. *)
          Replication.Follower.close follower;
          journal spec_a;
          let follower2 =
            Replication.Follower.create (follower_config ~port ~dir:follower_dir)
          in
          Replication.Follower.start follower2;
          await "resume catches up" (fun () ->
              Replication.Follower.last_applied follower2 >= 6);
          check_mirror ~primary_dir ~follower_dir;
          let feed_stats = Replication.Feed.stats_json feed in
          Alcotest.(check string) "feed is the primary" "primary"
            (gets feed_stats "role");
          Alcotest.(check bool) "the second subscribe was a resume" true
            (geti feed_stats "resumes" >= 1);
          (* The only reset is the very first subscribe (a fresh mirror
             starts at the zero cursor); the restart resumed cleanly. *)
          Alcotest.(check int) "restart did not reset" 1
            (geti feed_stats "resets");
          (* The warm cache primed every completed spec by re-planning:
             both specs answer without the primary. *)
          let repl2 = Replication.Follower.repl_json follower2 in
          Alcotest.(check bool) "plans primed" true
            (geti repl2 "primed_replanned" >= 1);
          (* Promote: the mirrored directory goes through ordinary
             manager recovery and the node turns writable. *)
          Replication.Follower.promote follower2;
          (match Replication.Follower.role follower2 with
          | `Promoted -> ()
          | `Following -> Alcotest.fail "promote left the node following");
          let promoted = Replication.Follower.repl_json follower2 in
          Alcotest.(check string) "promoted role" "primary"
            (gets promoted "role");
          Alcotest.(check int) "promoted at the applied seq" 6
            (geti promoted "promoted_at_seq");
          (* Promotion is idempotent. *)
          Replication.Follower.promote follower2;
          Alcotest.(check int) "second promote is a no-op" 6
            (geti (Replication.Follower.repl_json follower2) "promoted_at_seq");
          Replication.Follower.close follower2;
          Replication.Feed.stop feed;
          Durable.Manager.close manager))

(* A fresh follower pointed at a primary whose early segments were
   compacted away cannot resume from nothing mid-history: it must get
   Hello{resumed=false} plus the snapshot, and land on the same state. *)
let snapshot_reset_path () =
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun follower_dir ->
          let manager, feed, port =
            start_primary ~snapshot_every:2 ~dir:primary_dir ()
          in
          (* Enough records to snapshot, rotate and compact: the first
             segment is gone, so history does not start at seq 1. *)
          let spec = spec_for () in
          for _ = 1 to 3 do
            Durable.Manager.on_accept manager spec;
            Durable.Manager.on_complete manager ~spec ~requests:1 ~ok:true
          done;
          Alcotest.(check bool) "early segments compacted away" true
            (match Durable.Wal.segments ~dir:primary_dir with
            | (first, _) :: _ -> first > 1
            | [] -> false);
          let follower =
            Replication.Follower.create (follower_config ~port ~dir:follower_dir)
          in
          Replication.Follower.start follower;
          await "snapshot + tail applied" (fun () ->
              Replication.Follower.last_applied follower
              >= Durable.Manager.last_seq manager);
          let feed_stats = Replication.Feed.stats_json feed in
          Alcotest.(check bool) "the subscribe was a reset" true
            (geti feed_stats "resets" >= 1);
          (* The mirrored state must equal a recovery of the primary's
             own directory: promote and compare cache keys. *)
          Replication.Follower.promote follower;
          let promoted = Replication.Follower.repl_json follower in
          Alcotest.(check int) "promoted at the primary's seq"
            (Durable.Manager.last_seq manager)
            (geti promoted "promoted_at_seq");
          Replication.Follower.close follower;
          Replication.Feed.stop feed;
          Durable.Manager.close manager))

(* The follower's plan tier, one counter per source: a plan already in
   its own store, one the primary's store serves over plan fetch (which
   the follower writes through), and one neither holds, re-planned. *)
let priming_tiers () =
  with_temp_dir (fun primary_dir ->
      with_temp_dir (fun follower_dir ->
          with_temp_dir (fun primary_store_dir ->
              with_temp_dir (fun local_store_dir ->
                  let primary_store =
                    Durable.Plan_store.open_store ~dir:primary_store_dir ()
                  in
                  let local =
                    Durable.Plan_store.open_store ~dir:local_store_dir ()
                  in
                  let stored = spec_for ()
                  and fetched = spec_for ~ratio:(Dmf.Ratio.of_string "3:1") ()
                  and planned =
                    spec_for ~ratio:(Dmf.Ratio.of_string "1:1:2") ()
                  in
                  Durable.Plan_store.add local stored (Service.Prep.run stored);
                  Durable.Plan_store.add primary_store fetched
                    (Service.Prep.run fetched);
                  let manager, feed, port =
                    start_primary ~dir:primary_dir
                      ~fetch_plan:(fun spec ->
                        Option.map Durable.Plan_store.encode_prepared
                          (Durable.Plan_store.find primary_store spec))
                      ()
                  in
                  List.iter
                    (fun spec ->
                      Durable.Manager.on_accept manager spec;
                      Durable.Manager.on_complete manager ~spec ~requests:1
                        ~ok:true)
                    [ stored; fetched; planned ];
                  let follower =
                    Replication.Follower.create
                      {
                        (follower_config ~port ~dir:follower_dir) with
                        store = Some local;
                        fetch_plans = true;
                      }
                  in
                  Replication.Follower.start follower;
                  await "all three completions applied" (fun () ->
                      Replication.Follower.last_applied follower >= 6);
                  let repl = Replication.Follower.repl_json follower in
                  Alcotest.(check int) "one plan from the local store" 1
                    (geti repl "primed_from_store");
                  Alcotest.(check int) "one plan fetched from the primary" 1
                    (geti repl "primed_fetched");
                  Alcotest.(check int) "one plan re-planned" 1
                    (geti repl "primed_replanned");
                  Alcotest.(check bool) "the fetched plan is written through"
                    true
                    (Durable.Plan_store.find local fetched <> None);
                  Alcotest.(check bool) "so is the re-planned one" true
                    (Durable.Plan_store.find local planned <> None);
                  Replication.Follower.close follower;
                  Replication.Feed.stop feed;
                  Durable.Manager.close manager))))

let () =
  Alcotest.run "replication"
    [
      ( "wire",
        [
          Alcotest.test_case "frames round-trip" `Quick frame_roundtrip;
          Alcotest.test_case "classify splits frames from records" `Quick
            classify_lines;
        ] );
      ( "sink",
        [
          Alcotest.test_case "cursor tracks the mirror, reset wipes it" `Quick
            sink_cursor_and_reset;
          Alcotest.test_case "no appends before a segment is open" `Quick
            sink_append_guard;
          Alcotest.test_case "a torn mirror tail is cut back on boot" `Quick
            torn_mirror_repaired;
        ] );
      ( "stream",
        [
          Alcotest.test_case "backlog, live tail, resume, promote" `Quick
            stream_apply_resume_promote;
          Alcotest.test_case "compacted history forces snapshot reset" `Quick
            snapshot_reset_path;
          Alcotest.test_case "follower primes from store, feed, then planning"
            `Quick priming_tiers;
        ] );
    ]
