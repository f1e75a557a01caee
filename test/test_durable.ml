(* The durable subsystem: CRC-32 known answers, record codec round-trips
   and corruption detection, WAL append -> replay round-trips including
   deliberately torn tails, snapshot load/compaction, golden journal and
   snapshot bytes, the bounded Jsonl.read_line, and differential
   properties checking that the live state and recovery both reach the
   state of an independent list-LRU model (state_model.ml). *)

open QCheck2

let pcr16 = Generators.pcr16

let with_temp_dir f =
  let dir = Filename.temp_dir "durable-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let spec_for ?(ratio = pcr16) ?(demand = 4) ?(mixers = Some 3) () =
  {
    Service.Request.ratio;
    demand;
    algorithm = Mixtree.Algorithm.MM;
    scheduler = Mdst.Scheduler.srs;
    mixers;
    storage_limit = None;
  }

(* A small pool of specs sharing few coalesce keys, so discharge and
   LRU-touch collisions actually happen under random op streams. *)
let spec_pool =
  [|
    spec_for ();
    spec_for ~demand:8 ();
    spec_for ~ratio:(Dmf.Ratio.of_string "3:1") ~demand:4 ();
    spec_for ~ratio:(Dmf.Ratio.of_string "1:1:2") ~mixers:(Some 1) ();
  |]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let crc32_known () =
  Alcotest.(check int) "empty" 0 (Mdst.Crc32.string "");
  Alcotest.(check int) "check value" 0xCBF43926
    (Mdst.Crc32.string "123456789");
  Alcotest.(check int) "fox" 0x414FA339
    (Mdst.Crc32.string "The quick brown fox jumps over the lazy dog");
  Alcotest.(check int) "sub agrees with string" 0xCBF43926
    (Mdst.Crc32.sub "xx123456789yy" ~pos:2 ~len:9)

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)

let kind_equal a b =
  match (a, b) with
  | Durable.Record.Accepted s, Durable.Record.Accepted s' ->
    Service.Request.cache_key s = Service.Request.cache_key s'
  | ( Durable.Record.Completed { spec; requests; ok },
      Durable.Record.Completed { spec = spec'; requests = r'; ok = ok' } ) ->
    Service.Request.cache_key spec = Service.Request.cache_key spec'
    && requests = r' && ok = ok'
  | _ -> false

let record_roundtrip () =
  let check_kind kind =
    let line = Durable.Record.encode ~seq:7 kind in
    match Durable.Record.decode line with
    | Ok (7, kind') ->
      Alcotest.(check bool) "kind survives" true (kind_equal kind kind')
    | Ok (seq, _) -> Alcotest.failf "wrong seq %d" seq
    | Error msg -> Alcotest.failf "decode failed: %s" msg
  in
  check_kind (Durable.Record.Accepted (spec_for ()));
  check_kind
    (Durable.Record.Completed { spec = spec_for ~demand:20 (); requests = 5; ok = true });
  check_kind
    (Durable.Record.Completed { spec = spec_for (); requests = 1; ok = false })

let record_corruption () =
  let line = Durable.Record.encode ~seq:3 (Durable.Record.Accepted (spec_for ())) in
  let reject what s =
    match Durable.Record.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" what
  in
  (* Flip one byte in the middle: the CRC no longer matches. *)
  let flipped = Bytes.of_string line in
  let mid = String.length line / 2 in
  Bytes.set flipped mid (if Bytes.get flipped mid = '1' then '2' else '1');
  reject "a flipped byte" (Bytes.to_string flipped);
  (* A torn write: any strict prefix fails to parse or to checksum. *)
  reject "a truncated record" (String.sub line 0 (String.length line - 4));
  reject "garbage" "not json";
  reject "the empty line" ""

(* ------------------------------------------------------------------ *)
(* WAL append -> replay                                                 *)

let sample_kinds =
  [
    Durable.Record.Accepted spec_pool.(0);
    Durable.Record.Accepted spec_pool.(1);
    Durable.Record.Completed { spec = spec_pool.(0); requests = 1; ok = true };
    Durable.Record.Accepted spec_pool.(2);
    Durable.Record.Completed { spec = spec_pool.(1); requests = 1; ok = true };
    Durable.Record.Completed { spec = spec_pool.(2); requests = 1; ok = false };
    Durable.Record.Accepted spec_pool.(3);
  ]

(* The expected state after [kinds], from the independent list-LRU
   reference model (test/state_model.ml). *)
let model_of kinds =
  let model = State_model.create ~cache_capacity:8 in
  List.iter (State_model.apply model) kinds;
  model

let state_of kinds =
  let state = Durable.State.create ~cache_capacity:8 in
  List.iter (Durable.State.apply state) kinds;
  state

let write_wal dir kinds =
  let wal =
    Durable.Wal.open_segment ~dir ~start_seq:1 ~fsync:Durable.Wal.strict
  in
  List.iter (fun kind -> ignore (Durable.Wal.append wal kind)) kinds;
  Durable.Wal.close wal

let wal_replay_roundtrip () =
  with_temp_dir (fun dir ->
      write_wal dir sample_kinds;
      let state, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check int) "all records replayed" (List.length sample_kinds)
        stats.Durable.Replay.replayed;
      Alcotest.(check int) "nothing truncated" 0 stats.Durable.Replay.truncated;
      Alcotest.(check bool) "no gap" false stats.Durable.Replay.gap;
      Alcotest.(check (option int)) "no snapshot" None
        stats.Durable.Replay.snapshot_seq;
      Alcotest.(check int) "next seq" (List.length sample_kinds + 1)
        stats.Durable.Replay.next_seq;
      Alcotest.(check bool) "state equals the model" true
        (State_model.agrees (model_of sample_kinds) state))

let wal_torn_tail () =
  with_temp_dir (fun dir ->
      write_wal dir sample_kinds;
      (* Tear the last record mid-write: chop a few bytes off the file. *)
      let path =
        match Durable.Wal.segments ~dir with
        | [ (1, path) ] -> path
        | _ -> Alcotest.fail "expected exactly one segment"
      in
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (size - 4);
      let state, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      let n = List.length sample_kinds in
      Alcotest.(check int) "tail record dropped" (n - 1)
        stats.Durable.Replay.replayed;
      Alcotest.(check int) "one torn line" 1 stats.Durable.Replay.truncated;
      Alcotest.(check bool) "no gap" false stats.Durable.Replay.gap;
      let shorter = List.filteri (fun i _ -> i < n - 1) sample_kinds in
      Alcotest.(check bool) "state equals the model minus the tail" true
        (State_model.agrees (model_of shorter) state))

(* The two-crash scenario: crash #1 tears the FIRST record of a fresh
   segment, so recovery's next_seq equals that segment's start_seq and
   the manager re-opens the very same file for appending.  Without the
   repair pass the new record's bytes merge with the torn partial line
   into one CRC-invalid line, and crash #2 then loses the whole
   segment — including records that were fsynced and acknowledged. *)
let torn_head_segment_repaired () =
  with_temp_dir (fun dir ->
      write_wal dir sample_kinds;
      let n = List.length sample_kinds in
      let next = Filename.concat dir (Durable.Wal.segment_name (n + 1)) in
      let line =
        Durable.Record.encode ~seq:(n + 1)
          (Durable.Record.Accepted spec_pool.(0))
      in
      let oc = open_out_bin next in
      output_string oc (String.sub line 0 (String.length line / 2));
      close_out oc;
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 8;
        }
      in
      let manager, recovery = Durable.Manager.start config in
      Alcotest.(check int) "replayed up to the torn head" n
        recovery.Durable.Replay.replayed;
      Alcotest.(check int) "torn head dropped" 1
        recovery.Durable.Replay.truncated;
      Alcotest.(check int) "journal resumes at the torn segment's seq"
        (n + 1) recovery.Durable.Replay.next_seq;
      (* Journal one record (strict fsync: it is on disk) and crash
         again — no close, no snapshot. *)
      Durable.Manager.on_accept manager spec_pool.(3);
      let state, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check int) "every acknowledged record recovered" (n + 1)
        stats.Durable.Replay.replayed;
      Alcotest.(check int) "no torn lines on the second boot" 0
        stats.Durable.Replay.truncated;
      Alcotest.(check bool) "no gap" false stats.Durable.Replay.gap;
      Alcotest.(check bool) "state includes the post-repair record" true
        (State_model.agrees
           (model_of (sample_kinds @ [ Durable.Record.Accepted spec_pool.(3) ]))
           state))

(* A lost segment leaves a sequence gap.  The boot that detects it must
   snapshot what it recovered and move the unreachable segments aside:
   otherwise every later boot re-hits the gap and aborts before reaching
   the journal this daemon goes on to write. *)
let gap_segments_quarantined () =
  with_temp_dir (fun dir ->
      let head = List.filteri (fun i _ -> i < 3) sample_kinds in
      let tail = List.filteri (fun i _ -> i >= 5) sample_kinds in
      let w1 =
        Durable.Wal.open_segment ~dir ~start_seq:1 ~fsync:Durable.Wal.strict
      in
      List.iter (fun k -> ignore (Durable.Wal.append w1 k)) head;
      Durable.Wal.close w1;
      (* Seqs 4..5 never make it to disk: the next segment starts at 6. *)
      let w2 =
        Durable.Wal.open_segment ~dir ~start_seq:6 ~fsync:Durable.Wal.strict
      in
      List.iter (fun k -> ignore (Durable.Wal.append w2 k)) tail;
      Durable.Wal.close w2;
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 8;
        }
      in
      let manager, recovery = Durable.Manager.start config in
      Alcotest.(check bool) "gap detected" true recovery.Durable.Replay.gap;
      Alcotest.(check int) "records before the gap applied" 3
        recovery.Durable.Replay.replayed;
      Alcotest.(check int) "both old segments quarantined" 2
        (Durable.Manager.quarantined_segments manager);
      (* The daemon keeps serving; crash without a clean close. *)
      Durable.Manager.on_accept manager spec_pool.(3);
      Durable.Manager.on_complete manager ~spec:spec_pool.(3) ~requests:1
        ~ok:true;
      let state, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check bool) "no gap on the second boot" false
        stats.Durable.Replay.gap;
      Alcotest.(check (option int)) "snapshot covers the pre-gap state"
        (Some 3) stats.Durable.Replay.snapshot_seq;
      Alcotest.(check int) "post-quarantine records recovered" 2
        stats.Durable.Replay.replayed;
      Alcotest.(check bool) "state = pre-gap + post-quarantine records" true
        (State_model.agrees
           (model_of
              (head
              @ [
                  Durable.Record.Accepted spec_pool.(3);
                  Durable.Record.Completed
                    { spec = spec_pool.(3); requests = 1; ok = true };
                ]))
           state))

(* lockf locks never conflict within one process, so the double-daemon
   guard is probed from a forked child, exactly the situation it is
   there to prevent. *)
let dir_lock_exclusive () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 8;
        }
      in
      let manager, _ = Durable.Manager.start config in
      Analysis.Runtime.assert_no_domains_spawned ();
      (match Unix.fork () with
      | 0 -> (
        match Durable.Manager.start config with
        | exception Failure _ -> Unix._exit 0
        | _ -> Unix._exit 1)
      | pid -> (
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ ->
          Alcotest.fail "a second process was allowed to journal to the dir"));
      Durable.Manager.close manager;
      (* A clean close releases the claim. *)
      let manager2, _ = Durable.Manager.start config in
      Durable.Manager.close manager2)

let missing_dir_recovers_empty () =
  let state, stats =
    Durable.Replay.recover ~dir:"/nonexistent/durable-test" ~cache_capacity:8
  in
  Alcotest.(check int) "nothing replayed" 0 stats.Durable.Replay.replayed;
  Alcotest.(check int) "next seq is 1" 1 stats.Durable.Replay.next_seq;
  Alcotest.(check bool) "empty state" true
    (Durable.State.equal state (Durable.State.create ~cache_capacity:8))

(* ------------------------------------------------------------------ *)
(* Group commit                                                        *)

(* Counters under deterministic single-threaded use: a strict commit
   after every append leads its own fsync of exactly one record; a
   batch of appends followed by one commit is one group fsync covering
   them all; a commit at an already-covered seq does nothing. *)
let group_commit_counters () =
  with_temp_dir (fun dir ->
      let wal =
        Durable.Wal.open_segment ~dir ~start_seq:1 ~fsync:Durable.Wal.strict
      in
      let n = List.length sample_kinds in
      List.iter
        (fun kind ->
          let seq = Durable.Wal.append wal kind in
          Durable.Wal.commit wal ~upto:seq)
        sample_kinds;
      Alcotest.(check int) "one group commit per sequential record" n
        (Durable.Wal.group_commits wal);
      Alcotest.(check (float 1e-9)) "batches of one" 1.0
        (Durable.Wal.avg_batch_size wal);
      let last =
        List.fold_left
          (fun _ kind -> Durable.Wal.append wal kind)
          0 sample_kinds
      in
      Durable.Wal.commit wal ~upto:last;
      Alcotest.(check int) "the batch is one group commit" (n + 1)
        (Durable.Wal.group_commits wal);
      Alcotest.(check (float 1e-9)) "batch size averages in"
        (float_of_int (2 * n) /. float_of_int (n + 1))
        (Durable.Wal.avg_batch_size wal);
      Durable.Wal.commit wal ~upto:last;
      Alcotest.(check int) "covered seq needs no new fsync" (n + 1)
        (Durable.Wal.group_commits wal);
      Durable.Wal.close wal;
      let _, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check int) "every committed record recovered" (2 * n)
        stats.Durable.Replay.replayed)

(* Concurrent journaling threads under strict durability: every record
   must be on disk when its call returns (recovery proves it), while
   the commit queue is free to cover many records per fsync.  Batch
   sharing itself is timing-dependent, so the assertions are the safe
   invariants: fsyncs never exceed appends, and the counters stay
   consistent. *)
let group_commit_concurrent () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 8;
        }
      in
      let manager, _ = Durable.Manager.start config in
      let threads = 4 and per_thread = 25 in
      let workers =
        List.init threads (fun i ->
            Thread.create
              (fun () ->
                for _ = 1 to per_thread do
                  Durable.Manager.on_accept manager
                    spec_pool.(i mod Array.length spec_pool)
                done)
              ())
      in
      List.iter Thread.join workers;
      let appends = Durable.Manager.appends manager in
      Alcotest.(check int) "every call journaled one record"
        (threads * per_thread) appends;
      if Durable.Manager.fsyncs manager > appends then
        Alcotest.failf "%d fsyncs for %d strict appends"
          (Durable.Manager.fsyncs manager)
          appends;
      Alcotest.(check bool) "group commits happened" true
        (Durable.Manager.group_commits manager > 0);
      Alcotest.(check bool) "avg batch size is at least one" true
        (Durable.Manager.avg_batch_size manager >= 1.0);
      (* Crash without close: strict durability means every record a
         caller returned from is recoverable. *)
      let _, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check int) "all strict appends recovered"
        (threads * per_thread) stats.Durable.Replay.replayed;
      Durable.Manager.close manager)

(* Run [f] on its own thread; [None] if it has not returned within
   [seconds] (the thread is then left parked). *)
let within seconds f =
  let m = Mutex.create () in
  let result = ref None in
  ignore
    (Thread.create
       (fun () ->
         let r = match f () with () -> Ok () | exception e -> Error e in
         Mutex.protect m (fun () -> result := Some r))
       ());
  let deadline = Unix.gettimeofday () +. seconds in
  let rec poll () =
    match Mutex.protect m (fun () -> !result) with
    | Some r -> Some r
    | None when Unix.gettimeofday () > deadline -> None
    | None ->
      Thread.delay 0.01;
      poll ()
  in
  poll ()

(* One failed fsync must fail the WAL, not wedge it: every later
   commit, sync, rotate and close raises within the bound instead of
   parking on a gate the failed leader still holds.  The fault is the
   kernel's own: the segment path is a FIFO, whose fsync fails with
   EINVAL. *)
let failed_fsync_fails_fast () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir (Durable.Wal.segment_name 1) in
      Unix.mkfifo path 0o644;
      (* A reader, so opening the FIFO for writing does not block. *)
      let reader = Unix.openfile path [ Unix.O_RDONLY; Unix.O_NONBLOCK ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close reader)
        (fun () ->
          let wal =
            Durable.Wal.open_segment ~dir ~start_seq:1 ~fsync:Durable.Wal.strict
          in
          let kind = List.hd sample_kinds in
          let expect_failure what = function
            | None -> Alcotest.failf "%s after a failed fsync hung" what
            | Some (Ok ()) ->
              Alcotest.failf "%s after a failed fsync succeeded" what
            | Some (Error (Unix.Unix_error (Unix.EINVAL, "fsync", _))) -> ()
            | Some (Error e) ->
              Alcotest.failf "%s raised %s" what (Printexc.to_string e)
          in
          let seq = Durable.Wal.append wal kind in
          expect_failure "the first commit"
            (within 2. (fun () -> Durable.Wal.commit wal ~upto:seq));
          let seq = Durable.Wal.append wal kind in
          expect_failure "a later commit"
            (within 2. (fun () -> Durable.Wal.commit wal ~upto:seq));
          expect_failure "sync" (within 2. (fun () -> Durable.Wal.sync wal));
          expect_failure "rotate" (within 2. (fun () -> Durable.Wal.rotate wal));
          expect_failure "close" (within 2. (fun () -> Durable.Wal.close wal));
          Alcotest.(check int) "no fsync counted" 0 (Durable.Wal.fsyncs wal)))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let snapshot_roundtrip () =
  with_temp_dir (fun dir ->
      let state = state_of sample_kinds in
      let path = Durable.Snapshot.write ~dir ~seq:7 state in
      (match Durable.Snapshot.load ~cache_capacity:8 path with
      | Ok state' ->
        Alcotest.(check bool) "snapshot round-trips the state" true
          (Durable.State.equal state state')
      | Error msg -> Alcotest.failf "load failed: %s" msg);
      (* A corrupted newer snapshot is skipped in favour of an older one. *)
      let older = state_of (List.filteri (fun i _ -> i < 3) sample_kinds) in
      ignore (Durable.Snapshot.write ~dir ~seq:3 older);
      let newer = open_out_gen [ Open_append ] 0o644 path in
      output_string newer "garbage";
      close_out newer;
      match Durable.Snapshot.load_latest ~dir ~cache_capacity:8 with
      | Some (3, state') ->
        Alcotest.(check bool) "fell back to the older snapshot" true
          (Durable.State.equal older state')
      | Some (seq, _) -> Alcotest.failf "loaded snapshot #%d" seq
      | None -> Alcotest.fail "no snapshot loaded")

let snapshot_then_compact () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 3;
          cache_capacity = 8;
        }
      in
      let manager, recovery = Durable.Manager.start config in
      Alcotest.(check int) "fresh dir" 0 recovery.Durable.Replay.replayed;
      List.iter
        (function
          | Durable.Record.Accepted spec -> Durable.Manager.on_accept manager spec
          | Durable.Record.Completed { spec; requests; ok } ->
            Durable.Manager.on_complete manager ~spec ~requests ~ok)
        sample_kinds;
      let live = Durable.Manager.state manager in
      Durable.Manager.close manager;
      (* Snapshots were taken every 3 records, segments rotated and old
         ones dropped; recovery must still land on the same state. *)
      Alcotest.(check bool) "snapshots exist" true
        (Durable.Snapshot.list ~dir <> []);
      Alcotest.(check bool) "old segments compacted" true
        (List.length (Durable.Wal.segments ~dir) <= 2);
      let state, stats = Durable.Replay.recover ~dir ~cache_capacity:8 in
      Alcotest.(check bool) "recovered from a snapshot" true
        (stats.Durable.Replay.snapshot_seq <> None);
      Alcotest.(check bool) "recovered state = live state" true
        (Durable.State.equal state live);
      Alcotest.(check bool) "recovered state = uninterrupted model" true
        (State_model.agrees (model_of sample_kinds) state))

(* ------------------------------------------------------------------ *)
(* Bounded line reader (the Jsonl hardening)                           *)

let read_line_cases () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "lines" in
      let oc = open_out path in
      output_string oc "short\n";
      output_string oc (String.make 40 'x');
      output_string oc "\nafter\ntail-without-newline";
      close_out oc;
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (match Service.Jsonl.read_line ~max_bytes:16 ic with
          | Service.Jsonl.Line "short" -> ()
          | _ -> Alcotest.fail "short line misread");
          (match Service.Jsonl.read_line ~max_bytes:16 ic with
          | Service.Jsonl.Oversized 40 -> ()
          | _ -> Alcotest.fail "oversized line not rejected");
          (* The stream stays line-synchronized after a rejection. *)
          (match Service.Jsonl.read_line ~max_bytes:16 ic with
          | Service.Jsonl.Line "after" -> ()
          | _ -> Alcotest.fail "lost synchronization after oversized line");
          (match Service.Jsonl.read_line ~max_bytes:32 ic with
          | Service.Jsonl.Tail "tail-without-newline" -> ()
          | _ -> Alcotest.fail "truncated final line not flagged");
          match Service.Jsonl.read_line ic with
          | Service.Jsonl.Eof -> ()
          | _ -> Alcotest.fail "missing Eof"))

(* ------------------------------------------------------------------ *)
(* Differential properties: recovery = the uninterrupted run           *)

type op = Accept of int | Complete of int * int * bool

let op_gen_over pool =
  let open Gen in
  let idx = int_range 0 (Array.length pool - 1) in
  oneof
    [
      map (fun i -> Accept i) idx;
      map3 (fun i r ok -> Complete (i, r, ok)) idx (int_range 1 3) bool;
    ]

let kind_over pool = function
  | Accept i -> Durable.Record.Accepted pool.(i)
  | Complete (i, r, ok) ->
    Durable.Record.Completed { spec = pool.(i); requests = r; ok }

let op_gen = op_gen_over spec_pool
let kind_of_op = kind_over spec_pool

let op_print = function
  | Accept i -> Printf.sprintf "A%d" i
  | Complete (i, r, ok) -> Printf.sprintf "C%d(%d,%b)" i r ok

let prop_manager_recovery =
  Generators.qtest ~count:60
    "random op streams: manager mirror = recovery = reference replay"
    Gen.(
      triple
        (list_size (int_range 1 30) op_gen)
        (int_range 0 5) (int_range 1 8))
    (Print.triple (Print.list op_print) string_of_int string_of_int)
    (fun (ops, snapshot_every, every_n) ->
      with_temp_dir (fun dir ->
          let config =
            {
              Durable.Manager.dir;
              fsync = { Durable.Wal.every_n; every_ms = 0. };
              snapshot_every;
              cache_capacity = 4;
            }
          in
          let manager, _ = Durable.Manager.start config in
          let reference = State_model.create ~cache_capacity:4 in
          List.iter
            (fun op ->
              let kind = kind_of_op op in
              State_model.apply reference kind;
              match kind with
              | Durable.Record.Accepted spec ->
                Durable.Manager.on_accept manager spec
              | Durable.Record.Completed { spec; requests; ok } ->
                Durable.Manager.on_complete manager ~spec ~requests ~ok)
            ops;
          let mirror = Durable.Manager.state manager in
          Durable.Manager.close manager;
          let recovered, stats = Durable.Replay.recover ~dir ~cache_capacity:4 in
          (not stats.Durable.Replay.gap)
          && stats.Durable.Replay.truncated = 0
          && State_model.agrees reference mirror
          && State_model.agrees reference recovered))

let prop_torn_tail_recovery =
  Generators.qtest ~count:60
    "a torn journal tail recovers to the state minus the last record"
    Gen.(list_size (int_range 1 25) op_gen)
    (Print.list op_print)
    (fun ops ->
      with_temp_dir (fun dir ->
          let kinds = List.map kind_of_op ops in
          write_wal dir kinds;
          let path =
            match Durable.Wal.segments ~dir with
            | (_, path) :: _ -> path
            | [] -> failwith "no segment"
          in
          let size = (Unix.stat path).Unix.st_size in
          Unix.truncate path (size - 4);
          let recovered, stats = Durable.Replay.recover ~dir ~cache_capacity:4 in
          let n = List.length kinds in
          let reference = State_model.create ~cache_capacity:4 in
          List.iteri
            (fun i kind -> if i < n - 1 then State_model.apply reference kind)
            kinds;
          stats.Durable.Replay.replayed = n - 1
          && stats.Durable.Replay.truncated = 1
          && (not stats.Durable.Replay.gap)
          && State_model.agrees reference recovered))

(* Twelve cache keys over three coalesce keys: wide enough that every
   capacity from 0 to 8 evicts. *)
let wide_pool =
  Array.of_list
    (List.concat_map
       (fun ratio ->
         List.map (fun demand -> spec_for ~ratio ~demand ()) [ 2; 4; 6; 8 ])
       [ pcr16; Dmf.Ratio.of_string "3:1"; Dmf.Ratio.of_string "1:1:2" ])

(* The state against the list-LRU model on every step of a random
   stream, across a restore at a capacity no larger (a daemon restarted
   with a smaller cache), and on every step after it. *)
let prop_state_matches_model =
  Generators.qtest ~count:300
    "random op streams, capacities 0-8, smaller restore: state = list LRU"
    Gen.(
      quad
        (list_size (int_range 0 40) (op_gen_over wide_pool))
        (list_size (int_range 0 20) (op_gen_over wide_pool))
        (int_range 0 8) (int_range 0 8))
    (Print.quad (Print.list op_print) (Print.list op_print) string_of_int
       string_of_int)
    (fun (ops, after, capacity, shrink) ->
      let step state model op =
        let kind = kind_over wide_pool op in
        Durable.State.apply state kind;
        State_model.apply model kind;
        State_model.agrees model state
      in
      let state = Durable.State.create ~cache_capacity:capacity in
      let model = State_model.create ~cache_capacity:capacity in
      List.for_all (step state model) ops
      &&
      let smaller = min capacity shrink in
      let state =
        Durable.State.restore ~cache_capacity:smaller
          ~cache_mru:(Durable.State.cache_specs state)
          ~outstanding:(Durable.State.outstanding state)
      in
      let model =
        State_model.restore ~cache_capacity:smaller
          ~cache_mru:model.State_model.cache
          ~outstanding:model.State_model.outstanding
      in
      State_model.agrees model state && List.for_all (step state model) after)

(* ------------------------------------------------------------------ *)
(* Golden bytes                                                        *)

(* One fixed op stream through a capacity-3 manager: touches of cached
   keys, evictions, a coalesced and a failed completion, a q'-budgeted
   spec, and requests still outstanding at the end.  The journal
   segment, the snapshot [close] writes, and that snapshot re-written
   after a restore at capacity 2 must match the files under
   golden/durable byte for byte: they pin the format and the recency
   order of every record and snapshot, so regenerate them only for a
   deliberate format change. *)
let golden_specs =
  Array.append spec_pool
    [| { (spec_for ~demand:32 ~mixers:None ()) with storage_limit = Some 5 } |]

let golden_ops =
  [
    Accept 0; Accept 1; Complete (0, 1, true); Accept 2; Accept 0;
    Complete (1, 1, true); Complete (2, 1, true); Complete (0, 1, true);
    Accept 3; Accept 4; Accept 4; Complete (3, 1, false);
    Complete (4, 2, true); Accept 1; Complete (1, 1, true); Accept 2;
    Accept 3;
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

let golden_bytes () =
  with_temp_dir (fun dir ->
      let config =
        {
          Durable.Manager.dir;
          fsync = Durable.Wal.strict;
          snapshot_every = 0;
          cache_capacity = 3;
        }
      in
      let manager, _ = Durable.Manager.start config in
      List.iter
        (function
          | Accept i -> Durable.Manager.on_accept manager golden_specs.(i)
          | Complete (i, requests, ok) ->
            Durable.Manager.on_complete manager ~spec:golden_specs.(i)
              ~requests ~ok)
        golden_ops;
      let segment = read_file (Filename.concat dir (Durable.Wal.segment_name 1)) in
      Durable.Manager.close manager;
      let seq, path =
        match Durable.Snapshot.list ~dir with
        | [ snapshot ] -> snapshot
        | _ -> Alcotest.fail "expected exactly one snapshot"
      in
      let snapshot = read_file path in
      let restored =
        match Durable.Snapshot.load ~cache_capacity:2 path with
        | Ok state -> read_file (Durable.Snapshot.write ~dir ~seq state)
        | Error msg -> Alcotest.failf "snapshot load failed: %s" msg
      in
      let files =
        [
          ("segment.ndjson", segment);
          ("snapshot.json", snapshot);
          ("snapshot-capacity-2.json", restored);
        ]
      in
      List.iter
        (fun (name, bytes) ->
          Alcotest.(check string) name
            (read_file (Filename.concat "golden/durable" name))
            bytes)
        files)

(* ------------------------------------------------------------------ *)
(* Server-level differential over the generator corpus                 *)

(* Strip the fields that legitimately differ between the original run
   and a replayed one: timing, and cache_hit (a recovered server
   answers re-issued requests from the rebuilt cache). *)
let normalize json =
  match json with
  | Service.Jsonl.Obj kvs ->
    Service.Jsonl.Obj
      (List.filter
         (fun (k, _) -> k <> "elapsed_ms" && k <> "cache_hit")
         kvs)
  | j -> j

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

let server_recovery_differential () =
  with_temp_dir (fun dir ->
      (* Distinct corpus ratios: no coalescing races with one worker,
         so both runs are fully deterministic. *)
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
          snapshot_every = 4;
          cache_capacity = 16;
        }
      in
      let manager, _ = Durable.Manager.start config in
      let server =
        Service.Server.create ~workers:1 ~cache_capacity:16
          ~on_accept:(Durable.Manager.on_accept manager)
          ~on_complete:(fun ~spec ~requests ~ok ->
            Durable.Manager.on_complete manager ~spec ~requests ~ok)
          ()
      in
      let original = round_trip server lines in
      (* The durable mirror tracks the real server's cache exactly. *)
      Alcotest.(check (list string)) "mirror matches the live cache"
        (Service.Server.cache_keys server)
        (Durable.State.cache_keys (Durable.Manager.state manager));
      Service.Server.stop server;
      Durable.Manager.close manager;
      (* Boot a second daemon from the directory, exactly as dmfd does. *)
      let manager2, recovery = Durable.Manager.start config in
      Alcotest.(check bool) "recovery loaded a snapshot" true
        (recovery.Durable.Replay.snapshot_seq <> None);
      let server2 = Service.Server.create ~workers:1 ~cache_capacity:16 () in
      let primed = Durable.Manager.prime manager2 server2 in
      Alcotest.(check int) "no pending jobs after a clean run" 0
        primed.Durable.Manager.pending;
      Alcotest.(check int) "every plan rebuilt" (List.length lines)
        (primed.Durable.Manager.replanned + primed.Durable.Manager.from_store);
      Alcotest.(check (list string)) "recovered cache recency preserved"
        (Durable.State.cache_keys (Durable.Manager.state manager2))
        (Service.Server.cache_keys server2);
      (* Re-issuing the stream must produce identical payloads. *)
      let replayed = round_trip server2 lines in
      List.iter2
        (fun a b ->
          if not (Service.Jsonl.equal (normalize a) (normalize b)) then
            Alcotest.failf "payload diverged:\n  %s\n  %s"
              (Service.Jsonl.to_string a) (Service.Jsonl.to_string b))
        original replayed;
      (* ... and entirely from the recovered plan cache. *)
      List.iter
        (fun json ->
          match
            Option.bind
              (Service.Jsonl.member "cache_hit" json)
              Service.Jsonl.to_bool
          with
          | Some true -> ()
          | _ -> Alcotest.fail "replayed request missed the recovered cache")
        replayed;
      Service.Server.stop server2;
      Durable.Manager.close manager2)

let () =
  Alcotest.run "durable"
    [
      ( "crc32",
        [ Alcotest.test_case "known answers" `Quick crc32_known ] );
      ( "record",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick record_roundtrip;
          Alcotest.test_case "corruption detected" `Quick record_corruption;
        ] );
      ( "replay",
        [
          Alcotest.test_case "append then recover" `Quick wal_replay_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick wal_torn_tail;
          Alcotest.test_case "missing dir = empty state" `Quick
            missing_dir_recovers_empty;
          Alcotest.test_case "torn segment head repaired before reuse" `Quick
            torn_head_segment_repaired;
          Alcotest.test_case "sequence gap quarantines old segments" `Quick
            gap_segments_quarantined;
          Alcotest.test_case "wal dir is single-writer" `Quick
            dir_lock_exclusive;
        ] );
      ( "group-commit",
        [
          Alcotest.test_case "counters under sequential and batched commits"
            `Quick group_commit_counters;
          Alcotest.test_case "concurrent strict journaling stays durable"
            `Quick group_commit_concurrent;
          Alcotest.test_case "a failed fsync fails the WAL, never wedges it"
            `Quick failed_fsync_fails_fast;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "write/load round-trip and fallback" `Quick
            snapshot_roundtrip;
          Alcotest.test_case "manager snapshots, rotates and compacts" `Quick
            snapshot_then_compact;
          Alcotest.test_case "journal and snapshot bytes match the golden files"
            `Quick golden_bytes;
        ] );
      ( "jsonl",
        [ Alcotest.test_case "bounded read_line" `Quick read_line_cases ] );
      ( "differential",
        [
          prop_manager_recovery;
          prop_torn_tail_recovery;
          prop_state_matches_model;
          Alcotest.test_case "server recovery reproduces the run" `Quick
            server_recovery_differential;
        ] );
    ]
