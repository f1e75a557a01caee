(* dmfd — the demand-driven preparation daemon.

   Serves the MDST engine behind a newline-delimited JSON protocol:
   typed prepare/stats/ping requests go through a bounded admission
   queue that coalesces concurrent requests for the same target, a
   bounded LRU plan cache, and a fixed pool of planning workers on
   OCaml 5 domains.

     dmfd --stdio                      # serve stdin/stdout (tests, CI)
     dmfd --port 7433                  # serve TCP, one thread per client
     dmfd --port 7433 --wal-dir wal    # ... with crash recovery
     echo '{"req":"prepare","ratio":"2:1:1:1:1:1:9","D":20,"Mc":3}' \
       | dmfd --stdio

   With --wal-dir, accepted requests and completed jobs are journaled
   to a write-ahead log (lib/durable): on boot the daemon loads the
   latest snapshot, replays the journal tail, re-plans the recovered
   cache through the deterministic scheduler registry and resubmits
   requests that were accepted but never answered.  SIGTERM/SIGINT
   shut the daemon down cleanly: the queue drains, the workers join,
   and the journal is synced, snapshotted and compacted.

   Replication (lib/replication) rides on the journal:

     dmfd --port 7433 --wal-dir wal --repl-port 7533   # primary
     dmfd --port 7434 --wal-dir wal2 --follow 127.0.0.1:7533

   --repl-port streams WAL segments plus the live tail to followers;
   --follow mirrors a primary byte-for-byte, applies its records, and
   serves read-only traffic until promoted (SIGUSR1 or a
   {"req":"promote"} request), at which point it recovers from its
   mirrored journal and becomes a writable primary. *)

open Cmdliner

let stdio_arg =
  Arg.(
    value & flag
    & info [ "stdio" ]
        ~doc:"Serve newline-delimited JSON on stdin/stdout instead of TCP.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (TCP mode).")

let port_arg =
  Arg.(
    value & opt int 7433
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:
          "TCP port to listen on. 0 binds a kernel-chosen ephemeral port and \
           announces it on stdout as a PORT=<n> line (machine-parseable, for \
           supervisors launching shard fleets).")

let workers_arg =
  Arg.(
    value & opt (some int) None
    & info [ "w"; "workers" ] ~docv:"N"
        ~doc:
          "Planning workers (OCaml domains). Defaults to \\$MDST_DOMAINS or \
           the physical core count.")

let queue_arg =
  Arg.(
    value & opt int 256
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:
          "Maximum pending planning jobs before admission blocks \
           (backpressure).")

let cache_arg =
  Arg.(
    value & opt int 1024
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Maximum cached plans (LRU eviction). 0 disables the cache.")

let wal_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "wal-dir" ] ~docv:"DIR"
        ~doc:
          "Enable durability: journal accepted requests and completed jobs \
           to a write-ahead log in $(docv), and recover state from it on \
           boot. Off by default.")

let fsync_batch_arg =
  Arg.(
    value & opt int 1
    & info [ "fsync-batch" ] ~docv:"N"
        ~doc:
          "fsync the journal after every $(docv) records. 1 (the default) \
           makes every response durable before the client sees it; larger \
           batches trade a bounded tail-loss window for throughput. 0 \
           disables count-based syncing.")

let fsync_ms_arg =
  Arg.(
    value & opt float 0.
    & info [ "fsync-ms" ] ~docv:"MS"
        ~doc:
          "Also fsync the journal once $(docv) milliseconds have passed \
           since the last sync (bounds the loss window of a large \
           --fsync-batch under a slow trickle of requests). 0 disables the \
           time trigger.")

let snapshot_arg =
  Arg.(
    value & opt int 512
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:
          "Snapshot the durable state (and compact the journal) after every \
           $(docv) journaled records. 0 snapshots only on clean shutdown.")

let store_dir_arg =
  Arg.(
    value & opt (some string) None
    & info [ "store-dir" ] ~docv:"DIR"
        ~doc:
          "Enable the content-addressed plan store: persist every built plan \
           to $(docv) and serve cache misses from it instead of re-planning. \
           Entries survive restarts and may be shared by several daemons \
           (shards) pointing at the same directory. Off by default.")

let store_max_bytes_arg =
  Arg.(
    value & opt (some int) None
    & info [ "store-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "Bound the plan store's total size: once exceeded, oldest entries \
           are deleted down to 80% of $(docv) at each journal compaction \
           (and after writes). Unbounded by default.")

let repl_port_arg =
  Arg.(
    value & opt (some int) None
    & info [ "repl-port" ] ~docv:"PORT"
        ~doc:
          "Serve the replication feed on $(docv): stream WAL segments and \
           the live journal tail to followers. Requires --wal-dir. 0 binds \
           an ephemeral port announced on stdout as REPL_PORT=<n>.")

let follow_arg =
  Arg.(
    value & opt (some string) None
    & info [ "follow" ] ~docv:"HOST:PORT"
        ~doc:
          "Run as a streaming follower of the primary whose replication feed \
           listens at $(docv): mirror its WAL into --wal-dir, apply every \
           record, and serve read-only traffic until promoted (SIGUSR1 or a \
           {\"req\":\"promote\"} request). Requires --wal-dir.")

let no_plan_fetch_arg =
  Arg.(
    value & flag
    & info [ "no-plan-fetch" ]
        ~doc:
          "Follower mode: never fetch plan payloads over the feed's \
           plan-fetch session; prime the warm cache from the plan store or \
           by local re-planning only.")

let parse_follow s =
  match String.rindex_opt s ':' with
  | None -> failwith (Printf.sprintf "dmfd: --follow %S is not HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port_s = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port_s with
    | Some port when port > 0 && port < 65536 && host <> "" -> (host, port)
    | _ -> failwith (Printf.sprintf "dmfd: --follow %S is not HOST:PORT" s))

(* Follower mode: no queue, no pool, no journal of its own — just the
   replication engine plus a read-only serving loop, promotable into
   the full daemon below. *)
let run_follower ~stdio ~host ~port ~workers ~queue_capacity ~cache_capacity
    ~wal_dir ~fsync_batch ~fsync_ms ~snapshot_every ~plan_store ~no_plan_fetch
    ~upstream =
  let upstream_host, upstream_port = parse_follow upstream in
  let follower =
    Replication.Follower.create
      {
        Replication.Follower.host = upstream_host;
        port = upstream_port;
        dir = wal_dir;
        cache_capacity;
        queue_capacity;
        workers;
        fsync = { Durable.Wal.every_n = fsync_batch; every_ms = fsync_ms };
        snapshot_every;
        store = plan_store;
        fetch_plans = not no_plan_fetch;
        reconnect_ms = 200.;
      }
  in
  Replication.Follower.start follower;
  let shutdown_lock = Mutex.create () in
  let stopped = ref false in
  let[@dmflint.allow
       "blocking-under-lock: shutdown_lock exists precisely to make one \
        caller do the blocking teardown while the loser waits for it; \
        nothing else ever takes this lock"] shutdown_once () =
    Mutex.lock shutdown_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock shutdown_lock)
      (fun () ->
        if not !stopped then begin
          stopped := true;
          Replication.Follower.close follower
        end)
  in
  let shutdown _signal =
    ignore
      (Thread.create
         (fun () ->
           shutdown_once ();
           exit 0)
         ())
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
  Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle
       (fun _ ->
         ignore
           (Thread.create
              (fun () ->
                Replication.Follower.promote follower;
                Printf.eprintf "dmfd: promoted to primary (SIGUSR1)\n%!")
              ())));
  Printf.eprintf "dmfd: following %s:%d, mirroring into %s\n%!" upstream_host
    upstream_port wal_dir;
  if stdio then begin
    Replication.Follower.serve_channels follower stdin stdout;
    shutdown_once ()
  end
  else
    let on_listen bound = Printf.printf "PORT=%d\n%!" bound in
    Replication.Follower.serve_tcp follower ~on_listen ~host ~port

let run stdio host port workers queue_capacity cache_capacity wal_dir
    fsync_batch fsync_ms snapshot_every store_dir store_max_bytes repl_port
    follow no_plan_fetch =
  Service.Validate.run_cli (fun () ->
      let plan_store =
        Option.map
          (fun dir ->
            Durable.Plan_store.open_store ?max_bytes:store_max_bytes ~dir ())
          store_dir
      in
      (match follow with
      | Some _ when repl_port <> None ->
        failwith "dmfd: --follow and --repl-port are mutually exclusive"
      | _ -> ());
      match follow with
      | Some upstream ->
        let wal_dir =
          match wal_dir with
          | Some dir -> dir
          | None -> failwith "dmfd: --follow requires --wal-dir"
        in
        run_follower ~stdio ~host ~port ~workers ~queue_capacity
          ~cache_capacity ~wal_dir ~fsync_batch ~fsync_ms ~snapshot_every
          ~plan_store ~no_plan_fetch ~upstream
      | None ->
      let store = Option.map Durable.Plan_store.to_store plan_store in
      let durable =
        Option.map
          (fun dir ->
            let config =
              {
                Durable.Manager.dir;
                fsync = { Durable.Wal.every_n = fsync_batch; every_ms = fsync_ms };
                snapshot_every;
                cache_capacity;
              }
            in
            Durable.Manager.start ?store:plan_store config)
          wal_dir
      in
      let feed =
        match (repl_port, durable) with
        | None, _ -> None
        | Some _, None -> failwith "dmfd: --repl-port requires --wal-dir"
        | Some rport, Some (manager, _) ->
          let fetch_plan spec =
            match plan_store with
            | None -> None
            | Some ps ->
              Option.map Durable.Plan_store.encode_prepared
                (Durable.Plan_store.find ps spec)
          in
          let feed =
            Replication.Feed.create
              {
                Replication.Feed.dir = Durable.Manager.dir manager;
                last_seq = (fun () -> Durable.Manager.last_seq manager);
                fetch_plan;
              }
          in
          Durable.Manager.subscribe_journal manager
            (Replication.Feed.notify feed);
          Some (rport, feed)
      in
      let repl_stats =
        Option.map (fun (_, f) () -> Replication.Feed.stats_json f) feed
      in
      let server =
        match durable with
        | None ->
          Service.Server.create ?workers ~queue_capacity ~cache_capacity ?store
            ()
        | Some (manager, _) ->
          Service.Server.create ?workers ~queue_capacity ~cache_capacity
            ~on_accept:(Durable.Manager.on_accept manager)
            ~on_complete:(fun ~spec ~requests ~ok ->
              Durable.Manager.on_complete manager ~spec ~requests ~ok)
            ~wal_stats:(fun () -> Durable.Manager.stats_json manager)
            ?repl_stats ?store ()
      in
      (match feed with
      | None -> ()
      | Some (rport, feed) ->
        ignore
          (Thread.create
             (fun () ->
               Replication.Feed.serve_tcp feed
                 ~on_listen:(fun bound ->
                   (* Machine-parseable, like PORT=: supervisors launch
                      `--repl-port 0` and read back where the feed
                      landed. *)
                   Printf.printf "REPL_PORT=%d\n%!" bound;
                   Printf.eprintf "dmfd: replication feed on %s:%d\n%!" host
                     bound)
                 ~host ~port:rport)
             ()));
      (match (plan_store, durable) with
      | Some ps, None ->
        Printf.eprintf "dmfd: plan store at %s (%d entries)\n%!"
          (Durable.Plan_store.dir ps)
          (Durable.Plan_store.stats ps).Durable.Plan_store.entries
      | _ -> ());
      (match durable with
      | None -> ()
      | Some (manager, recovery) ->
        let primed = Durable.Manager.prime manager server in
        Printf.eprintf
          "dmfd: recovered %d plan(s)%s and %d pending job(s) from %d \
           replayed record(s)%s%s in %.1f ms\n\
           %!"
          (primed.Durable.Manager.replanned + primed.Durable.Manager.from_store)
          (if plan_store <> None then
             Printf.sprintf " (%d from the plan store, %d re-planned)"
               primed.Durable.Manager.from_store primed.Durable.Manager.replanned
           else "")
          primed.Durable.Manager.pending recovery.Durable.Replay.replayed
          (match recovery.Durable.Replay.snapshot_seq with
          | Some s -> Printf.sprintf " on snapshot #%d" s
          | None -> "")
          (if recovery.Durable.Replay.truncated > 0 then
             Printf.sprintf " (torn tail: %d line(s) dropped)"
               recovery.Durable.Replay.truncated
           else "")
          (recovery.Durable.Replay.wall_ms +. primed.Durable.Manager.ms);
        if recovery.Durable.Replay.gap then
          Printf.eprintf
            "dmfd: WARNING: journal had a sequence gap; snapshotted the \
             recovered state and quarantined %d segment(s)\n\
             %!"
            (Durable.Manager.quarantined_segments manager));
      (* Clean shutdown: drain the queue, join the workers, sync +
         snapshot + compact the journal — exactly once, whether it is
         triggered by SIGTERM/SIGINT or by stdin reaching EOF in
         --stdio mode (both can fire; the second caller waits for the
         first and then no-ops, so Pool.join never runs twice). *)
      let shutdown_lock = Mutex.create () in
      let stopped = ref false in
      let[@dmflint.allow
           "blocking-under-lock: shutdown_lock exists precisely to make \
            one caller do the blocking teardown (worker join + journal \
            close) while the loser waits for it; nothing else ever \
            takes this lock"] shutdown_once () =
        Mutex.lock shutdown_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock shutdown_lock)
          (fun () ->
            if not !stopped then begin
              stopped := true;
              (match feed with
              | Some (_, feed) -> Replication.Feed.stop feed
              | None -> ());
              Service.Server.stop server;
              match durable with
              | Some (manager, _) -> Durable.Manager.close manager
              | None -> ()
            end)
      in
      (* The handler runs on whichever thread takes the signal —
         possibly one that holds a server lock — so the actual teardown
         happens on a fresh thread that can take those locks
         normally. *)
      let shutdown _signal =
        ignore
          (Thread.create
             (fun () ->
               shutdown_once ();
               exit 0)
             ())
      in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle shutdown);
      Sys.set_signal Sys.sigint (Sys.Signal_handle shutdown);
      if stdio then begin
        Service.Server.serve_channels server stdin stdout;
        shutdown_once ()
      end
      else
        (* The bound-port announcement goes to stdout (logs go to
           stderr) so a supervisor can launch `--port 0` shards and
           read back where each one landed. *)
        let on_listen bound =
          Printf.printf "PORT=%d\n%!" bound;
          Printf.eprintf "dmfd: serving on %s:%d with %d worker(s)%s\n%!" host
            bound
            (Service.Server.workers server)
            ((match wal_dir with
             | Some dir -> Printf.sprintf ", journaling to %s" dir
             | None -> "")
            ^
            match store_dir with
            | Some dir -> Printf.sprintf ", plan store at %s" dir
            | None -> "")
        in
        Service.Server.serve_tcp server ~on_listen ~host ~port)

let cmd =
  let doc = "demand-driven mixture-preparation server (NDJSON over stdio/TCP)" in
  let term =
    Term.(
      const run $ stdio_arg $ host_arg $ port_arg $ workers_arg $ queue_arg
      $ cache_arg $ wal_dir_arg $ fsync_batch_arg $ fsync_ms_arg
      $ snapshot_arg $ store_dir_arg $ store_max_bytes_arg $ repl_port_arg
      $ follow_arg $ no_plan_fetch_arg)
  in
  Cmd.v (Cmd.info "dmfd" ~version:"1.0.0" ~doc) term

let () = exit (Cmd.eval cmd)
