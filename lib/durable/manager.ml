type config = {
  dir : string;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
  cache_capacity : int;
}

type primed = { replanned : int; from_store : int; pending : int; ms : float }

type t = {
  config : config;
  store : Plan_store.t option;
  lock : Mutex.t;
  lock_file : Unix.file_descr;
  wal : Wal.t;
  mirror : State.t;
  recovery : Replay.stats;
  segments_quarantined : int;
  mutable last_snapshot_seq : int;
  mutable since_snapshot : int;
  mutable snapshots_written : int;
  mutable segments_compacted : int;
  mutable snapshots_compacted : int;
  mutable primed : primed;
  mutable listeners : (int -> unit) list;
  mutable closed : bool;
}

(* A second daemon journaling to the same directory would interleave
   duplicate sequence numbers into the same O_APPEND segment, so the
   directory is claimed with an advisory lock held for the manager's
   lifetime (and dropped by the kernel if the process dies). *)
let acquire_dir_lock dir =
  let fd =
    Unix.openfile (Filename.concat dir "LOCK")
      [ Unix.O_RDWR; Unix.O_CREAT ]
      0o644
  in
  match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> fd
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
    Unix.close fd;
    failwith
      (Printf.sprintf "wal directory %s is in use by another process" dir)

(* Records past a sequence gap can never be replayed (applying them
   would rebuild a state that never existed), yet left in place they
   would abort every future boot's replay before it reaches the journal
   written after them.  The recovered state is snapshotted first — so
   nothing already applied is lost — and only then are the unreachable
   segments renamed out of the [wal-*.ndjson] namespace.  A crash
   between the two steps just re-runs this on the next boot. *)
let quarantine_segments dir =
  List.fold_left
    (fun n (_start, path) ->
      let rec fresh i =
        let candidate =
          if i = 0 then path ^ ".quarantined"
          else Printf.sprintf "%s.quarantined.%d" path i
        in
        if Sys.file_exists candidate then fresh (i + 1) else candidate
      in
      Sys.rename path (fresh 0);
      n + 1)
    0 (Wal.segments ~dir)

let start ?store config =
  Wal.ensure_dir config.dir;
  let lock_file = acquire_dir_lock config.dir in
  let state, recovery =
    Replay.recover ~dir:config.dir ~cache_capacity:config.cache_capacity
  in
  Replay.repair recovery;
  let last_snapshot_seq, since_snapshot, segments_quarantined =
    if recovery.Replay.gap then begin
      let upto = recovery.Replay.next_seq - 1 in
      ignore (Snapshot.write ~dir:config.dir ~seq:upto state);
      (upto, 0, quarantine_segments config.dir)
    end
    else
      ( (match recovery.Replay.snapshot_seq with Some s -> s | None -> 0),
        recovery.Replay.replayed,
        0 )
  in
  let wal =
    Wal.open_segment ~dir:config.dir ~start_seq:recovery.Replay.next_seq
      ~fsync:config.fsync
  in
  ( {
      config;
      store;
      lock = Mutex.create ();
      lock_file;
      wal;
      mirror = state;
      recovery;
      segments_quarantined;
      last_snapshot_seq;
      since_snapshot;
      snapshots_written = 0;
      segments_compacted = 0;
      snapshots_compacted = 0;
      primed = { replanned = 0; from_store = 0; pending = 0; ms = 0. };
      listeners = [];
      closed = false;
    },
    recovery )

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
[@@dmflint.allow
  "callback-under-lock: with-lock combinator; dmflint analyzes every \
   caller's closure under t.lock via param_held"]

(* Caller holds the lock. *)
let snapshot_locked t =
  let upto = Wal.next_seq t.wal - 1 in
  if upto > t.last_snapshot_seq then begin
    Wal.sync t.wal;
    ignore (Snapshot.write ~dir:t.config.dir ~seq:upto t.mirror);
    Wal.rotate t.wal;
    let segs, snaps = Compact.run ?store:t.store ~dir:t.config.dir ~upto () in
    t.last_snapshot_seq <- upto;
    t.since_snapshot <- 0;
    t.snapshots_written <- t.snapshots_written + 1;
    t.segments_compacted <- t.segments_compacted + segs;
    t.snapshots_compacted <- t.snapshots_compacted + snaps
  end

(* [snapshot] gates the threshold check: the admission hook runs under
   the queue lock, where a snapshot's sync + write + compaction would
   stall every client and worker for the duration of the disk I/O.
   Admissions still count; the snapshot happens at the next completion
   (every accepted job completes), which runs on a worker thread with
   no queue lock held.

   t.lock covers only the append (sequence assignment + the mirror
   update must be atomic); the durability wait happens {e outside} it
   through [Wal.commit], so concurrent journaling threads accumulate
   into one group fsync instead of serializing an fsync each — that is
   the whole group-commit win.  Journal listeners (the replication
   feed) are notified after the append, before the durability wait: a
   follower may hold a record the primary has not fsynced yet, which
   can only ever make the follower {e ahead} of the primary's disk,
   never behind a response some client observed. *)
let journal ~snapshot t kind =
  let appended =
    locked t (fun () ->
        if t.closed then None
        else begin
          let seq = Wal.append t.wal kind in
          State.apply t.mirror kind;
          t.since_snapshot <- t.since_snapshot + 1;
          Some (seq, Wal.sync_due t.wal, t.listeners)
        end)
  in
  match appended with
  | None -> ()
  | Some (seq, due, listeners) ->
    List.iter (fun f -> f seq) listeners;
    if due then Wal.commit t.wal ~upto:seq;
    if snapshot && t.config.snapshot_every > 0 then
      locked t (fun () ->
          if (not t.closed) && t.since_snapshot >= t.config.snapshot_every then
            snapshot_locked t)
[@@dmflint.allow
  "blocking-under-lock: the WAL append's write(2) (and the occasional \
   threshold snapshot) run under t.lock by design — t.lock serializes \
   the journal and is only ever taken from worker threads and \
   shutdown, never while the queue admission lock is held (PR 5 \
   review); the fsync wait itself happens outside t.lock via \
   Wal.commit"]

let subscribe_journal t f = locked t (fun () -> t.listeners <- f :: t.listeners)

let on_accept t spec = journal ~snapshot:false t (Record.Accepted spec)

let on_complete t ~spec ~requests ~ok =
  journal ~snapshot:true t (Record.Completed { spec; requests; ok })

let quarantined_segments t = t.segments_quarantined

(* Before any transport serves, the mirror still holds exactly what
   recovery rebuilt.  Its cache goes in least recently used first, the
   insertion order that reproduces the recency chain. *)
let prime t server =
  let t0 = Unix.gettimeofday () in
  let cache, pending =
    locked t (fun () ->
        (List.rev (State.cache_specs t.mirror), State.outstanding t.mirror))
  in
  let p = Service.Server.prime server ~cache ~pending in
  let primed =
    {
      replanned = p.Service.Server.replanned;
      from_store = p.Service.Server.from_store;
      pending = List.length pending;
      ms = (Unix.gettimeofday () -. t0) *. 1000.;
    }
  in
  locked t (fun () -> t.primed <- primed);
  primed

let state t = locked t (fun () -> State.copy t.mirror)
let snapshot_now t = locked t (fun () -> snapshot_locked t)
[@@dmflint.allow
  "blocking-under-lock: explicit operator-requested snapshot; the disk \
   I/O is the point, and t.lock must cover it so no append interleaves \
   with the snapshot's view of the mirror"]
let appends t = locked t (fun () -> Wal.appends t.wal)
let fsyncs t = locked t (fun () -> Wal.fsyncs t.wal)
let group_commits t = Wal.group_commits t.wal
let avg_batch_size t = Wal.avg_batch_size t.wal
let dir t = t.config.dir
let last_seq t = locked t (fun () -> Wal.next_seq t.wal - 1)

let stats_json t =
  locked t (fun () ->
      let r = t.recovery in
      Service.Jsonl.Obj
        [
          ("dir", Service.Jsonl.String t.config.dir);
          ("last_seq", Service.Jsonl.Int (Wal.next_seq t.wal - 1));
          ("appends", Service.Jsonl.Int (Wal.appends t.wal));
          ("fsyncs", Service.Jsonl.Int (Wal.fsyncs t.wal));
          ("group_commits", Service.Jsonl.Int (Wal.group_commits t.wal));
          ("avg_batch_size", Service.Jsonl.Float (Wal.avg_batch_size t.wal));
          ("fsync_every_n", Service.Jsonl.Int t.config.fsync.Wal.every_n);
          ("fsync_every_ms", Service.Jsonl.Float t.config.fsync.Wal.every_ms);
          ("snapshot_every", Service.Jsonl.Int t.config.snapshot_every);
          ("snapshots_written", Service.Jsonl.Int t.snapshots_written);
          ("segments_compacted", Service.Jsonl.Int t.segments_compacted);
          ("snapshots_compacted", Service.Jsonl.Int t.snapshots_compacted);
          ("segments_quarantined", Service.Jsonl.Int t.segments_quarantined);
          ( "recovery",
            Service.Jsonl.Obj
              [
                ( "snapshot_seq",
                  match r.Replay.snapshot_seq with
                  | Some s -> Service.Jsonl.Int s
                  | None -> Service.Jsonl.Null );
                ("replayed", Service.Jsonl.Int r.Replay.replayed);
                ("truncated", Service.Jsonl.Int r.Replay.truncated);
                ("gap", Service.Jsonl.Bool r.Replay.gap);
                ("wall_ms", Service.Jsonl.Float r.Replay.wall_ms);
                ("prime_ms", Service.Jsonl.Float t.primed.ms);
                ( "primed_plans",
                  Service.Jsonl.Int (t.primed.replanned + t.primed.from_store)
                );
                ("primed_replanned", Service.Jsonl.Int t.primed.replanned);
                ("primed_from_store", Service.Jsonl.Int t.primed.from_store);
                ("primed_pending", Service.Jsonl.Int t.primed.pending);
              ] );
        ])

let close t =
  locked t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        snapshot_locked t;
        Wal.close t.wal;
        Unix.close t.lock_file
      end)
[@@dmflint.allow
  "blocking-under-lock: shutdown-only path; the final sync + snapshot \
   must complete under t.lock so a racing journal call either lands \
   before the snapshot or observes closed=true and does nothing"]
