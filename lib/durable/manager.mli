(** The daemon-facing façade over the durable machinery.

    One {!t} owns the journal, a live mirror of the durable {!State},
    and the snapshot/compaction schedule.  {!start} recovers whatever a
    previous process left in the directory and then opens a fresh
    journal segment after it; the caller wires {!on_accept}/
    {!on_complete} into a server's hooks and hands the server to
    {!prime}, which rebuilds the recovered plans and pending requests
    in it.

    All operations are mutex-guarded and safe across domains and
    threads.  {!on_complete} must be invoked {e before} the job's
    waiters are released (the server guarantees this): with a strict
    fsync policy, any response a client has observed is then already
    durable — the invariant the kill -9 recovery tests check. *)

type config = {
  dir : string;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
      (** Snapshot (then rotate and compact) after this many journal
          records; [<= 0] snapshots only on {!close}. *)
  cache_capacity : int;  (** Must match the server's, for the mirror. *)
}

type t

val start : ?store:Plan_store.t -> config -> t * Replay.stats
(** Recover, then open the journal for appending.  [store] hands the
    manager the daemon's plan store so threshold snapshots run its GC
    alongside journal compaction ({!Compact.run}).

    Recovery side effects on the directory: torn segment tails reported
    by {!Replay.recover} are truncated back to their valid prefix (so a
    reopened segment can never merge a new record with torn bytes), and
    when a sequence gap aborted the replay the recovered state is
    snapshotted and every existing segment is renamed to
    [*.quarantined] — unreachable records are preserved for inspection
    but no longer block future boots from replaying the journal written
    after them.

    Holds an advisory lock on [dir/LOCK] until {!close} (or process
    death).
    @raise Failure if another process already journals to [dir]. *)

val on_accept : t -> Service.Request.spec -> unit
(** Journal an admitted prepare request (the queue's admission hook,
    called under the queue lock so journal order = admission order). *)

val on_complete :
  t -> spec:Service.Request.spec -> requests:int -> ok:bool -> unit
(** Journal a resolved planning job (the server's completion hook,
    called before the waiters are released). *)

val quarantined_segments : t -> int
(** Segments this boot renamed aside because a sequence gap made them
    unreplayable; 0 on a clean recovery. *)

type primed = {
  replanned : int;  (** Recovered plans re-planned from scratch. *)
  from_store : int;  (** Recovered plans decoded from the plan store. *)
  pending : int;  (** Accepted-but-unanswered requests resubmitted. *)
  ms : float;  (** Wall time of the whole step. *)
}

val prime : t -> Service.Server.t -> primed
(** Rebuild in [server] the state recovery found: the cached specs,
    least recently used first so the recency chain comes back, through
    {!Service.Server.prime} (plan store first, re-planning otherwise),
    then the pending requests, resubmitted without passing
    {!on_accept} again — their accepted records are already in the
    journal.  The result also becomes {!stats_json}'s [recovery]
    figures ([prime_ms], [primed_plans], [primed_replanned],
    [primed_from_store], [primed_pending]).  Call once, after {!start}
    and before any transport serves [server]. *)

val state : t -> State.t
(** A copy of the live durable-state mirror (tests compare it against
    both the real server and a fresh {!Replay.recover}). *)

val snapshot_now : t -> unit
(** Sync, snapshot at the last journaled record, rotate the segment and
    compact.  No-op when nothing new was journaled since the last
    snapshot. *)

val appends : t -> int
val fsyncs : t -> int

val group_commits : t -> int
(** Group-commit fsyncs the journal has issued ({!Wal.group_commits}). *)

val avg_batch_size : t -> float
(** Mean records per group commit ({!Wal.avg_batch_size}). *)

val dir : t -> string
(** The journal directory this manager owns. *)

val last_seq : t -> int
(** Sequence number of the most recently journaled record (0 before
    the first). *)

val subscribe_journal : t -> (int -> unit) -> unit
(** Register a listener called with each record's sequence number just
    after it is appended (outside the manager's lock, from the
    journaling thread, possibly before the record is fsynced).  The
    replication feed uses this to wake segment tails; listeners must
    be fast and must not call back into the manager. *)

val stats_json : t -> Service.Jsonl.t
(** The [wal] object of the daemon's [stats] response: journal and
    snapshot counters plus the boot's recovery stats. *)

val close : t -> unit
(** Final sync, snapshot and compaction, then close the journal. *)
