(** The append-only NDJSON journal, with group-commit durability.

    A WAL directory holds segment files named [wal-<seq12>.ndjson],
    where [<seq12>] is the zero-padded sequence number of the segment's
    first record; records carry strictly increasing sequence numbers
    across segments.  {!Manager} opens a fresh segment on every boot
    and rotates to a new one at each snapshot, so {!Compact} can drop
    whole files that a snapshot has made redundant.

    Durability is tunable with {!fsync_policy} and decoupled from
    appending: {!append} only writes; a thread whose record is due
    (per {!sync_due}) calls {!commit} and parks until an fsync covers
    its sequence number.  Concurrent committers share one fsync — the
    first to arrive leads, the rest ride the batch and all release
    together — so [every_n = 1] keeps its strict meaning (no caller
    returns before its record is on disk) at far fewer than one fsync
    per record under load.  [every_ms] adds a time bound so a slow
    trickle of requests does not postpone the sync indefinitely;
    either trigger alone may be disabled with a non-positive value.

    {!append} must still be serialized by the caller ({!Manager}'s
    lock — appends assign sequence numbers and interleave bytes);
    {!commit}, {!sync} and the counters are safe from any thread.

    A failed fsync fails the WAL for good: the error is raised to the
    committer that led it and to every committer parked on it, and
    every later {!commit} and {!sync} raises it again without another
    fsync ({!rotate} and {!close} too, [close] after closing the
    segment).  Nothing ever waits on a failed WAL. *)

type fsync_policy = { every_n : int; every_ms : float }

val strict : fsync_policy
(** [{ every_n = 1; every_ms = 0. }] — every record durable before its
    journaling call returns. *)

type t

val open_segment : dir:string -> start_seq:int -> fsync:fsync_policy -> t
(** Create (or append to) the segment whose first record will be
    [start_seq], creating [dir] as needed.
    @raise Unix.Unix_error if the directory or file cannot be made. *)

val append : t -> Record.kind -> int
(** Journal one record; returns the sequence number it was assigned.
    Does not sync — check {!sync_due} and call {!commit} (outside any
    lock {!append} is serialized under). *)

val sync_due : t -> bool
(** Whether the fsync policy wants a sync now (count or time
    trigger). *)

val commit : t -> upto:int -> unit
(** Park until an fsync covers sequence number [upto], leading the
    group fsync if no sync is in flight.  Must be called with no locks
    held.
    @raise the fsync's exception once the WAL has failed. *)

val sync : t -> unit
(** Force an fsync of any unsynced appends now, without parking on the
    commit queue (safe under the manager's lock; rotate, close and
    snapshots use this).
    @raise the fsync's exception once the WAL has failed. *)

val rotate : t -> unit
(** Sync and close the current segment, then open a fresh one starting
    at the next sequence number. *)

val close : t -> unit
(** Sync and close.  The value must not be used afterwards. *)

val next_seq : t -> int
(** Sequence number the next {!append} will be assigned. *)

val appends : t -> int
(** Records appended through this value (all segments). *)

val fsyncs : t -> int
(** fsync calls issued through this value (group commits included). *)

val group_commits : t -> int
(** fsyncs issued by {!commit} leaders — each released a whole batch
    of parked committers at once. *)

val avg_batch_size : t -> float
(** Mean records newly covered per group commit ([0.] before the
    first); the batching win strict durability gets from concurrency. *)

(** {2 Directory layout} *)

val segment_name : int -> string
val segments : dir:string -> (int * string) list
(** [(start_seq, absolute path)] of every segment file in [dir], in
    ascending [start_seq] order; empty for a missing directory. *)

val ensure_dir : string -> unit
(** [mkdir -p]. *)
