(** Boot-time recovery: latest valid snapshot + journal tail.

    {!recover} rebuilds the durable {!State} a crashed daemon left
    behind: load the newest snapshot that verifies, then apply every
    journal record with a later sequence number, segment by segment, in
    order.  The first record in a segment that fails to verify — CRC
    mismatch, JSON parse error, an over-long or truncated line — marks
    a torn tail: that record and everything after it {e in that
    segment} is dropped (and counted), and replay moves to the next
    segment.  A sequence-number gap between surviving records aborts
    the replay at the gap instead of rebuilding a state that never
    existed.

    The rebuilt state carries only request specs; the caller re-derives
    cached plans by re-running the deterministic planner
    ({!Service.Server.prime} via {!Manager}).

    {!recover} itself never writes: torn segments are reported in
    {!field-stats.repairs}, and {!repair} truncates them back to their
    valid prefix.  Both boots that append to a recovered directory
    ({!Manager.start} and [Replication.Follower.create]) call it
    {e before} appending again.  Otherwise a segment whose {e first}
    record was torn would be re-opened for append at the same
    [start_seq] and the new record's bytes would merge with the torn
    partial line into one unreadable record. *)

type stats = {
  snapshot_seq : int option;  (** Snapshot the recovery started from. *)
  replayed : int;  (** Journal records applied on top of it. *)
  truncated : int;  (** Torn or invalid journal lines dropped. *)
  gap : bool;  (** A sequence gap stopped the replay early. *)
  wall_ms : float;  (** Snapshot load + replay time. *)
  next_seq : int;  (** First unused sequence number after recovery. *)
  repairs : (string * int) list;
      (** [(path, valid_bytes)] for each segment holding torn bytes:
          everything past [valid_bytes] failed to verify and must be
          truncated away before the journal accepts new appends. *)
}

val recover : dir:string -> cache_capacity:int -> State.t * stats
(** A missing or empty [dir] recovers to the empty state (all-zero
    stats, [next_seq = 1]). *)

val repair : stats -> unit
(** Truncate every segment in [stats.repairs] to its [valid_bytes] and
    fsync it (an fsync error is ignored; the truncation stands).
    @raise Unix.Unix_error if a segment cannot be opened or truncated. *)
