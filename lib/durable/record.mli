(** One write-ahead-log record: the unit {!Wal} appends and {!Replay}
    decodes.

    Two kinds of event are journaled, mirroring the two durable state
    transitions of the server:

    - [Accepted spec] — the admission queue took a prepare request in
      (logged under the queue lock, so the journal order matches the
      admission order);
    - [Completed _] — a planning job resolved.  [spec] is the job's
      batch spec (demand already summed over the coalesced waiters),
      [requests] how many accepted requests it answers, and [ok]
      whether planning succeeded.  Completions are logged for cache
      hits too: a hit refreshes LRU recency, and recovery must replay
      that refresh to rebuild the same eviction order.

    On the wire a record is one JSON object on one NDJSON line:
    [{"seq": n, "rec": "accepted"|"completed", "spec": {...}, ..., "crc": c}]
    where [c] is the {!Mdst.Crc32} of the record's canonical encoding
    without the [crc] field.  The {!Service.Jsonl} codec prints
    deterministically (key order preserved, floats round-trip), which
    is what makes checksum-over-reencoding sound. *)

type kind =
  | Accepted of Service.Request.spec
  | Completed of { spec : Service.Request.spec; requests : int; ok : bool }

val encode : seq:int -> kind -> string
(** One protocol line (no trailing newline), [crc] field included. *)

val decode : string -> (int * kind, string) result
(** Parse and verify one line: JSON well-formedness, the [crc] match
    against the re-encoded record, and spec validity all checked.  The
    [Error] message says which check failed — {!Replay} treats any of
    them as the start of a torn tail. *)

(** {2 Spec codec}

    Shared with {!Snapshot}: a spec is stored as the prepare-request
    object {!Service.Request.to_json} produces, and read back through
    {!Service.Request.of_json}, so journaled specs pass exactly the
    validation live requests do. *)

val spec_to_json : Service.Request.spec -> Service.Jsonl.t

val spec_of_json : Service.Jsonl.t -> (Service.Request.spec, string) result
