(** Content-addressed on-disk store of prepared plans — the second
    cache tier under {!Service.Cache}'s in-memory LRU.

    One entry is one file named by a stable content hash of the
    canonical bytes of the planning inputs (ratio parts, demand,
    algorithm, scheduler, Mc, storage budget — the same identity as
    {!Service.Request.cache_key}, made byte-precise).  The payload is
    the {!Mdst.Plan_codec} encoding of the full prepared result:
    summary, scheduler counters, and — for single-pass runs — the plan
    and schedule themselves.

    Durability discipline matches the snapshot writer: write to a
    unique temp name, [fsync], [rename], fsync the directory.  Entries
    are immutable once named, so concurrent readers (the shards of a
    cluster sharing one directory) need no locking; the only
    cross-process coordination is an advisory [GC.LOCK] taken with
    [F_TLOCK] around garbage collection, and a contended lock simply
    skips the GC round.

    Every read verifies the CRC and the embedded spec-key bytes (a
    hash-collision guard), then decodes through the validating codec
    constructors; any failure deletes the entry and reads as a miss, so
    corruption can only ever cost a re-plan, never serve a wrong
    schedule. *)

type t

val open_store : ?max_bytes:int -> dir:string -> unit -> t
(** Open (creating [dir] if needed) a store.  [max_bytes], when given,
    bounds the total size of entries: {!gc} deletes oldest-first down
    to 80% of the bound once it is exceeded. *)

val dir : t -> string

val spec_bytes : Service.Request.spec -> string
(** Canonical bytes of the planning inputs — the hash preimage.  Ratio
    names are excluded, exactly as {!Service.Request.cache_key} ignores
    them: names label reports, they never change a plan. *)

val key_of_spec : Service.Request.spec -> string
(** [Mdst.Plan_codec.hash_hex (spec_bytes spec)] — 32 hex characters. *)

val entry_path : t -> Service.Request.spec -> string
(** Absolute path of the entry file ([ps-<key>.plan]) for a spec,
    whether or not it exists. *)

val find : t -> Service.Request.spec -> Service.Prep.prepared option
(** Look up a spec.  [None] on absent, version-mismatched, corrupt or
    colliding entries (the latter three also delete the file and count
    as [errors]). *)

val add : t -> Service.Request.spec -> Service.Prep.prepared -> unit
(** Persist a prepared result (atomic write; last writer wins on a
    race, both writers having produced equal bytes by canonicality).
    Runs {!gc} afterwards when a size bound is configured.  I/O errors
    are counted, never raised: the store is an accelerator, losing a
    write only costs a future re-plan. *)

val gc : t -> unit
(** Delete oldest entries (by mtime) until total size is at or below
    80% of [max_bytes].  No-op without a bound, when under it, or when
    another process holds [GC.LOCK]. *)

type stats = {
  entries : int;  (** Entry files currently on disk. *)
  bytes : int;  (** Their total size. *)
  hits : int;
  misses : int;
  writes : int;
  errors : int;  (** Corrupt/mismatched entries deleted + failed writes. *)
  gc_runs : int;
  gc_removed : int;
  max_bytes : int option;
}

val stats : t -> stats
(** Counters are per-handle (this process); [entries]/[bytes] scan the
    shared directory. *)

val stats_json : t -> Service.Jsonl.t

val to_store : t -> Service.Store.t
(** The store as the server's second plan-cache tier: {!find}, {!add}
    and {!stats_json} behind the {!Service.Store.t} record that
    [lib/service] consults without naming this library. *)

(** {2 Codec internals, exposed for the golden-vector and corruption
    tests} *)

val encode_prepared : Service.Prep.prepared -> string
(** Canonical payload bytes of a prepared result (no file framing). *)

val decode_prepared : string -> (Service.Prep.prepared, string) result

val encode_entry : spec_key:string -> payload:string -> string
(** Full file image: magic, length-prefixed spec-key bytes and payload,
    CRC-32 trailer. *)

val decode_entry : string -> (string * string, string) result
(** [(spec_key_bytes, payload)] of a file image after magic and CRC
    checks. *)
