(** A streaming follower: hot standby for a [dmfd] primary.

    The follower subscribes to a primary's replication feed
    ({!Feed}), mirrors its WAL byte-for-byte into a local directory
    ({!Sink}), CRC-verifies every record, and applies each completed
    job to its serving cache, which tracks the primary's LRU.  A plan
    the cache lacks comes from {!Service.Store.obtain} over a tier
    composed of the local plan store and the feed's plan-fetch
    session, with deterministic re-planning as the fallback; all three
    produce the same value.  No durable-state model is kept while
    following: the mirrored journal is that state, and promotion
    rebuilds it.

    While following, it serves read-only traffic: [ping], [stats]
    (with a [replication] object carrying role and lag), [route]
    diagnostics, and [prepare] requests that hit the warm cache
    (misses answer with an error naming the primary).  A [promote]
    request — or {!promote}, which [dmfd] wires to [SIGUSR1] — turns
    it into a full primary: the feed stops, the mirrored directory
    goes through ordinary {!Durable.Manager.start} crash recovery
    (so the promoted node's stats show [replayed > 0]), a complete
    {!Service.Server} is primed by {!Durable.Manager.prime}, and it
    takes over, journaling new appends where the old primary left
    off.

    Exactly-once apply holds because record CRCs are re-verified on
    arrival, sequence numbers are strictly monotonic, and the apply
    cursor skips already-covered numbers — the same idempotent filter
    {!Durable.Replay} uses, which also makes resume overlap after a
    reconnect harmless.  A sequence gap (lost records) drops the
    connection and resubscribes from scratch instead of applying
    around a hole. *)

type config = {
  host : string;  (** The primary's replication feed endpoint. *)
  port : int;
  dir : string;  (** Local mirror directory (the follower's WAL). *)
  cache_capacity : int;
  queue_capacity : int;  (** For the post-promotion server. *)
  workers : int option;  (** Ditto. *)
  fsync : Durable.Wal.fsync_policy;  (** Ditto. *)
  snapshot_every : int;  (** Ditto. *)
  store : Durable.Plan_store.t option;
  fetch_plans : bool;
      (** Ask the feed for plan payloads on cache-prime misses
          instead of re-planning locally. *)
  reconnect_ms : float;  (** Backoff between feed reconnect attempts. *)
}

type t

val create : config -> t
(** Claim the mirror directory and recover any previous mirror
    through {!Durable.Replay} (repairing torn tails, wiping a mirror
    with a sequence hole), so a restarted follower resumes from where
    its disk stands.
    @raise Failure when another process holds the directory. *)

val start : t -> unit
(** Start the engine thread: connect, subscribe from the mirror's
    cursor, apply the stream, reconnect with backoff on disconnect. *)

val promote : t -> unit
(** Promote to primary (idempotent; concurrent callers wait for the
    one promotion and share its result): stop the engine, release the
    mirror, run {!Durable.Manager.start} recovery on it, stand up a
    full server.  [dmfd --follow] wires this to [SIGUSR1]. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve one NDJSON stream: read-only while following; after a
    [promote] request (or a concurrent {!promote}), the rest of
    the stream — and every later connection — gets the promoted
    server's full service. *)

val serve_tcp : ?on_listen:(int -> unit) -> t -> host:string -> port:int -> unit
(** {!serve_channels} every connection through {!Service.Net.serve}
    until {!close}. *)

val stats : t -> Service.Response.stats
(** The follower-shaped stats record served to [stats] requests while
    following (zero queue/workers, warm-cache counters, a [wal]
    object for the mirror and a [replication] object for role and
    lag). *)

val repl_json : t -> Service.Jsonl.t
(** Just the [replication] stats object, for either role. *)

val role : t -> [ `Following | `Promoted ]

val last_applied : t -> int
(** Highest sequence number applied. *)

val connected : t -> bool

val close : t -> unit
(** Stop the engine (and, when promoted, the server and manager);
    release the mirror directory. *)
