(** NDJSON proxy that shards a dmfd fleet by coalesce key.

    The router listens on the daemon protocol and forwards [prepare]
    requests — as raw bytes — to the shard owning
    [Request.coalesce_key] on a consistent-hash {!Ring}.  Requests that
    could merge into one planning job therefore always meet in the same
    daemon, so demand-summing coalescing and the plan cache (whose key
    refines the coalesce key) work exactly as in a single daemon.

    Per client connection, responses are emitted strictly in request
    order even though shards answer concurrently.  [ping] and the
    [route] placement diagnostic are answered locally; [stats] fans out
    to every node — primaries and followers — and merges
    deterministically ({!Stats.merge}).  A dead shard yields error
    responses within the shard client's bounded retry budget — never a
    hang — and is reported [healthy:false] in merged stats (health =
    did it answer this stats probe).

    A shard may register a hot standby (a [dmfd --follow] node): the
    ring still hashes to the primary, but every forwarded request leads
    with whichever of the pair looks healthy (primary preferred) and
    falls through to the other exactly once on transport failure — so
    reads fail over to the follower's warm cache while the primary is
    down, and writes follow as soon as the follower is promoted. *)

type t

val create :
  ?vnodes:int ->
  ?retries:int ->
  ?backoff_ms:float ->
  ?cooldown_ms:float ->
  ((string * int) * (string * int) option) list ->
  t
(** [create endpoints] builds the ring over [(host, port)] primaries,
    each optionally paired with a follower endpoint; the list order
    defines shard indices.  Connections are opened lazily on first use.
    Defaults: {!Ring.default_vnodes}, 3 retries, 50 ms backoff, 1 s
    cooldown.
    @raise Invalid_argument on an empty endpoint list. *)

val shards : t -> int

val followers : t -> int
(** Number of shards with a registered follower. *)

val route : t -> Service.Request.spec -> int * string
(** Owner of a spec's coalesce key: [(shard index, "host:port")].
    Pure ring arithmetic — no I/O. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Proxy one client connection until EOF, preserving request order in
    the responses. *)

val serve_tcp : ?on_listen:(int -> unit) -> t -> host:string -> port:int -> unit
(** {!serve_channels} every client connection through
    {!Service.Net.serve}.  Never returns normally. *)

val stats_json : t -> Service.Jsonl.t
(** Blocking cluster-wide stats body (the fan-out the [stats] request
    uses), for embedders and tests. *)

val close : t -> unit
(** Close every shard connection, failing outstanding requests. *)
