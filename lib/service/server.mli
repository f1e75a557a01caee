(** The demand-driven preparation server.

    One {!t} owns the admission queue, the LRU plan cache, the worker
    pool and the counters; any number of transports feed it.  The wire
    protocol is newline-delimited JSON ({!Request}, {!Response}) served
    either over stdin/stdout ({!serve_channels} — what [dmfd --stdio]
    runs, and what tests and CI use so no sockets are needed) or over
    TCP ({!serve_tcp}), one thread per connection sharing the same
    queue, cache and pool.

    {!serve_channels} pipelines: the reader admits requests as lines
    arrive (so a client that writes a burst before reading gets its
    identical requests coalesced into one planning job), while a writer
    thread emits responses strictly in request order.  [stats] requests
    are evaluated at their position in the response order, which makes
    the counters deterministic for a single-transport client: after [n]
    responses, [served = n]. *)

type t

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?on_accept:(Request.spec -> unit) ->
  ?on_complete:(spec:Request.spec -> requests:int -> ok:bool -> unit) ->
  ?wal_stats:(unit -> Jsonl.t) ->
  ?repl_stats:(unit -> Jsonl.t) ->
  ?store:Store.t ->
  unit ->
  t
(** Start the pool.  [workers] defaults to {!Mdst.Par.default_domains}
    (so [MDST_DOMAINS] sizes the pool), [queue_capacity] to 256 pending
    jobs, [cache_capacity] to 1024 cached plans.

    The three optional hooks are how a write-ahead log observes the
    server without the service library depending on it ([dmfd] wires
    them to [Durable.Manager]):
    - [on_accept] fires for every admitted prepare request, in
      admission order, under the queue lock ({!Queue.create}'s
      [on_admit]);
    - [on_complete] fires for every resolved planning job — cache hits
      included, since a hit refreshes LRU recency — strictly {e before}
      the job's waiters are released, so a synced journal record always
      precedes the response a client can observe;
    - [wal_stats] is evaluated on each [stats] request and becomes the
      response's [wal] object;
    - [repl_stats] likewise becomes the response's [replication]
      object (a promoted follower or a feed-serving primary wires it,
      see [lib/replication]).

    [store] plugs in a second plan-cache tier (see {!Store}): after an
    LRU miss, workers and {!prime} alike go through {!Store.obtain} —
    the store first, planning with write-through otherwise.  Its
    counters become the stats response's [plan_store] object. *)

val workers : t -> int

val stats : t -> Response.stats

val cache_keys : t -> string list
(** Cached plan keys, most recently used first (recovery tests compare
    these against the durable state model). *)

type primed = { replanned : int; from_store : int }
(** How {!prime} rebuilt each recovered plan: decoded from the plan
    store, or re-planned from scratch. *)

val prime : t -> cache:Request.spec list -> pending:Request.spec list -> primed
(** Rebuild recovered state on boot: for each [cache] spec (given least
    recently used first, reproducing the recency order), decode from
    the plan store when one is configured and the entry is valid,
    otherwise re-plan — both paths produce identical values, see the
    differential tests — then resubmit [pending] specs without waiters
    and without re-triggering [on_accept] (their accepted records are
    already journaled).  Specs that fail validation or planning are
    skipped and counted in neither field.  Call before serving any
    transport. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Serve one NDJSON stream until end of input; responses are flushed
    after every line.  Returns once every admitted request has been
    answered.  The server stays usable afterwards. *)

val serve_tcp : ?on_listen:(int -> unit) -> t -> host:string -> port:int -> unit
(** {!serve_channels} every connection through {!Net.serve}, forever.
    [on_listen] is how [dmfd --port 0] announces its ephemeral port to
    the router launcher and to smoke tests.
    @raise Unix.Unix_error if the address cannot be bound. *)

val stop : t -> unit
(** Close the admission queue and join the workers.  Jobs already
    admitted are still completed first. *)
