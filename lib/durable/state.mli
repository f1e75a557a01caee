(** The durable model of the daemon's in-memory state: which plans the
    LRU {!Service.Cache} holds (and in what recency order), and which
    accepted requests are still unanswered.

    Only request {e specs} are stored — never plans.  Planning is
    deterministic (every algorithm dispatches through the
    {!Mdst.Scheduler} registry), so recovery re-derives the plans from
    the plan store or by re-running {!Service.Prep.run}; the journal
    and snapshots stay small and version-independent of the plan
    representation.

    The recency model is itself a {!Service.Cache} — of specs, keyed
    by {!Service.Request.cache_key} — so it evicts by the very code the
    server's plan cache runs, not by a re-implementation of it.

    Applying the record stream in journal order reproduces the server's
    state exactly:
    - [Accepted spec] appends to the outstanding list (admission
      order);
    - [Completed _] discharges [requests] outstanding entries with the
      batch's coalesce key (oldest first) and, when [ok], adds the
      batch's spec as most-recently-used ({!Service.Cache.add}: a
      cached key moves to the front, a new one may evict the LRU end).

    The structure is not thread-safe; {!Manager} serializes access. *)

type t

val create : cache_capacity:int -> t
(** Empty state.  [cache_capacity = 0] disables the cache model, the
    same convention as {!Service.Cache.create}. *)

val copy : t -> t

val restore :
  cache_capacity:int ->
  cache_mru:Service.Request.spec list ->
  outstanding:Service.Request.spec list ->
  t
(** Rebuild a state from serialized contents ({!Snapshot.load}).
    [cache_mru] is most-recently-used first and is inserted from its
    LRU end; entries beyond the capacity are evicted from that end, so
    a daemon restarted with a smaller cache keeps the hottest plans. *)

val apply : t -> Record.kind -> unit

val cache_specs : t -> Service.Request.spec list
(** Modeled cache contents, most recently used first — the same order
    {!Service.Cache.keys} reports. *)

val cache_keys : t -> string list
(** [Service.Request.cache_key] of {!cache_specs}, in the same order. *)

val outstanding : t -> Service.Request.spec list
(** Accepted-but-unanswered request specs, admission order. *)

val equal : t -> t -> bool
(** Same cache keys in the same recency order, and the same outstanding
    coalesce keys and demands in the same admission order. *)

val pp : Format.formatter -> t -> unit
