(** Bounded LRU plan cache.

    The memo tables inside {!Mdst.Forest} and {!Mdst.Engine} are
    unbounded reset-on-overflow tables keyed by ratio; a long-running
    server needs real eviction and observable counters instead.  Keys
    are the canonical request strings of {!Request.cache_key}; values
    are whatever the owner reuses (prepared plans in the server — each
    with its answer bytes already encoded, see {!Prep.prepared} — and
    specs in the durable recency model, which evicts through this same
    code).  All operations are mutex-guarded and safe across
    domains. *)

type 'v t

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

val create : capacity:int -> 'v t
(** [capacity] is the maximum number of live entries; [0] disables
    caching entirely (every {!find} is a miss, {!add} is a no-op).
    @raise Invalid_argument if negative. *)

val find : 'v t -> string -> 'v option
(** Lookup; counts a hit or a miss and, on a hit, marks the entry most
    recently used.  A hit allocates nothing: the [Some] it returns is
    made once, when the value is added. *)

val add : 'v t -> string -> 'v -> unit
(** Insert (or overwrite) as most recently used, evicting the least
    recently used entry if the cache is over capacity. *)

val peek : 'v t -> string -> 'v option
(** Lookup with no effect on counters or recency (for tests). *)

val keys : 'v t -> string list
(** Live keys, most recently used first. *)

val values : 'v t -> 'v list
(** Live values, most recently used first (the order of {!keys}). *)

val stats : 'v t -> stats

val clear : 'v t -> unit
(** Drop every entry; counters keep accumulating. *)
