(* The reference model of Durable.State: a most-recently-used-first
   list LRU and an admission-ordered outstanding list, written as
   plainly as possible.  It shares no code with Service.Cache, which
   Durable.State evicts through, so the durable tests check the real
   state against an independent implementation of the same eviction
   policy instead of against itself. *)

type t = {
  cache_capacity : int;
  mutable cache : Service.Request.spec list;  (* most recently used first *)
  mutable outstanding : Service.Request.spec list;  (* admission order *)
}

let create ~cache_capacity = { cache_capacity; cache = []; outstanding = [] }

let take n l = List.filteri (fun i _ -> i < n) l

let restore ~cache_capacity ~cache_mru ~outstanding =
  { cache_capacity; cache = take cache_capacity cache_mru; outstanding }

let touch t spec =
  if t.cache_capacity > 0 then begin
    let key = Service.Request.cache_key spec in
    let rest =
      List.filter (fun s -> Service.Request.cache_key s <> key) t.cache
    in
    t.cache <- take t.cache_capacity (spec :: rest)
  end

let discharge t key requests =
  let remaining = ref requests in
  t.outstanding <-
    List.filter
      (fun spec ->
        if !remaining > 0 && Service.Request.coalesce_key spec = key then begin
          decr remaining;
          false
        end
        else true)
      t.outstanding

let apply t = function
  | Durable.Record.Accepted spec -> t.outstanding <- t.outstanding @ [ spec ]
  | Durable.Record.Completed { spec; requests; ok } ->
    discharge t (Service.Request.coalesce_key spec) requests;
    if ok then touch t spec

let cache_keys t = List.map Service.Request.cache_key t.cache

let outstanding_keys specs =
  List.map
    (fun s -> (Service.Request.coalesce_key s, s.Service.Request.demand))
    specs

(* The durable state holds exactly what the model holds: the same cache
   keys in the same recency order, the same outstanding requests in the
   same admission order. *)
let agrees t state =
  Durable.State.cache_keys state = cache_keys t
  && outstanding_keys (Durable.State.outstanding state)
     = outstanding_keys t.outstanding
