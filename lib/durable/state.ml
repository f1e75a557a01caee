type t = {
  cache : Service.Request.spec Service.Cache.t;  (* keyed by cache_key *)
  mutable outstanding : Service.Request.spec list;  (* admission order *)
}

let create ~cache_capacity =
  if cache_capacity < 0 then invalid_arg "State.create: negative capacity";
  { cache = Service.Cache.create ~capacity:cache_capacity; outstanding = [] }

let touch t spec =
  Service.Cache.add t.cache (Service.Request.cache_key spec) spec

(* Inserting least recently used first rebuilds the recency chain; past
   the capacity the LRU end is evicted, exactly as it would be live. *)
let restore ~cache_capacity ~cache_mru ~outstanding =
  let t = create ~cache_capacity in
  List.iter (touch t) (List.rev cache_mru);
  t.outstanding <- outstanding;
  t

let cache_specs t = Service.Cache.values t.cache
let cache_keys t = Service.Cache.keys t.cache
let outstanding t = t.outstanding

let copy t =
  restore
    ~cache_capacity:(Service.Cache.stats t.cache).Service.Cache.capacity
    ~cache_mru:(cache_specs t) ~outstanding:t.outstanding

(* Discharge [requests] outstanding entries coalesced under [key],
   oldest first.  Entries that are not found are ignored — a journal
   whose accepted records were compacted away mid-batch never arises
   from the Manager, but replay stays total anyway. *)
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
  | Record.Accepted spec -> t.outstanding <- t.outstanding @ [ spec ]
  | Record.Completed { spec; requests; ok } ->
    discharge t (Service.Request.coalesce_key spec) requests;
    if ok then touch t spec

let equal a b =
  cache_keys a = cache_keys b
  && List.map
       (fun s -> (Service.Request.coalesce_key s, s.Service.Request.demand))
       a.outstanding
     = List.map
         (fun s -> (Service.Request.coalesce_key s, s.Service.Request.demand))
         b.outstanding

let pp ppf t =
  Format.fprintf ppf "@[<v>cache (MRU first):@,";
  List.iter (fun k -> Format.fprintf ppf "  %s@," k) (cache_keys t);
  Format.fprintf ppf "outstanding:@,";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %s D=%d@,"
        (Service.Request.coalesce_key s)
        s.Service.Request.demand)
    t.outstanding;
  Format.fprintf ppf "@]"
