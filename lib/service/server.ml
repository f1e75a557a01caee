type counters = {
  lock : Mutex.t;
  mutable served : int;
  mutable errors : int;
  mutable jobs : int;
  mutable plans_built : int;
  mutable store_hits : int;
  mutable latency_ms_sum : float;
  mutable latency_samples : int;
}

type t = {
  queue : Queue.t;
  cache : Prep.prepared Cache.t;
  counters : counters;
  pool : Pool.t;
  started_at : float;
  wal_stats : (unit -> Jsonl.t) option;
  repl_stats : (unit -> Jsonl.t) option;
  store : Store.t option;
}

let with_counters c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) (fun () -> f c)
[@@dmflint.allow
  "callback-under-lock: with-lock combinator over the counters record; \
   every closure passed in is a handful of integer field updates"]

(* The planning handler every pool worker runs: plan cache first, then
   {!Store.obtain} (the on-disk plan store, the engine when that
   misses).  The spec demand is already the coalesced sum.  A store hit
   enters the LRU like a fresh plan but reports [cache_hit = false] —
   the response surface is unchanged by the store, only the stats
   object knows.  [on_complete] (the WAL's completion hook) fires for
   every job — hits refresh LRU recency, which recovery must replay —
   and strictly before [Queue.fulfil] releases the waiters, so with a
   strict fsync policy no client ever observes a response that is not
   yet durable. *)
let run_job cache counters on_complete store job =
  let spec = Queue.job_spec job in
  let coalesced = Queue.job_requests job in
  let batch_demand = spec.Request.demand in
  let key = Request.cache_key spec in
  let result =
    match Cache.find cache key with
    | Some prepared ->
      Ok { Queue.prepared; batch_demand; coalesced; cache_hit = true }
    | None ->
      Store.obtain store spec
      |> Result.map (fun (prepared, tier) ->
             Cache.add cache key prepared;
             with_counters counters (fun c ->
                 match tier with
                 | Store.Stored -> c.store_hits <- c.store_hits + 1
                 | Store.Planned -> c.plans_built <- c.plans_built + 1);
             { Queue.prepared; batch_demand; coalesced; cache_hit = false })
  in
  with_counters counters (fun c -> c.jobs <- c.jobs + 1);
  (match on_complete with
  | Some hook -> hook ~spec ~requests:coalesced ~ok:(Result.is_ok result)
  | None -> ());
  Queue.fulfil job result

let create ?workers ?(queue_capacity = 256) ?(cache_capacity = 1024) ?on_accept
    ?on_complete ?wal_stats ?repl_stats ?store () =
  let workers =
    match workers with Some w -> w | None -> Mdst.Par.default_domains ()
  in
  let queue = Queue.create ?on_admit:on_accept ~capacity:queue_capacity () in
  let cache = Cache.create ~capacity:cache_capacity in
  let counters =
    {
      lock = Mutex.create ();
      served = 0;
      errors = 0;
      jobs = 0;
      plans_built = 0;
      store_hits = 0;
      latency_ms_sum = 0.;
      latency_samples = 0;
    }
  in
  let pool =
    Pool.start ~workers ~handler:(run_job cache counters on_complete store) queue
  in
  {
    queue;
    cache;
    counters;
    pool;
    started_at = Unix.gettimeofday ();
    wal_stats;
    repl_stats;
    store;
  }

let workers t = Pool.workers t.pool
let cache_keys t = Cache.keys t.cache

type primed = { replanned : int; from_store : int }

(* Recovery priming: rebuild the plans the crashed process had through
   the workers' own {!Store.obtain}.  A plan decoded from the store is
   bit-identical to a re-plan (the differential tests in
   [test_plan_store] hold the codec to that), and re-planning is
   deterministic (every spec dispatches through the Mdst.Scheduler
   registry), so inserting in least-recently-used-first order
   reproduces both the cache contents and the recency chain either
   way.  Recovered pending requests are resubmitted quietly — their
   accepted records are already journaled — with no waiter: the pool
   plans them and the completion hook discharges them, re-warming the
   cache. *)
let prime t ~cache ~pending =
  let primed =
    List.fold_left
      (fun acc spec ->
        match Store.obtain t.store spec with
        | Ok (prepared, tier) -> (
          Cache.add t.cache (Request.cache_key spec) prepared;
          match tier with
          | Store.Stored -> { acc with from_store = acc.from_store + 1 }
          | Store.Planned -> { acc with replanned = acc.replanned + 1 })
        | Error _ -> acc)
      { replanned = 0; from_store = 0 }
      cache
  in
  List.iter (fun spec -> ignore (Queue.submit ~quiet:true t.queue spec)) pending;
  primed

let stats t =
  let c = t.counters in
  Mutex.lock c.lock;
  let served = c.served
  and errors = c.errors
  and jobs = c.jobs
  and plans_built = c.plans_built
  and store_hits = c.store_hits
  and latency_ms_sum = c.latency_ms_sum
  and latency_samples = c.latency_samples in
  Mutex.unlock c.lock;
  {
    Response.queue_depth = Queue.depth t.queue;
    workers = workers t;
    served;
    errors;
    coalesced = Queue.coalesced_total t.queue;
    jobs;
    plans_built;
    cache = Cache.stats t.cache;
    avg_latency_ms =
      (if latency_samples = 0 then 0.
       else latency_ms_sum /. float_of_int latency_samples);
    uptime_s = Unix.gettimeofday () -. t.started_at;
    wal = Option.map (fun f -> f ()) t.wal_stats;
    replication = Option.map (fun f -> f ()) t.repl_stats;
    store =
      (* The store's own counters (shared-directory totals) plus this
         server's [served_from_store] — the requests the store saved
         from re-planning here. *)
      Option.map
        (fun s ->
          match s.Store.stats () with
          | Jsonl.Obj fields ->
            Jsonl.Obj
              (fields @ [ ("served_from_store", Jsonl.Int store_hits) ])
          | other -> other)
        t.store;
  }

(* ------------------------------------------------------------------ *)
(* NDJSON transport                                                    *)

(* The reader admits requests the moment their line arrives — that is
   what lets a burst of identical requests coalesce — and hands the
   response obligations, in request order, to a writer thread.  [stats]
   is deferred as a thunk so it observes the counters at its own
   position in the response order, not at read time. *)
type item =
  | Ready of Response.t
  | Pending of { ticket : Queue.ticket; id : Jsonl.t option; t0 : float }
  | Thunk of (unit -> Response.t)

let response_of_ticket t ~id ~t0 ticket =
  match Queue.wait ticket with
  | Ok outcome ->
    let elapsed = (Unix.gettimeofday () -. t0) *. 1000. in
    with_counters t.counters (fun c ->
        c.latency_ms_sum <- c.latency_ms_sum +. elapsed;
        c.latency_samples <- c.latency_samples + 1);
    {
      Response.id;
      elapsed_ms = Some elapsed;
      body =
        Response.Schedule
          {
            summary = outcome.Queue.prepared.Prep.summary;
            demand = Queue.ticket_demand ticket;
            batch_demand = outcome.Queue.batch_demand;
            coalesced = outcome.Queue.coalesced;
            cache_hit = outcome.Queue.cache_hit;
            instr = Some outcome.Queue.prepared.Prep.instr;
          };
    }
  | Error msg -> { Response.id; elapsed_ms = None; body = Response.Error msg }

let serve_channels t ic oc =
  let fifo = Stdlib.Queue.create () in
  let lock = Mutex.create () in
  let nonempty = Condition.create () in
  let eof = ref false in
  let push item =
    Mutex.lock lock;
    Stdlib.Queue.push item fifo;
    Condition.signal nonempty;
    Mutex.unlock lock
  in
  let next () =
    Mutex.lock lock;
    let rec wait () =
      match Stdlib.Queue.take_opt fifo with
      | Some item ->
        Mutex.unlock lock;
        Some item
      | None ->
        if !eof then begin
          Mutex.unlock lock;
          None
        end
        else begin
          Condition.wait nonempty lock;
          wait ()
        end
    in
    wait ()
  in
  let writer () =
    let rec loop () =
      match next () with
      | None -> ()
      | Some item ->
        let response =
          match item with
          | Ready r -> r
          | Thunk f -> f ()
          | Pending { ticket; id; t0 } -> response_of_ticket t ~id ~t0 ticket
        in
        with_counters t.counters (fun c ->
            c.served <- c.served + 1;
            if not (Response.ok response) then c.errors <- c.errors + 1);
        output_string oc (Response.to_line response);
        output_char oc '\n';
        flush oc;
        loop ()
    in
    loop ()
  in
  let writer_thread = Thread.create writer () in
  let rec read_loop () =
    match Jsonl.read_line ic with
    | Jsonl.Eof -> ()
    | Jsonl.Oversized n ->
      (* The line was discarded unread, so there is no id to echo. *)
      push
        (Ready
           {
             Response.id = None;
             elapsed_ms = None;
             body =
               Response.Error
                 (Printf.sprintf "request line of %d bytes exceeds the %d byte limit"
                    n Jsonl.max_line_bytes);
           });
      read_loop ()
    | Jsonl.Line line | Jsonl.Tail line ->
      begin
        if String.trim line <> "" then
          match Request.of_line line with
          | Error msg ->
            (* Echo the id even for a rejected request, so a pipelining
               client can still match the error to its question. *)
            let id =
              match Jsonl.of_string line with
              | Ok json -> Jsonl.member "id" json
              | Error _ -> None
            in
            push (Ready { Response.id; elapsed_ms = None; body = Response.Error msg })
          | Ok { Request.id; kind = Request.Ping } ->
            push (Ready { Response.id; elapsed_ms = None; body = Response.Pong })
          | Ok { Request.id; kind = Request.Stats } ->
            push
              (Thunk
                 (fun () ->
                   { Response.id; elapsed_ms = None; body = Response.Stats (stats t) }))
          | Ok { Request.id; kind = Request.Prepare spec } -> (
            let t0 = Unix.gettimeofday () in
            match Queue.submit t.queue spec with
            | Ok ticket -> push (Pending { ticket; id; t0 })
            | Error msg ->
              push
                (Ready { Response.id; elapsed_ms = None; body = Response.Error msg }))
      end;
      read_loop ()
  in
  read_loop ();
  Mutex.lock lock;
  eof := true;
  Condition.signal nonempty;
  Mutex.unlock lock;
  Thread.join writer_thread

let serve_tcp ?on_listen t ~host ~port =
  Net.serve ?on_listen ~host ~port (serve_channels t)

let stop t =
  Queue.close t.queue;
  Pool.join t.pool
