(* A streaming follower: mirror a primary's journal, keep a warm plan
   cache that tracks the primary's, serve reads, and stand by to become
   the primary.

   The engine thread owns the feed connection and everything the
   stream mutates: the {!Sink} mirror and the apply cursor.  Serving
   threads only read (through the thread-safe {!Service.Cache} and
   counter snapshots under [t.m]), so the apply path takes the mutex
   for a handful of integer updates per record and nothing else.  No
   durable-state model is kept while following: the mirrored journal
   is that state, and promotion rebuilds it by ordinary recovery.

   Exactly-once apply holds by construction: every record line's CRC
   is re-verified on arrival ({!Durable.Record.decode}), sequence
   numbers are strictly monotonic, and the apply cursor skips numbers
   at or below what snapshot-plus-journal already covered — the same
   idempotent-replay filter {!Durable.Replay} uses, which is also what
   makes the resume overlap after a reconnect harmless.  A sequence
   that skips {e ahead} means the stream lost records; the engine
   drops the connection and resubscribes from scratch rather than
   apply around a hole.

   Promotion is deliberately boring: stop the engine, close the sink
   (releasing the directory lock), then run {!Durable.Manager.start}
   on the mirrored directory — ordinary crash recovery on a journal
   that happens to have been written over the network — and stand up a
   full {!Service.Server} on the result. *)

module Jsonl = Service.Jsonl
module Request = Service.Request
module Response = Service.Response
module Cache = Service.Cache
module Prep = Service.Prep
module Server = Service.Server
module Net = Service.Net
module Record = Durable.Record
module Replay = Durable.Replay
module Manager = Durable.Manager
module Snapshot = Durable.Snapshot
module Plan_store = Durable.Plan_store
module State = Durable.State

type config = {
  host : string;  (** The primary's replication feed endpoint. *)
  port : int;
  dir : string;  (** Local mirror directory (the follower's WAL). *)
  cache_capacity : int;
  queue_capacity : int;
  workers : int option;
  fsync : Durable.Wal.fsync_policy;  (** Policy after promotion. *)
  snapshot_every : int;  (** Ditto. *)
  store : Plan_store.t option;
  fetch_plans : bool;
      (** Ask the feed for plan payloads on cache-prime misses instead
          of re-planning locally. *)
  reconnect_ms : float;
}

type promoted = {
  manager : Manager.t;
  server : Server.t;
  recovery : Replay.stats;
  at_seq : int;
}

type t = {
  config : config;
  m : Mutex.t;
  promote_done : Condition.t;
  cache : Prep.prepared Cache.t;
  sink : Sink.t;
  started_at : float;
  (* Engine-private (single-threaded): *)
  mutable expected : int;
  mutable force_reset : bool;
  mutable plan_io : (Unix.file_descr * in_channel * out_channel) option;
  (* Shared, guarded by [m]: *)
  mutable stop : bool;
  mutable stop_engine : bool;
  mutable promoting : bool;
  mutable promoted : promoted option;
  mutable engine_starting : bool;
  mutable engine : Thread.t option;
  mutable feed_fds : Unix.file_descr list;
  mutable connected : bool;
  mutable connects : int;
  mutable last_applied : int;
  mutable primary_last_seq : int;
  mutable lag_ms : float;
  mutable served : int;
  mutable errors : int;
  mutable crc_failures : int;
  mutable resets : int;
  mutable primed_from_store : int;
  mutable primed_fetched : int;
  mutable primed_replanned : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f
[@@dmflint.allow
  "callback-under-lock: with-lock combinator; every closure passed in \
   is a handful of field reads or integer updates — promotion and \
   shutdown do their blocking work outside it"]

exception Stopped
exception Protocol of string

(* ------------------------------------------------------------------ *)
(* Plan priming                                                        *)

let close_plan_io t =
  match t.plan_io with
  | None -> ()
  | Some (fd, _ic, oc) ->
    (try flush oc with Sys_error _ -> ());
    locked t (fun () ->
        t.feed_fds <- List.filter (fun f -> f != fd) t.feed_fds);
    (try Unix.close fd with Unix.Unix_error _ -> ());
    t.plan_io <- None

let plan_io t =
  match t.plan_io with
  | Some io -> Some io
  | None -> (
    match Net.connect ~host:t.config.host ~port:t.config.port with
    | exception _ -> None
    | fd ->
      locked t (fun () -> t.feed_fds <- fd :: t.feed_fds);
      let io = (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd) in
      t.plan_io <- Some io;
      Some io)

(* One blocking request/response on the side connection; any failure
   downgrades to [None] (the caller re-plans) and drops the connection
   so the next miss retries cleanly. *)
let fetch_plan t spec =
  match plan_io t with
  | None -> None
  | Some (_fd, ic, oc) -> (
    let attempt () =
      output_string oc (Wire.to_line (Wire.Plan_get spec));
      output_char oc '\n';
      flush oc;
      match Jsonl.read_line ic with
      | Jsonl.Line line | Jsonl.Tail line -> (
        match Wire.of_line line with
        | Ok (Wire.Plan { data = Some payload; _ }) -> (
          match Plan_store.decode_prepared payload with
          | Ok prepared -> Some prepared
          | Error _ -> None)
        | Ok _ | Error _ -> None)
      | Jsonl.Eof | Jsonl.Oversized _ -> None
    in
    match attempt () with
    | Some prepared -> Some prepared
    | None ->
      close_plan_io t;
      None
    | exception (Sys_error _ | End_of_file | Unix.Unix_error _) ->
      close_plan_io t;
      None)

(* The plan tier under the serving cache: the local plan store, then
   the primary's plan-fetch session (written through to the local
   store); {!Service.Store.obtain} re-plans when both miss.  All three
   produce the same value (the codec and differential tests hold them
   to it), so the cache serves identical bytes whichever tier primed
   it. *)
let plan_tier t =
  let local = Option.map Plan_store.to_store t.config.store in
  let add spec prepared =
    Option.iter (fun s -> s.Service.Store.add spec prepared) local
  in
  let find spec =
    match Option.bind local (fun s -> s.Service.Store.find spec) with
    | Some prepared ->
      locked t (fun () -> t.primed_from_store <- t.primed_from_store + 1);
      Some prepared
    | None when t.config.fetch_plans ->
      Option.map
        (fun prepared ->
          add spec prepared;
          locked t (fun () -> t.primed_fetched <- t.primed_fetched + 1);
          prepared)
        (fetch_plan t spec)
    | None -> None
  in
  let stats () =
    match local with Some s -> s.Service.Store.stats () | None -> Jsonl.Null
  in
  { Service.Store.find; add; stats }

(* Keep the serving cache tracking the primary's: re-adding an
   already-cached value refreshes its recency exactly as the primary's
   own hit does, so the LRU eviction order stays aligned. *)
let ensure_cached t spec =
  let key = Request.cache_key spec in
  match Cache.peek t.cache key with
  | Some prepared -> Cache.add t.cache key prepared
  | None -> (
    match Service.Store.obtain (Some (plan_tier t)) spec with
    | Ok (prepared, tier) ->
      if tier = Service.Store.Planned then
        locked t (fun () -> t.primed_replanned <- t.primed_replanned + 1);
      Cache.add t.cache key prepared
    | Error _ -> ())

(* Least recently used first, reproducing the recency chain — the same
   order {!Service.Server.prime} consumes. *)
let prime_from_state t state =
  List.iter (ensure_cached t) (List.rev (State.cache_specs state))

(* ------------------------------------------------------------------ *)
(* The engine                                                          *)

let engine_stopped t = locked t (fun () -> t.stop_engine)

let now_ms () = Unix.gettimeofday () *. 1000.

let handle_frame t = function
  | Wire.Open_segment segment -> Sink.open_segment t.sink segment
  | Wire.Snapshot { seq; data } -> (
    Sink.put_snapshot t.sink ~seq ~data;
    let path = Filename.concat t.config.dir (Snapshot.name seq) in
    match Snapshot.load ~cache_capacity:t.config.cache_capacity path with
    | Error msg -> raise (Protocol ("bad snapshot from primary: " ^ msg))
    | Ok state ->
      t.expected <- seq + 1;
      locked t (fun () ->
          t.last_applied <- seq;
          if seq > t.primary_last_seq then t.primary_last_seq <- seq);
      prime_from_state t state)
  | Wire.At { last_seq; ms } ->
    locked t (fun () ->
        if last_seq > t.primary_last_seq then t.primary_last_seq <- last_seq;
        if ms > 0. then t.lag_ms <- Float.max 0. (now_ms () -. ms));
    (* The stream is at an idle point (or a batch boundary): make the
       mirrored records durable now instead of per record. *)
    Sink.flush t.sink
  | Wire.Hello _ | Wire.Subscribe _ | Wire.Plan _ | Wire.Plan_get _ -> ()

let handle_record t line =
  match Record.decode line with
  | Error msg ->
    locked t (fun () -> t.crc_failures <- t.crc_failures + 1);
    raise (Protocol ("record failed verification: " ^ msg))
  | Ok (seq, kind) ->
    if seq > t.expected then begin
      (* Records went missing between [expected] and [seq]; applying
         around the hole would rebuild a state that never existed.
         Resubscribe from scratch. *)
      t.force_reset <- true;
      raise
        (Protocol
           (Printf.sprintf "sequence gap: expected %d, got %d" t.expected seq))
    end;
    Sink.append_line t.sink line;
    if seq = t.expected then begin
      t.expected <- seq + 1;
      locked t (fun () ->
          t.last_applied <- seq;
          if seq > t.primary_last_seq then t.primary_last_seq <- seq);
      match kind with
      | Record.Completed { spec; ok = true; _ } -> ensure_cached t spec
      | Record.Completed _ | Record.Accepted _ -> ()
    end

let handle_stream_line t line =
  match Wire.classify line with
  | Error msg -> raise (Protocol ("unparseable feed line: " ^ msg))
  | Ok (`Frame frame) -> handle_frame t frame
  | Ok (`Record line) -> handle_record t line

let read_frame ic =
  match Jsonl.read_line ic with
  | Jsonl.Line line | Jsonl.Tail line -> (
    match Wire.of_line line with Ok f -> Some f | Error _ -> None)
  | Jsonl.Eof | Jsonl.Oversized _ -> None

(* One feed connection: subscribe from the sink's cursor, handle the
   hello (resetting the mirror when the primary could not resume us),
   then apply the stream until it ends. *)
let session t =
  let fd = Net.connect ~host:t.config.host ~port:t.config.port in
  let stopping =
    locked t (fun () ->
        if t.stop_engine then true
        else begin
          t.feed_fds <- fd :: t.feed_fds;
          t.connected <- true;
          t.connects <- t.connects + 1;
          false
        end)
  in
  if stopping then begin
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise Stopped
  end;
  Fun.protect
    ~finally:(fun () ->
      locked t (fun () ->
          t.connected <- false;
          t.feed_fds <- List.filter (fun f -> f != fd) t.feed_fds);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let cursor = if t.force_reset then Wire.start else Sink.cursor t.sink in
      output_string oc (Wire.to_line (Wire.Subscribe cursor));
      output_char oc '\n';
      flush oc;
      (match read_frame ic with
      | Some (Wire.Hello { resumed; last_seq }) ->
        locked t (fun () ->
            if last_seq > t.primary_last_seq then t.primary_last_seq <- last_seq);
        if not resumed then begin
          (* Full resync: drop the mirror and rebuild from the
             snapshot and segments about to arrive. *)
          Sink.reset t.sink;
          t.force_reset <- false;
          t.expected <- 1;
          Cache.clear t.cache;
          locked t (fun () ->
              t.last_applied <- 0;
              t.resets <- t.resets + 1)
        end
      | Some _ | None -> raise (Protocol "feed did not answer with hello"));
      let rec loop () =
        if engine_stopped t then raise Stopped;
        match Jsonl.read_line ic with
        | Jsonl.Eof -> ()
        | Jsonl.Tail _ ->
          (* The connection died mid-line; the partial line was never
             journaled by the primary's framing, drop it. *)
          ()
        | Jsonl.Oversized n ->
          raise (Protocol (Printf.sprintf "oversized feed line (%d bytes)" n))
        | Jsonl.Line line ->
          handle_stream_line t line;
          loop ()
      in
      loop ();
      Sink.flush t.sink)

let engine t =
  let rec loop () =
    if engine_stopped t then ()
    else begin
      (try session t with
      | Stopped -> ()
      | Protocol _ | End_of_file | Sys_error _ | Failure _
      | Unix.Unix_error _ ->
        ());
      close_plan_io t;
      if engine_stopped t then ()
      else begin
        Thread.delay (t.config.reconnect_ms /. 1000.);
        loop ()
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

let create config =
  let sink = Sink.create ~dir:config.dir in
  (* A restarted follower boots exactly like a crashed primary: replay
     the local mirror to find both the cache to warm and where the
     resume cursor stands. *)
  let state, recovery =
    Replay.recover ~dir:config.dir ~cache_capacity:config.cache_capacity
  in
  (* A follower that died mid-append cuts the torn segment back before
     resuming, or the resumed stream's bytes would merge with the torn
     partial line. *)
  Replay.repair recovery;
  let expected =
    if recovery.Replay.gap then begin
      (* A mirror with a hole cannot be extended; start over. *)
      Sink.reset sink;
      1
    end
    else recovery.Replay.next_seq
  in
  let t =
    {
      config;
      m = Mutex.create ();
      promote_done = Condition.create ();
      cache = Cache.create ~capacity:config.cache_capacity;
      sink;
      started_at = Unix.gettimeofday ();
      expected;
      force_reset = false;
      plan_io = None;
      stop = false;
      stop_engine = false;
      promoting = false;
      promoted = None;
      engine_starting = false;
      engine = None;
      feed_fds = [];
      connected = false;
      connects = 0;
      last_applied = expected - 1;
      primary_last_seq = expected - 1;
      lag_ms = 0.;
      served = 0;
      errors = 0;
      crc_failures = 0;
      resets = 0;
      primed_from_store = 0;
      primed_fetched = 0;
      primed_replanned = 0;
    }
  in
  if not recovery.Replay.gap then prime_from_state t state;
  t

(* Claim the engine slot under [m] but spawn outside it, so no code
   path that writes to a socket is even reachable while the lock is
   held.  Should [close] land between the claim and the handle store,
   the fresh engine thread sees [stop_engine] on its first loop check
   and exits on its own — the unjoined handle is harmless. *)
let start t =
  let claimed =
    locked t (fun () ->
        if t.engine = None && (not t.engine_starting) && not t.stop_engine
        then begin
          t.engine_starting <- true;
          true
        end
        else false)
  in
  if claimed then begin
    let th = Thread.create engine t in
    locked t (fun () ->
        t.engine_starting <- false;
        if not t.stop_engine then t.engine <- Some th)
  end

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let follower_repl_json t =
  locked t (fun () ->
      Jsonl.Obj
        [
          ("role", Jsonl.String "follower");
          ( "primary",
            Jsonl.String (Printf.sprintf "%s:%d" t.config.host t.config.port) );
          ("connected", Jsonl.Bool t.connected);
          ("connects", Jsonl.Int t.connects);
          ("last_applied_seq", Jsonl.Int t.last_applied);
          ("primary_last_seq", Jsonl.Int t.primary_last_seq);
          ("lag_records", Jsonl.Int (max 0 (t.primary_last_seq - t.last_applied)));
          ("lag_ms", Jsonl.Float t.lag_ms);
          ("mirrored_records", Jsonl.Int (Sink.appended t.sink));
          ("sink_fsyncs", Jsonl.Int (Sink.fsyncs t.sink));
          ("crc_failures", Jsonl.Int t.crc_failures);
          ("resets", Jsonl.Int t.resets);
          ("primed_from_store", Jsonl.Int t.primed_from_store);
          ("primed_fetched", Jsonl.Int t.primed_fetched);
          ("primed_replanned", Jsonl.Int t.primed_replanned);
        ])

let promoted_repl_json t p =
  locked t (fun () ->
      Jsonl.Obj
        [
          ("role", Jsonl.String "primary");
          ("promoted", Jsonl.Bool true);
          ("promoted_at_seq", Jsonl.Int p.at_seq);
          ( "promoted_from",
            Jsonl.String (Printf.sprintf "%s:%d" t.config.host t.config.port) );
          ("connects", Jsonl.Int t.connects);
          ("last_applied_seq", Jsonl.Int (Manager.last_seq p.manager));
          ("mirrored_records", Jsonl.Int (Sink.appended t.sink));
          ("crc_failures", Jsonl.Int t.crc_failures);
          ("resets", Jsonl.Int t.resets);
        ])

let repl_json t =
  match locked t (fun () -> t.promoted) with
  | Some p -> promoted_repl_json t p
  | None -> follower_repl_json t

let stats t : Response.stats =
  let served, errors, replanned =
    locked t (fun () -> (t.served, t.errors, t.primed_replanned))
  in
  {
    Response.queue_depth = 0;
    workers = 0;
    served;
    errors;
    coalesced = 0;
    jobs = 0;
    plans_built = replanned;
    cache = Cache.stats t.cache;
    avg_latency_ms = 0.;
    uptime_s = Unix.gettimeofday () -. t.started_at;
    wal =
      Some
        (Jsonl.Obj
           [
             ("dir", Jsonl.String t.config.dir);
             ("last_seq", Jsonl.Int (locked t (fun () -> t.last_applied)));
             ("appends", Jsonl.Int (Sink.appended t.sink));
             ("fsyncs", Jsonl.Int (Sink.fsyncs t.sink));
           ]);
    store = Option.map Plan_store.stats_json t.config.store;
    replication = Some (follower_repl_json t);
  }

let last_applied t = locked t (fun () -> t.last_applied)
let connected t = locked t (fun () -> t.connected)

(* ------------------------------------------------------------------ *)
(* Promotion                                                           *)

let do_promote t =
  Mutex.lock t.m;
  match t.promoted with
  | Some p ->
    Mutex.unlock t.m;
    p
  | None when t.promoting ->
    (* Someone else is mid-promotion (SIGUSR1 racing a promote
       request); wait for their result. *)
    while t.promoted = None do
      Condition.wait t.promote_done t.m
    done;
    let p = Option.get t.promoted in
    Mutex.unlock t.m;
    p
  | None ->
    t.promoting <- true;
    t.stop_engine <- true;
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      t.feed_fds;
    let eng = t.engine in
    t.engine <- None;
    Mutex.unlock t.m;
    (match eng with Some th -> Thread.join th | None -> ());
    Sink.close t.sink;
    (* From here this is a normal durable boot on the mirrored
       directory: recovery replays the journal the feed wrote, priming
       rebuilds the plans, and the node starts journaling its own
       appends where the primary left off. *)
    let manager, recovery =
      Manager.start ?store:t.config.store
        {
          Manager.dir = t.config.dir;
          fsync = t.config.fsync;
          snapshot_every = t.config.snapshot_every;
          cache_capacity = t.config.cache_capacity;
        }
    in
    let rec_promoted = ref None in
    let server =
      Server.create ?workers:t.config.workers
        ~queue_capacity:t.config.queue_capacity
        ~cache_capacity:t.config.cache_capacity
        ~on_accept:(Manager.on_accept manager)
        ~on_complete:(fun ~spec ~requests ~ok ->
          Manager.on_complete manager ~spec ~requests ~ok)
        ~wal_stats:(fun () -> Manager.stats_json manager)
        ~repl_stats:(fun () ->
          match !rec_promoted with
          | Some p -> promoted_repl_json t p
          | None -> follower_repl_json t)
        ?store:(Option.map Plan_store.to_store t.config.store)
        ()
    in
    ignore (Manager.prime manager server);
    let p =
      { manager; server; recovery; at_seq = Manager.last_seq manager }
    in
    rec_promoted := Some p;
    Mutex.lock t.m;
    t.promoted <- Some p;
    t.promoting <- false;
    Condition.broadcast t.promote_done;
    Mutex.unlock t.m;
    p

let promote t = ignore (do_promote t)

let role t =
  match locked t (fun () -> t.promoted) with
  | Some _ -> `Promoted
  | None -> `Following

let promoted_server t = locked t (fun () -> Option.map (fun p -> p.server) t.promoted)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

let write_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let write_json oc json = write_line oc (Jsonl.to_string json)

let count_response t resp =
  locked t (fun () ->
      t.served <- t.served + 1;
      if not (Response.ok resp) then t.errors <- t.errors + 1)

let respond t oc resp =
  count_response t resp;
  write_line oc (Response.to_line resp)

let with_id ~id fields =
  fields @ (match id with Some v -> [ ("id", v) ] | None -> [])

let error ~id msg = { Response.id; elapsed_ms = None; body = Response.Error msg }

(* One pre-promotion request line, read with the daemon's decoder.
   Returns [`Delegate server] when a promote request just turned this
   node into a primary: the rest of the connection's stream gets full
   service. *)
let handle_line t oc line =
  if String.trim line = "" then `Continue
  else
    match Request.decode line with
    | Error msg ->
      respond t oc (error ~id:None msg);
      `Continue
    | Ok decoded -> (
      let id = Request.decoded_id decoded in
      match Request.decoded_req decoded with
      | Some "promote" ->
        let p = do_promote t in
        locked t (fun () -> t.served <- t.served + 1);
        write_json oc
          (Jsonl.Obj
             (with_id ~id
                [
                  ("ok", Jsonl.Bool true);
                  ("req", Jsonl.String "promote");
                  ("replayed", Jsonl.Int p.recovery.Replay.replayed);
                  ("last_seq", Jsonl.Int p.at_seq);
                ]));
        `Delegate p.server
      | Some "route" ->
        (match Request.decoded_spec decoded with
        | Ok (spec, key) ->
          let cache_key = Request.cache_key_of ~coalesce:key spec.Request.demand in
          locked t (fun () -> t.served <- t.served + 1);
          write_json oc
            (Jsonl.Obj
               (with_id ~id
                  [
                    ("ok", Jsonl.Bool true);
                    ("req", Jsonl.String "route");
                    ("key", Jsonl.String key);
                    ("cache_key", Jsonl.String cache_key);
                    ("cached", Jsonl.Bool (Cache.peek t.cache cache_key <> None));
                    ("role", Jsonl.String "follower");
                  ]))
        | Error msg -> respond t oc (error ~id msg));
        `Continue
      | _ ->
        (match Request.of_decoded decoded with
        | Error msg -> respond t oc (error ~id msg)
        | Ok { Request.id; kind = Request.Ping } ->
          respond t oc { Response.id; elapsed_ms = None; body = Response.Pong }
        | Ok { Request.id; kind = Request.Stats } ->
          respond t oc
            { Response.id; elapsed_ms = None; body = Response.Stats (stats t) }
        | Ok { Request.id; kind = Request.Prepare { spec; key } } -> (
          let t0 = Unix.gettimeofday () in
          match
            Cache.find t.cache
              (Request.cache_key_of ~coalesce:key spec.Request.demand)
          with
          | Some prepared ->
            respond t oc
              {
                Response.id;
                elapsed_ms = Some ((Unix.gettimeofday () -. t0) *. 1000.);
                body =
                  Response.Schedule
                    {
                      answer = prepared.Prep.answer;
                      demand = spec.Request.demand;
                      batch_demand = spec.Request.demand;
                      coalesced = 1;
                      cache_hit = true;
                    };
              }
          | None ->
            respond t oc
              (error ~id
                 "read-only follower: plan not cached (send writes to the \
                  primary, or promote this node)")));
        `Continue)

let serve_channels t ic oc =
  let rec loop () =
    match promoted_server t with
    | Some server -> Server.serve_channels server ic oc
    | None -> (
      match Jsonl.read_line ic with
      | Jsonl.Eof -> ()
      | Jsonl.Oversized n ->
        respond t oc
          {
            Response.id = None;
            elapsed_ms = None;
            body =
              Response.Error
                (Printf.sprintf
                   "request line of %d bytes exceeds the %d byte limit" n
                   Jsonl.max_line_bytes);
          };
        loop ()
      | Jsonl.Line line | Jsonl.Tail line -> (
        match handle_line t oc line with
        | `Delegate server -> Server.serve_channels server ic oc
        | `Continue -> loop ()))
  in
  loop ()

let serve_tcp ?on_listen t ~host ~port =
  Net.serve ?on_listen
    ~stop:(fun () -> locked t (fun () -> t.stop))
    ~host ~port (serve_channels t)

let close t =
  let eng, promoted =
    locked t (fun () ->
        t.stop <- true;
        t.stop_engine <- true;
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          t.feed_fds;
        let eng = t.engine in
        t.engine <- None;
        (eng, t.promoted))
  in
  (match eng with Some th -> Thread.join th | None -> ());
  match promoted with
  | Some p ->
    Server.stop p.server;
    Manager.close p.manager
  | None -> Sink.close t.sink
