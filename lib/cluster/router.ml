(* The consistent-hash routing front-end.

   One router process owns a ring over N dmfd shards and speaks the
   same NDJSON protocol as a single daemon, so dmfstream (or any
   client) points at it unchanged.  Per client connection the router
   mirrors the daemon's transport discipline: a reader thread admits
   lines the moment they arrive and appends one response slot per line
   to a FIFO; forwarded responses fill their slot whenever the shard
   answers; a writer thread emits slots strictly in request order.
   Requests to different shards therefore proceed concurrently while
   each client still sees responses in the order it asked.

   Prepare requests are forwarded as raw bytes — the router parses just
   enough of the line to compute the coalesce key and never re-encodes,
   so the shard sees exactly what the client wrote (ids included).
   Ping and the [route] placement diagnostic are answered locally;
   stats fans out to every shard (and every follower) and merges
   deterministically (Cluster.Stats).  A dead shard turns into error
   responses within the shard client's bounded retry budget — never a
   hang — and shows up with [healthy:false] in the merged stats.

   A shard may register a hot standby (a dmfd --follow node).  The ring
   still hashes to the primary's label, but each forwarded request goes
   through the group: lead with the healthy primary, and when its
   transport is down and the follower's is not, lead with the follower
   instead — which serves cached reads while following and everything
   once promoted.  Whichever node leads, a [None] falls through to the
   other exactly once before the client sees an error. *)

module Jsonl = Service.Jsonl
module Request = Service.Request
module Response = Service.Response

type group = {
  primary : Shard_client.t;
  follower : Shard_client.t option;
}

type t = {
  ring : Ring.t;
  groups : group array;
}

let create ?vnodes ?(retries = 3) ?(backoff_ms = 50.) ?(cooldown_ms = 1000.)
    endpoints =
  if endpoints = [] then invalid_arg "Router.create: at least one shard";
  let client (host, port) =
    Shard_client.create
      { Shard_client.host; port; retries; backoff_ms; cooldown_ms }
  in
  let labels =
    List.map
      (fun ((host, port), _) -> Printf.sprintf "%s:%d" host port)
      endpoints
  in
  let ring = Ring.create ?vnodes labels in
  let groups =
    Array.of_list
      (List.map
         (fun (primary, follower) ->
           { primary = client primary; follower = Option.map client follower })
         endpoints)
  in
  { ring; groups }

let shards t = Array.length t.groups

let followers t =
  Array.fold_left
    (fun acc g -> if g.follower = None then acc else acc + 1)
    0 t.groups

let route t spec =
  let idx = Ring.lookup t.ring (Request.coalesce_key spec) in
  (idx, Ring.label t.ring idx)

let close t =
  Array.iter
    (fun g ->
      Shard_client.close g.primary;
      Option.iter Shard_client.close g.follower)
    t.groups

(* Failover ordering for one forwarded line.  Prefer the primary while
   its transport looks healthy; when it is down and the follower is
   not, lead with the follower.  Chaining [Shard_client.send] on the
   second client from inside the first's continuation is allowed — the
   no-reentrancy rule in [Shard_client.send] is per client handle. *)
let group_send g line k =
  match g.follower with
  | None -> Shard_client.send g.primary line k
  | Some f ->
    let first, second =
      if Shard_client.healthy g.primary || not (Shard_client.healthy f) then
        (g.primary, f)
      else (f, g.primary)
    in
    Shard_client.send first line (function
      | Some _ as resp -> k resp
      | None -> Shard_client.send second line k)

(* ------------------------------------------------------------------ *)
(* Response slots: filled out of order, drained in order.              *)

type slot = {
  m : Mutex.t;
  cv : Condition.t;
  mutable line : string;
  mutable filled : bool;
}

let slot_make () =
  { m = Mutex.create (); cv = Condition.create (); line = ""; filled = false }

let slot_fill slot line =
  Mutex.lock slot.m;
  if not slot.filled then begin
    slot.line <- line;
    slot.filled <- true;
    Condition.signal slot.cv
  end;
  Mutex.unlock slot.m

let slot_await slot =
  Mutex.lock slot.m;
  while not slot.filled do
    Condition.wait slot.cv slot.m
  done;
  let line = slot.line in
  Mutex.unlock slot.m;
  line

let error_line ~id msg =
  Response.to_line { Response.id; elapsed_ms = None; body = Response.Error msg }

(* ------------------------------------------------------------------ *)
(* Stats fan-out                                                       *)

let stats_line = "{\"req\":\"stats\"}"

(* Ask every node — primaries and followers alike — for its stats;
   when the last answer (or failure) lands, merge and hand the body to
   [k].  A node is reported healthy iff it answered {e this} probe with
   [ok:true] — live truth at probe time, not the transport's optimism —
   which is what the kill-9 smoke asserts on. *)
let stats_fanout t k =
  let n = Array.length t.groups in
  let prim = Array.make n None in
  let fol = Array.make n None in
  let m = Mutex.create () in
  let remaining =
    ref
      (Array.fold_left
         (fun acc g -> acc + if g.follower = None then 1 else 2)
         0 t.groups)
  in
  let finish () =
    let probe client body =
      let c = Shard_client.stats client in
      ({ c with Shard_client.healthy = c.healthy && body <> None }, body)
    in
    let entries =
      List.map
        (fun i ->
          let g = t.groups.(i) in
          ( probe g.primary prim.(i),
            Option.map (fun f -> probe f fol.(i)) g.follower ))
        (List.init n Fun.id)
    in
    k (Stats.merge entries)
  in
  let parse resp =
    Option.bind resp (fun line ->
        match Jsonl.of_string line with
        | Ok json
          when Option.bind (Jsonl.member "ok" json) Jsonl.to_bool = Some true
          ->
          Some json
        | Ok _ | Error _ -> None)
  in
  let probe client arr i =
    Shard_client.send client stats_line (fun resp ->
        let parsed = parse resp in
        Mutex.lock m;
        arr.(i) <- parsed;
        decr remaining;
        let last = !remaining = 0 in
        Mutex.unlock m;
        if last then finish ())
  in
  Array.iteri
    (fun i g ->
      probe g.primary prim i;
      Option.iter (fun f -> probe f fol i) g.follower)
    t.groups

let stats_response_line ~id body =
  let fields = match body with Jsonl.Obj fields -> fields | other -> [ ("stats", other) ] in
  let envelope =
    [ ("ok", Jsonl.Bool true); ("req", Jsonl.String "stats") ]
    @ (match id with Some v -> [ ("id", v) ] | None -> [])
  in
  Jsonl.to_string (Jsonl.Obj (envelope @ fields))

(* Blocking variant for embedders (tests, a future admin endpoint). *)
let stats_json t =
  let slot = slot_make () in
  stats_fanout t (fun body -> slot_fill slot (Jsonl.to_string body));
  match Jsonl.of_string (slot_await slot) with
  | Ok json -> json
  | Error _ -> Jsonl.Null

(* ------------------------------------------------------------------ *)
(* Per-connection proxy loop                                           *)

let route_response_line ~id spec (idx, addr) =
  Jsonl.to_string
    (Jsonl.Obj
       ([ ("ok", Jsonl.Bool true); ("req", Jsonl.String "route") ]
       @ (match id with Some v -> [ ("id", v) ] | None -> [])
       @ [
           ("key", Jsonl.String (Request.coalesce_key spec));
           ("shard", Jsonl.Int idx);
           ("addr", Jsonl.String addr);
         ]))

let handle_line t push line =
  match Jsonl.of_string line with
  | Error msg -> push (`Ready (error_line ~id:None msg))
  | Ok json -> (
    let id = Jsonl.member "id" json in
    match Option.bind (Jsonl.member "req" json) Jsonl.to_str with
    | Some "ping" ->
      push
        (`Ready
          (Response.to_line
             { Response.id; elapsed_ms = None; body = Response.Pong }))
    | Some "stats" ->
      let slot = slot_make () in
      push (`Slot slot);
      stats_fanout t (fun body ->
          slot_fill slot (stats_response_line ~id body))
    | Some "route" -> (
      match Request.spec_of_json json with
      | Ok spec -> push (`Ready (route_response_line ~id spec (route t spec)))
      | Error msg -> push (`Ready (error_line ~id msg)))
    | Some "prepare" -> (
      match Request.spec_of_json json with
      | Error msg -> push (`Ready (error_line ~id msg))
      | Ok spec ->
        let idx, addr = route t spec in
        let slot = slot_make () in
        push (`Slot slot);
        group_send t.groups.(idx) line (function
          | Some response -> slot_fill slot response
          | None ->
            slot_fill slot
              (error_line ~id
                 (Printf.sprintf "shard %s unavailable" addr))))
    | Some other -> push (`Ready (error_line ~id ("unknown request kind " ^ other)))
    | None ->
      push
        (`Ready
          (error_line ~id "request needs a \"req\" field (prepare, stats, ping)")))

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
        let line =
          match item with `Ready line -> line | `Slot slot -> slot_await slot
        in
        output_string oc line;
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
      push
        (`Ready
          (error_line ~id:None
             (Printf.sprintf "request line of %d bytes exceeds the %d byte limit"
                n Jsonl.max_line_bytes)));
      read_loop ()
    | Jsonl.Line line | Jsonl.Tail line ->
      if String.trim line <> "" then handle_line t push line;
      read_loop ()
  in
  read_loop ();
  Mutex.lock lock;
  eof := true;
  Condition.signal nonempty;
  Mutex.unlock lock;
  Thread.join writer_thread

let serve_tcp ?on_listen t ~host ~port =
  Service.Net.serve ?on_listen ~host ~port (serve_channels t)
