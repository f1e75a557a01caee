(* One pipelined TCP connection to one dmfd shard.

   The daemon's serve_channels answers every connection strictly in
   request order, so the client needs no id matching: it keeps a FIFO of
   response continuations per connection, writes request lines under the
   lock (send order = FIFO order), and a dedicated reader thread pops
   one continuation per response line.

   Failure never hangs a caller.  A broken connection (connect refused,
   write error, EOF from a killed shard) fails every outstanding
   continuation with [None]; the next send retries the connect up to
   [retries] times with [backoff_ms] between attempts, and once the
   budget is spent the shard enters a [cooldown_ms] window in which
   sends fail fast — so a dead shard costs each affected request at most
   the bounded retry budget, and unaffected shards never notice.

   Teardown order: whoever kills a connection (a failed write, [close],
   or the reader at EOF) marks it dead under the lock and shuts the
   socket down for both directions.  That wakes the reader's blocked
   read with EOF (a plain close would not: on Linux the read keeps the
   socket open, so the shard never sees the close), and the reader,
   once it has stopped reading, is the one thread that closes the
   descriptor.  The number can thus never be reused by another
   connection while this one's reader may still read from it. *)

type config = {
  host : string;
  port : int;
  retries : int;
  backoff_ms : float;
  cooldown_ms : float;
}

let default_config ~host ~port =
  { host; port; retries = 3; backoff_ms = 50.; cooldown_ms = 1000. }

(* The pending FIFO belongs to the connection, not the client: a reader
   of a dead connection can then never steal the continuations queued on
   its replacement. *)
type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  pending : (string option -> unit) Stdlib.Queue.t;
  mutable alive : bool;
}

type counters = {
  mutable sent : int;
  mutable answered : int;
  mutable failed : int;
  mutable connects : int;
}

type t = {
  config : config;
  lock : Mutex.t;
  mutable conn : conn option;
  mutable down_until : float;
  mutable closed : bool;
  c : counters;
}

type stats = {
  addr : string;
  healthy : bool;
  sent : int;
  answered : int;
  failed : int;
  connects : int;
}

let create config =
  {
    config;
    lock = Mutex.create ();
    conn = None;
    down_until = 0.;
    closed = false;
    c = { sent = 0; answered = 0; failed = 0; connects = 0 };
  }

let addr t = Printf.sprintf "%s:%d" t.config.host t.config.port

(* Tear one connection down and collect its unanswered continuations.
   Runs under the lock; the continuations are invoked by the caller
   after release (they take the response-slot locks of client
   transports, which must never nest inside ours).  The socket is shut
   down, not closed (see the module comment). *)
let fail_conn_locked t conn =
  if conn.alive then begin
    conn.alive <- false;
    (match t.conn with Some c when c == conn -> t.conn <- None | _ -> ());
    (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    let orphans = List.of_seq (Stdlib.Queue.to_seq conn.pending) in
    Stdlib.Queue.clear conn.pending;
    t.c.failed <- t.c.failed + List.length orphans;
    orphans
  end
  else []

(* Per-connection reader: one response line resolves one continuation,
   in FIFO order.  EOF or any read error kills the connection; then the
   reader closes the descriptor, the only close it gets. *)
let reader t conn () =
  let rec loop () =
    match input_line conn.ic with
    | line ->
      let k =
        Mutex.lock t.lock;
        let k = Stdlib.Queue.take_opt conn.pending in
        (match k with Some _ -> t.c.answered <- t.c.answered + 1 | None -> ());
        Mutex.unlock t.lock;
        k
      in
      (match k with
      | Some k -> k (Some line)
      | None -> (* unsolicited line after a teardown race: drop *) ());
      loop ()
    | exception (End_of_file | Sys_error _) -> ()
  in
  loop ();
  Mutex.lock t.lock;
  let orphans = fail_conn_locked t conn in
  Mutex.unlock t.lock;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  List.iter (fun k -> k None) orphans

let connect_once t =
  let fd = Service.Net.connect ~host:t.config.host ~port:t.config.port in
  let conn =
    {
      fd;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      pending = Stdlib.Queue.create ();
      alive = true;
    }
  in
  t.c.connects <- t.c.connects + 1;
  ignore (Thread.create (reader t conn) ());
  conn

(* Called with the lock held.  Bounded: at most [retries + 1] connect
   attempts with [backoff_ms] pauses, then a cooldown window in which
   the shard fails fast — a dead shard delays each request by at most
   the retry budget and is free after that. *)
let ensure_conn_locked t =
  match t.conn with
  | Some conn when conn.alive -> Some conn
  | _ ->
    if t.closed || Unix.gettimeofday () < t.down_until then None
    else begin
      let attempts = max 1 (t.config.retries + 1) in
      let rec go n =
        match connect_once t with
        | conn ->
          t.conn <- Some conn;
          t.down_until <- 0.;
          Some conn
        | exception (Unix.Unix_error _ | Failure _) ->
          if n + 1 >= attempts then begin
            t.down_until <-
              Unix.gettimeofday () +. (t.config.cooldown_ms /. 1000.);
            None
          end
          else begin
            Thread.delay (t.config.backoff_ms /. 1000.);
            go (n + 1)
          end
      in
      go 0
    end

let send t line k =
  Mutex.lock t.lock;
  match ensure_conn_locked t with
  | None ->
    t.c.failed <- t.c.failed + 1;
    Mutex.unlock t.lock;
    k None
  | Some conn -> (
    Stdlib.Queue.push k conn.pending;
    match
      output_string conn.oc line;
      output_char conn.oc '\n';
      flush conn.oc
    with
    | () ->
      t.c.sent <- t.c.sent + 1;
      Mutex.unlock t.lock
    | exception Sys_error _ ->
      (* The write failed, so [k] is still in this conn's FIFO and the
         teardown below resolves it (with every earlier continuation,
         in order). *)
      let orphans = fail_conn_locked t conn in
      Mutex.unlock t.lock;
      List.iter (fun k -> k None) orphans)
[@@dmflint.allow
  "blocking-under-lock: t.lock must cover push-to-pending and the \
   socket write together — that pairing is what keeps the pipelined \
   FIFO aligned with the shard's response order (see the module \
   comment); reconnect backoff under the same lock bounds the stall \
   at the retry budget and only delays requests for the shard that \
   is already down"]

let healthy t =
  Mutex.lock t.lock;
  let up =
    match t.conn with
    | Some conn -> conn.alive
    | None -> (not t.closed) && Unix.gettimeofday () >= t.down_until
  in
  Mutex.unlock t.lock;
  up

let stats t =
  Mutex.lock t.lock;
  let connected = match t.conn with Some c -> c.alive | None -> false in
  let s =
    {
      addr = addr t;
      healthy =
        connected
        || ((not t.closed) && Unix.gettimeofday () >= t.down_until);
      sent = t.c.sent;
      answered = t.c.answered;
      failed = t.c.failed;
      connects = t.c.connects;
    }
  in
  Mutex.unlock t.lock;
  s

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  let orphans = match t.conn with Some c -> fail_conn_locked t c | None -> [] in
  Mutex.unlock t.lock;
  List.iter (fun k -> k None) orphans
