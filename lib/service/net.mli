(** Shared TCP plumbing: name resolution, the accept loop and the
    options of every connection's socket.

    The dmfstream client, the dmfd listener and the dmfrouter shard pool
    all resolve [host:port] endpoints through this one helper, built on
    the thread-safe [Unix.getaddrinfo] (the deprecated
    [Unix.gethostbyname] shares a static result buffer and must not be
    called from the router's per-shard threads).

    Every socket {!connect} opens and every one {!serve} accepts has
    [TCP_NODELAY] set, and no other module sets socket options on a
    connection.  Each exchange is one request line, then one answer
    line, and the sender of a pipelined stream waits for the answers:
    with Nagle's algorithm on, a short line written while an earlier
    one is unacknowledged waits for the peer's delayed ACK, some
    milliseconds per answer on loopback.  A [setsockopt] error is
    ignored; the connection is used as it is. *)

val resolve : host:string -> port:int -> Unix.sockaddr
(** Resolve [host] to an IPv4 socket address.  [host] may be a dotted
    quad (no lookup performed) or a name.
    @raise Failure ["cannot resolve host <host>"] when resolution yields
    no IPv4 address. *)

val connect : host:string -> port:int -> Unix.file_descr
(** {!resolve}, then open a connected [SOCK_STREAM] socket with
    [TCP_NODELAY] set.  The socket is closed again if [connect] itself
    fails.
    @raise Failure on resolution failure, [Unix.Unix_error] on
    connection failure. *)

val serve :
  ?on_listen:(int -> unit) ->
  ?stop:(unit -> bool) ->
  host:string ->
  port:int ->
  (in_channel -> out_channel -> unit) ->
  unit
(** Bind [host:port] and serve every accepted connection on its own
    thread with the handler, which gets the connection's input and
    output channels; [TCP_NODELAY] is set on the descriptor before the
    handler runs.  An exception from the handler ends that connection
    only.
    The descriptor is closed exactly once, when the handler returns.
    [port = 0] binds an ephemeral port; [on_listen] receives the port
    actually bound (after [listen], before the first [accept]).  An
    [accept] interrupted by a signal is retried.  [stop] is checked
    before each [accept] (by default never true); once it holds, the
    listening socket is closed and [serve] returns.
    @raise Unix.Unix_error if the address cannot be bound. *)
