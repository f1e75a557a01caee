(** Shared TCP plumbing: name resolution and the accept loop.

    The dmfstream client, the dmfd listener and the dmfrouter shard pool
    all resolve [host:port] endpoints through this one helper, built on
    the thread-safe [Unix.getaddrinfo] (the deprecated
    [Unix.gethostbyname] shares a static result buffer and must not be
    called from the router's per-shard threads). *)

val resolve : host:string -> port:int -> Unix.sockaddr
(** Resolve [host] to an IPv4 socket address.  [host] may be a dotted
    quad (no lookup performed) or a name.
    @raise Failure ["cannot resolve host <host>"] when resolution yields
    no IPv4 address. *)

val connect : host:string -> port:int -> Unix.file_descr
(** {!resolve}, then open a connected [SOCK_STREAM] socket.  The socket
    is closed again if [connect] itself fails.
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
    output channels; an exception from it ends that connection only.
    The descriptor is closed exactly once, when the handler returns.
    [port = 0] binds an ephemeral port; [on_listen] receives the port
    actually bound (after [listen], before the first [accept]).  An
    [accept] interrupted by a signal is retried.  [stop] is checked
    before each [accept] (by default never true); once it holds, the
    listening socket is closed and [serve] returns.
    @raise Unix.Unix_error if the address cannot be bound. *)
