(* Shared TCP plumbing for every networked front end: name resolution,
   the accept loop and the options of every connection's socket.

   One resolver, used by the dmfstream client, the dmfd TCP listener and
   the dmfrouter shard pool, so they all accept exactly the same host
   syntax and fail with the same message.  Resolution goes through
   [Unix.getaddrinfo]: unlike the deprecated [Unix.gethostbyname] it is
   thread-safe (the router resolves shard addresses from many threads)
   and does not share a static result buffer. *)

let resolve ~host ~port =
  match Unix.inet_addr_of_string host with
  | addr -> Unix.ADDR_INET (addr, port)
  | exception Failure _ -> (
    let hints =
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_FAMILY Unix.PF_INET ]
    in
    let inet = function
      | { Unix.ai_addr = Unix.ADDR_INET _ as addr; _ } -> Some addr
      | _ -> None
    in
    match
      List.find_map inet
        (try Unix.getaddrinfo host (string_of_int port) hints
         with Unix.Unix_error _ -> [])
    with
    | Some addr -> addr
    | None -> failwith ("cannot resolve host " ^ host))

(* Set on every socket [connect] and [serve] hand out (net.mli says
   why).  A socket that refuses the option still works, only slower, so
   an error here never closes it. *)
let nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

let connect ~host ~port =
  let addr = resolve ~host ~port in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* connect(2) interrupted by a signal keeps establishing the
     connection in the background, so the retry can find the socket
     already connected: EISCONN on the retry is success. *)
  match
    Analysis.Runtime.retry_eintr (fun () ->
        try Unix.connect fd addr
        with Unix.Unix_error (Unix.EISCONN, _, _) -> ())
  with
  | () ->
    nodelay fd;
    fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* The one accept loop behind every TCP listener (dmfd, dmfrouter, the
   replication feed and the follower). *)
let serve ?on_listen ?(stop = fun () -> false) ~host ~port handle =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (resolve ~host ~port);
  Unix.listen sock 64;
  (match on_listen with
  | None -> ()
  | Some f -> (
    (* With port 0 the kernel picked the port; read it back. *)
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, bound) -> f bound
    | Unix.ADDR_UNIX _ -> f port));
  let connection fd =
    nodelay fd;
    let oc = Unix.out_channel_of_descr fd in
    (try handle (Unix.in_channel_of_descr fd) oc with _ -> ());
    (* Both channels share [fd]; closing [oc] flushes and closes it.
       That is the only close: once it returns, the kernel may hand the
       same number to the next accepted connection. *)
    close_out_noerr oc
  in
  while not (stop ()) do
    (* A signal (e.g. SIGTERM starting the clean-shutdown thread)
       interrupts the blocking accept; keep serving until [stop]. *)
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | fd, _peer -> ignore (Thread.create connection fd)
  done;
  try Unix.close sock with Unix.Unix_error _ -> ()
