(* One NDJSON stream to the program under test: a daemon's stdin and
   stdout, or a TCP socket.  Lines are written whole and read back
   through a buffer, so a caller can multiplex several streams with
   Unix.select. *)

type t = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;
  chunk : Bytes.t;
  partial : Buffer.t;
  lines : string Queue.t;
  mutable eof : bool;
}

let of_fds rfd wfd =
  {
    rfd;
    wfd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 4096;
    lines = Queue.create ();
    eof = false;
  }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  of_fds fd fd

let close t =
  (try Unix.close t.rfd with Unix.Unix_error _ -> ());
  if t.wfd <> t.rfd then try Unix.close t.wfd with Unix.Unix_error _ -> ()

let send t line =
  let s = Bytes.unsafe_of_string (line ^ "\n") in
  let n = Bytes.length s in
  let rec go off =
    if off < n then go (off + Unix.write t.wfd s off (n - off))
  in
  go 0

(* One read: whatever is available, split into complete lines. *)
let fill t =
  let k = Unix.read t.rfd t.chunk 0 (Bytes.length t.chunk) in
  if k = 0 then t.eof <- true
  else begin
    let start = ref 0 in
    for i = 0 to k - 1 do
      if Bytes.get t.chunk i = '\n' then begin
        Buffer.add_subbytes t.partial t.chunk !start (i - !start);
        Queue.push (Buffer.contents t.partial) t.lines;
        Buffer.clear t.partial;
        start := i + 1
      end
    done;
    Buffer.add_subbytes t.partial t.chunk !start (k - !start)
  end

let recv ?(timeout = 60.) t =
  let deadline = Clock.now () +. timeout in
  let rec go () =
    match Queue.take_opt t.lines with
    | Some l -> l
    | None ->
      if t.eof then failwith "connection closed before an answer";
      let left = deadline -. Clock.now () in
      if left <= 0. then failwith "no answer before the deadline";
      (match Unix.select [ t.rfd ] [] [] left with
      | [], _, _ -> ()
      | _ -> fill t);
      go ()
  in
  go ()

(* Close a socket only once the peer has closed its end: half-close,
   read to the end of the stream, pause, then close.  dmfd and
   dmfrouter close each accepted descriptor twice (CHANGES.md, FOUND),
   and a connection accepted between the two closes loses its
   descriptor; opened straight after such a close, one in five runs
   failed with EPIPE, ECONNRESET or lost answers. *)
let close_after_peer ?(timeout = 10.) t =
  (try Unix.shutdown t.wfd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let deadline = Clock.now () +. timeout in
  while (not t.eof) && Clock.now () < deadline do
    match Unix.select [ t.rfd ] [] [] (deadline -. Clock.now ()) with
    | [], _, _ -> ()
    | _ -> fill t
  done;
  if not t.eof then failwith "peer did not close the connection";
  Unix.sleepf 0.01;
  close t

(* Closed request/answer exchange, for probes outside the timed phases. *)
let call ?timeout t line =
  send t line;
  recv ?timeout t
