(* Load generation from one process over a few NDJSON streams.  Every
   stream answers in request order, so each answer is paired with the
   oldest request still outstanding on its stream. *)

type request = {
  conn : int;  (** Index of the stream it is sent on. *)
  line : string;
  tag : int;  (** The caller's index into its table of specs. *)
  id : int;  (** Echoed in the answer. *)
  due : float;  (** Scheduled send time (open loop). *)
  mutable sent : float;
  mutable recv : float;
  mutable answer : string;
}

let request ?(due = 0.) ~conn ~tag ~id line =
  { conn; line; tag; id; due; sent = 0.; recv = 0.; answer = "" }

let collect (conns : Conn.t array) queues ~timeout ~on_answer =
  let fds =
    List.filter_map
      (fun i -> if Queue.is_empty queues.(i) then None else Some conns.(i).Conn.rfd)
      (List.init (Array.length conns) Fun.id)
  in
  if fds = [] then (if timeout > 0. then Unix.sleepf timeout)
  else
    let readable, _, _ = Unix.select fds [] [] timeout in
    Array.iteri
      (fun i (c : Conn.t) ->
        if List.mem c.Conn.rfd readable then begin
          Conn.fill c;
          let now = Clock.now () in
          while not (Queue.is_empty c.Conn.lines) do
            let line = Queue.pop c.Conn.lines in
            match Queue.take_opt queues.(i) with
            | None -> failwith ("unsolicited answer: " ^ line)
            | Some r ->
              r.recv <- now;
              r.answer <- line;
              on_answer r
          done;
          if c.Conn.eof && not (Queue.is_empty queues.(i)) then
            failwith "stream closed with requests outstanding"
        end)
      conns

(* Open loop: send each request at its due time, whether or not earlier
   ones were answered.  More than [max_outstanding] unanswered requests
   hold the generator back (it then runs late, which [sent - due]
   shows) rather than let a stalled peer deadlock both pipes. *)
let open_loop conns (reqs : request array) ~max_outstanding ~timeout =
  let n = Array.length reqs in
  let queues = Array.map (fun _ -> Queue.create ()) conns in
  let next = ref 0 and outstanding = ref 0 and answered = ref 0 in
  let deadline = (if n = 0 then Clock.now () else reqs.(n - 1).due) +. timeout in
  while !answered < n do
    if Clock.now () > deadline then
      failwith
        (Printf.sprintf "open loop: %d of %d answers missing at the deadline"
           (n - !answered) n);
    while
      !next < n && reqs.(!next).due <= Clock.now () && !outstanding < max_outstanding
    do
      let r = reqs.(!next) in
      Conn.send conns.(r.conn) r.line;
      r.sent <- Clock.now ();
      Queue.push r queues.(r.conn);
      incr next;
      incr outstanding
    done;
    let wait =
      if !next < n && !outstanding < max_outstanding then
        Float.max 0. (reqs.(!next).due -. Clock.now ())
      else 0.05
    in
    collect conns queues ~timeout:wait ~on_answer:(fun _ ->
        incr answered;
        decr outstanding)
  done

(* Closed loop: keep [window] requests outstanding on every stream for
   [duration] seconds, then drain.  Returns every request made, the
   answers completed inside the window and the time from the start to
   the last of them. *)
let closed_loop conns ~window ~duration ~timeout ~(next : int -> request) =
  let queues = Array.map (fun _ -> Queue.create ()) conns in
  let made = ref [] in
  let send_next i =
    let r = next i in
    Conn.send conns.(i) r.line;
    r.sent <- Clock.now ();
    Queue.push r queues.(i);
    made := r :: !made
  in
  let t0 = Clock.now () in
  let t_end = t0 +. duration in
  Array.iteri (fun i _ -> for _ = 1 to window do send_next i done) conns;
  let in_window = ref 0 and last = ref t0 in
  while Array.exists (fun q -> not (Queue.is_empty q)) queues do
    if Clock.now () > t_end +. timeout then
      failwith "closed loop: answers missing at the deadline";
    collect conns queues ~timeout:0.05 ~on_answer:(fun r ->
        if r.recv <= t_end then begin
          incr in_window;
          last := r.recv;
          send_next r.conn
        end)
  done;
  (Array.of_list (List.rev !made), !in_window, !last -. t0)

(* A closed exchange of a fixed list, [window] outstanding per stream. *)
let batch conns (reqs : request array) ~window ~timeout =
  let queues = Array.map (fun _ -> Queue.create ()) conns in
  let n = Array.length reqs in
  let next = ref 0 and answered = ref 0 in
  let outstanding = Array.make (Array.length conns) 0 in
  let deadline = Clock.now () +. timeout in
  while !answered < n do
    if Clock.now () > deadline then failwith "batch: answers missing at the deadline";
    while !next < n && outstanding.(reqs.(!next).conn) < window do
      let r = reqs.(!next) in
      Conn.send conns.(r.conn) r.line;
      r.sent <- Clock.now ();
      Queue.push r queues.(r.conn);
      outstanding.(r.conn) <- outstanding.(r.conn) + 1;
      incr next
    done;
    collect conns queues ~timeout:0.05 ~on_answer:(fun r ->
        outstanding.(r.conn) <- outstanding.(r.conn) - 1;
        incr answered)
  done
