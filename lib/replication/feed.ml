(* The primary side of replication: serve WAL segments plus the live
   tail to any number of followers, straight from the segment files on
   disk.

   Reading the journal from disk instead of teeing appends in memory
   keeps the feed entirely outside the manager's locks: the only
   coupling is a journal listener ({!notify}) that bumps a version
   counter and wakes parked sessions, so a slow follower can never
   stall a commit.  Sessions forward only complete newline-terminated
   lines (a partial tail is buffered until the writer finishes it), so
   followers always receive whole records.

   A session is one NDJSON connection.  Its first frame picks the mode:
   [subscribe] streams records forever; [plan_get] answers plan-store
   payload lookups request/response until the peer hangs up. *)

module Jsonl = Service.Jsonl
module Wal = Durable.Wal
module Snapshot = Durable.Snapshot
module Plan_store = Durable.Plan_store

type config = {
  dir : string;  (** The primary's WAL directory. *)
  last_seq : unit -> int;  (** {!Durable.Manager.last_seq}. *)
  fetch_plan : Service.Request.spec -> string option;
      (** Plan-store payload bytes for a spec, if stored. *)
}

type t = {
  config : config;
  wake : Mutex.t;
  tick : Condition.t;
  mutable version : int;  (** Bumped by {!notify}; parked sessions wait on it. *)
  mutable stopped : bool;
  mutable subscribers : int;
  mutable records_streamed : int;
  mutable resumes : int;
  mutable resets : int;
  mutable plans_served : int;
}

let create config =
  (* Streaming writes race follower deaths as a matter of course; an
     unhandled SIGPIPE would kill the daemon instead of surfacing as
     the EPIPE the session loop already catches. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  {
    config;
    wake = Mutex.create ();
    tick = Condition.create ();
    version = 0;
    stopped = false;
    subscribers = 0;
    records_streamed = 0;
    resumes = 0;
    resets = 0;
    plans_served = 0;
  }

let notify t _seq =
  Mutex.lock t.wake;
  t.version <- t.version + 1;
  Condition.broadcast t.tick;
  Mutex.unlock t.wake

let stop t =
  Mutex.lock t.wake;
  t.stopped <- true;
  Condition.broadcast t.tick;
  Mutex.unlock t.wake

let stopped t =
  Mutex.lock t.wake;
  let s = t.stopped in
  Mutex.unlock t.wake;
  s

(* Capture the version {e before} probing the files; a notify between
   the probe and the park then returns immediately instead of being
   missed. *)
let current_version t =
  Mutex.lock t.wake;
  let v = t.version in
  Mutex.unlock t.wake;
  v

let wait_tick t seen =
  Mutex.lock t.wake;
  while (not t.stopped) && t.version <= seen do
    Condition.wait t.tick t.wake
  done;
  Mutex.unlock t.wake

let bump t f =
  Mutex.lock t.wake;
  f t;
  Mutex.unlock t.wake
[@@dmflint.allow
  "callback-under-lock: with-lock combinator; every closure passed in \
   is a single counter increment — no I/O, no parking, no reentry"]

let now_ms () = Unix.gettimeofday () *. 1000.

let send oc frame =
  output_string oc (Wire.to_line frame);
  output_char oc '\n';
  flush oc

let heartbeat t oc =
  send oc (Wire.At { last_seq = t.config.last_seq (); ms = now_ms () })

(* ------------------------------------------------------------------ *)
(* Subscribe sessions                                                  *)

let segment_after ~dir segment =
  List.find_map
    (fun (seq, _path) -> if seq > segment then Some seq else None)
    (Wal.segments ~dir)

(* A cursor resumes iff its segment file still exists (compaction may
   have dropped it) and its offset is inside the file — the follower's
   mirror being verbatim, any shorter offset is a clean line boundary
   from its own past. *)
let resolve t (c : Wire.cursor) =
  if c.segment <= 0 then None
  else
    match List.assoc_opt c.segment (Wal.segments ~dir:t.config.dir) with
    | None -> None
    | Some path ->
      if c.offset <= (Unix.stat path).Unix.st_size then Some c else None

exception Stop_session

(* Forward the complete lines of [tail ^ chunk], returning the new
   partial tail.  Lines go out verbatim — same bytes, same newlines —
   with a heartbeat every [at_every] records so the follower can
   measure lag without waiting for an idle point. *)
let at_every = 512

let forward_lines t oc ~tail ~chunk ~streak =
  let data = tail ^ chunk in
  let parts = String.split_on_char '\n' data in
  let rec go streak = function
    | [] -> ("", streak)
    | [ last ] -> (last, streak)
    | line :: rest ->
      output_string oc line;
      output_char oc '\n';
      bump t (fun t -> t.records_streamed <- t.records_streamed + 1);
      let streak = streak + 1 in
      if streak >= at_every then begin
        flush oc;
        heartbeat t oc;
        go 0 rest
      end
      else go streak rest
  in
  let tail, streak = go streak parts in
  flush oc;
  (tail, streak)

(* Stream one segment from [offset] until a successor segment exists
   and the file is drained past a complete final line; then move on.
   The successor check happens only after a read that returned no
   bytes {e and} a re-read confirms end of file — rotation creates the
   successor strictly after the old segment's last append, so a
   confirmed EOF with a successor in the listing means the file is
   final. *)
let rec stream_segment t oc ~segment ~offset =
  send oc (Wire.Open_segment segment);
  let path = Filename.concat t.config.dir (Wal.segment_name segment) in
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  let next =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.lseek fd offset Unix.SEEK_SET);
        let chunk = Bytes.create 65536 in
        let rec drain ~tail ~streak ~idle =
          if stopped t then raise Stop_session;
          let seen = current_version t in
          let n = Analysis.Runtime.read_retry fd chunk 0 (Bytes.length chunk) in
          if n > 0 then
            let tail, streak =
              forward_lines t oc ~tail ~chunk:(Bytes.sub_string chunk 0 n)
                ~streak
            in
            drain ~tail ~streak ~idle:false
          else if tail = "" && segment_after ~dir:t.config.dir segment <> None
          then
            (* Confirmed EOF on a rotated-away segment: next file. *)
            segment_after ~dir:t.config.dir segment
          else begin
            (* Caught up (or waiting out a torn tail the writer is
               still finishing).  Tell the follower where the journal
               stands once per idle episode, then park. *)
            if not idle then heartbeat t oc;
            wait_tick t seen;
            drain ~tail ~streak ~idle:true
          end
        in
        drain ~tail:"" ~streak:0 ~idle:false)
  in
  match next with
  | Some segment -> stream_segment t oc ~segment ~offset:0
  | None -> ()

let rec first_segment t =
  match Wal.segments ~dir:t.config.dir with
  | (segment, _) :: _ -> segment
  | [] ->
    if stopped t then raise Stop_session;
    let seen = current_version t in
    wait_tick t seen;
    first_segment t

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let subscribe t oc cursor =
  bump t (fun t -> t.subscribers <- t.subscribers + 1);
  Fun.protect
    ~finally:(fun () -> bump t (fun t -> t.subscribers <- t.subscribers - 1))
    (fun () ->
      let start =
        match resolve t cursor with
        | Some c ->
          bump t (fun t -> t.resumes <- t.resumes + 1);
          send oc (Wire.Hello { resumed = true; last_seq = t.config.last_seq () });
          c
        | None ->
          bump t (fun t -> t.resets <- t.resets + 1);
          send oc
            (Wire.Hello { resumed = false; last_seq = t.config.last_seq () });
          (match List.rev (Snapshot.list ~dir:t.config.dir) with
          | (seq, path) :: _ ->
            send oc (Wire.Snapshot { seq; data = read_file path })
          | [] -> ());
          { Wire.segment = first_segment t; offset = 0 }
      in
      try stream_segment t oc ~segment:start.Wire.segment ~offset:start.Wire.offset
      with Stop_session -> ())

(* ------------------------------------------------------------------ *)
(* Plan-fetch sessions                                                 *)

let serve_plan t oc spec =
  let key = Plan_store.key_of_spec spec in
  let data = t.config.fetch_plan spec in
  if data <> None then bump t (fun t -> t.plans_served <- t.plans_served + 1);
  send oc (Wire.Plan { key; data })

let rec plan_loop t ic oc =
  match Jsonl.read_line ic with
  | Jsonl.Eof | Jsonl.Oversized _ -> ()
  | Jsonl.Line line | Jsonl.Tail line -> (
    match Wire.of_line line with
    | Ok (Wire.Plan_get spec) ->
      serve_plan t oc spec;
      plan_loop t ic oc
    | Ok _ | Error _ -> ())

(* ------------------------------------------------------------------ *)

let handle t ic oc =
  match Jsonl.read_line ic with
  | Jsonl.Eof | Jsonl.Oversized _ -> ()
  | Jsonl.Line line | Jsonl.Tail line -> (
    match Wire.of_line line with
    | Ok (Wire.Subscribe cursor) -> subscribe t oc cursor
    | Ok (Wire.Plan_get spec) ->
      serve_plan t oc spec;
      plan_loop t ic oc
    | Ok _ | Error _ -> ())

let stats_json t =
  Mutex.lock t.wake;
  let subscribers = t.subscribers
  and records_streamed = t.records_streamed
  and resumes = t.resumes
  and resets = t.resets
  and plans_served = t.plans_served in
  Mutex.unlock t.wake;
  Jsonl.Obj
    [
      ("role", Jsonl.String "primary");
      ("last_seq", Jsonl.Int (t.config.last_seq ()));
      ("subscribers", Jsonl.Int subscribers);
      ("records_streamed", Jsonl.Int records_streamed);
      ("resumes", Jsonl.Int resumes);
      ("resets", Jsonl.Int resets);
      ("plans_served", Jsonl.Int plans_served);
    ]

let serve_tcp ?on_listen t ~host ~port =
  Service.Net.serve ?on_listen ~stop:(fun () -> stopped t) ~host ~port
    (handle t)
