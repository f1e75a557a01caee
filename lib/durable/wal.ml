type fsync_policy = { every_n : int; every_ms : float }

let strict = { every_n = 1; every_ms = 0. }

(* Group commit.

   [append] only writes; durability is a separate step.  When the
   policy makes a record's durability due, its thread calls [commit]
   and parks on [q_done] until some fsync covers its sequence number.
   The first thread to find no sync in flight becomes the leader: it
   snapshots the high-water mark ([appended_upto]), fsyncs once with no
   lock that an appender needs, and releases every thread parked at or
   below the mark together.  Threads that arrive while a sync is in
   flight park and, if that fsync started before their record was
   written, one of them leads the next round — so under concurrent
   load one fsync absorbs a whole batch and `every_n = 1` keeps its
   meaning (no caller returns before its record is on disk) at far
   fewer than one fsync per record.

   Lock roles:
   - [q_lock]/[q_done] guard the commit-queue state; [q_done] pairs
     with [q_lock] and nothing else, and a parked thread holds no
     other lock (Manager calls [commit] outside its own mutex).
   - [fsync_gate] orders the leader's fsync against [rotate]/[close]
     swapping the descriptor, so an fsync can never race a close.
   [sync] (used by rotate, close and snapshots, which run under the
   manager's lock) never parks on the condvar: it issues its own fsync
   regardless of an in-flight leader — a redundant fsync is harmless,
   a condvar wait under a foreign lock is not.

   A failed fsync is fatal (after one, the kernel may have dropped the
   dirty pages, so a retry that succeeds proves nothing): the gate is
   released, the error is kept in [failed] and broadcast to every
   parked committer, and from then on [commit] and [sync] raise it
   without touching the disk again.  Recovery replays what did reach
   the disk. *)

type t = {
  dir : string;
  fsync : fsync_policy;
  mutable fd : Unix.file_descr;
  mutable next_seq : int;
  mutable appends : int;
  q_lock : Mutex.t;
  q_done : Condition.t;
  fsync_gate : Mutex.t;
  mutable appended_upto : int;  (* highest seq written to [fd] *)
  mutable synced_upto : int;  (* highest seq an fsync covers *)
  mutable sync_in_flight : bool;
  mutable fd_closed : bool;
  mutable failed : exn option;  (* the first fsync error, for good *)
  mutable last_sync : float;
  mutable fsyncs : int;
  mutable group_commits : int;
  mutable batch_records : int;
}

let rec ensure_dir dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then ensure_dir parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let segment_name seq = Printf.sprintf "wal-%012d.ndjson" seq

let parse_name ~prefix ~suffix name =
  let pn = String.length prefix and sn = String.length suffix in
  let n = String.length name in
  if
    n > pn + sn
    && String.sub name 0 pn = prefix
    && String.sub name (n - sn) sn = suffix
  then int_of_string_opt (String.sub name pn (n - pn - sn))
  else None

let listing ~prefix ~suffix dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           match parse_name ~prefix ~suffix name with
           | Some seq -> Some (seq, Filename.concat dir name)
           | None -> None)
    |> List.sort compare

let segments ~dir = listing ~prefix:"wal-" ~suffix:".ndjson" dir

let open_fd dir start_seq =
  Unix.openfile
    (Filename.concat dir (segment_name start_seq))
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
    0o644

let open_segment ~dir ~start_seq ~fsync =
  ensure_dir dir;
  {
    dir;
    fsync;
    fd = open_fd dir start_seq;
    next_seq = start_seq;
    appends = 0;
    q_lock = Mutex.create ();
    q_done = Condition.create ();
    fsync_gate = Mutex.create ();
    appended_upto = start_seq - 1;
    synced_upto = start_seq - 1;
    sync_in_flight = false;
    fd_closed = false;
    failed = None;
    last_sync = Unix.gettimeofday ();
    fsyncs = 0;
    group_commits = 0;
    batch_records = 0;
  }

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let append t kind =
  let seq = t.next_seq in
  write_all t.fd (Record.encode ~seq kind ^ "\n");
  t.next_seq <- seq + 1;
  t.appends <- t.appends + 1;
  Mutex.lock t.q_lock;
  t.appended_upto <- seq;
  Mutex.unlock t.q_lock;
  seq

let sync_due t =
  Mutex.lock t.q_lock;
  let unsynced = t.appended_upto - t.synced_upto in
  let due_count = t.fsync.every_n > 0 && unsynced >= t.fsync.every_n in
  let due_time =
    t.fsync.every_ms > 0. && unsynced > 0
    && (Unix.gettimeofday () -. t.last_sync) *. 1000. >= t.fsync.every_ms
  in
  Mutex.unlock t.q_lock;
  due_count || due_time

(* The gate is released on every path; an error is returned, not
   raised, so the caller records it under [q_lock] first. *)
let fsync_gated t =
  Mutex.lock t.fsync_gate;
  let outcome =
    match if not t.fd_closed then Unix.fsync t.fd with
    | () -> None
    | exception e -> Some e
  in
  Mutex.unlock t.fsync_gate;
  outcome
[@@dmflint.allow
  "blocking-under-lock: fsync_gate exists precisely to order this \
   fsync before rotate/close swaps or closes the descriptor; it is \
   never held together with q_lock or any caller's lock, so nothing \
   that appends or parks can contend on it"]

(* Under [q_lock]. *)
let record_sync t ~target ~group =
  if target > t.synced_upto then begin
    if group then t.batch_records <- t.batch_records + (target - t.synced_upto);
    t.synced_upto <- target
  end;
  t.fsyncs <- t.fsyncs + 1;
  if group then t.group_commits <- t.group_commits + 1;
  t.last_sync <- Unix.gettimeofday ();
  Condition.broadcast t.q_done

(* Under [q_lock]: the first failure is the one every later caller
   sees; parked committers wake to it. *)
let record_failure t e =
  (match t.failed with None -> t.failed <- Some e | Some _ -> ());
  Condition.broadcast t.q_done

let commit t ~upto =
  Mutex.lock t.q_lock;
  let rec settle () =
    match t.failed with
    | Some e -> Some e
    | None ->
      if t.synced_upto >= upto then None
      else if t.sync_in_flight then begin
        Condition.wait t.q_done t.q_lock;
        settle ()
      end
      else begin
        t.sync_in_flight <- true;
        let target = t.appended_upto in
        Mutex.unlock t.q_lock;
        let outcome = fsync_gated t in
        Mutex.lock t.q_lock;
        t.sync_in_flight <- false;
        (match outcome with
        | None -> record_sync t ~target ~group:true
        | Some e -> record_failure t e);
        settle ()
      end
  in
  let failed = settle () in
  Mutex.unlock t.q_lock;
  Option.iter raise failed

let sync t =
  Mutex.lock t.q_lock;
  let failed = t.failed in
  let target = t.appended_upto in
  let dirty = target > t.synced_upto in
  Mutex.unlock t.q_lock;
  Option.iter raise failed;
  if dirty then begin
    let outcome = fsync_gated t in
    Mutex.lock t.q_lock;
    (match outcome with
    | None -> record_sync t ~target ~group:false
    | Some e -> record_failure t e);
    Mutex.unlock t.q_lock;
    Option.iter raise outcome
  end

let rotate t =
  sync t;
  Mutex.lock t.fsync_gate;
  Unix.close t.fd;
  t.fd <- open_fd t.dir t.next_seq;
  Mutex.unlock t.fsync_gate;
  Mutex.lock t.q_lock;
  t.last_sync <- Unix.gettimeofday ();
  Mutex.unlock t.q_lock

let close t =
  let synced = match sync t with () -> None | exception e -> Some e in
  Mutex.lock t.fsync_gate;
  t.fd_closed <- true;
  Unix.close t.fd;
  Mutex.unlock t.fsync_gate;
  Mutex.lock t.q_lock;
  Condition.broadcast t.q_done;
  Mutex.unlock t.q_lock;
  Option.iter raise synced

let next_seq t = t.next_seq
let appends t = t.appends

let fsyncs t =
  Mutex.lock t.q_lock;
  let n = t.fsyncs in
  Mutex.unlock t.q_lock;
  n

let group_commits t =
  Mutex.lock t.q_lock;
  let n = t.group_commits in
  Mutex.unlock t.q_lock;
  n

let avg_batch_size t =
  Mutex.lock t.q_lock;
  let g = t.group_commits and r = t.batch_records in
  Mutex.unlock t.q_lock;
  if g = 0 then 0. else float_of_int r /. float_of_int g
