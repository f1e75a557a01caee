(** The primary side of replication: stream WAL segments plus the live
    tail to followers, straight from the segment files on disk.

    The feed's only coupling to the write path is {!notify}, wired as a
    {!Durable.Manager.subscribe_journal} listener: it bumps a version
    counter and wakes parked sessions.  Everything else reads the
    segment files, so a slow (or dead) follower can never hold a
    journal lock or stall a commit.

    Sessions forward only complete newline-terminated record lines,
    byte-verbatim, interleaved with control frames ({!Wire}).  A
    session's first frame selects its mode: [subscribe] streams
    records until the peer disconnects or {!stop}; [plan_get] answers
    plan-store payload lookups.

    Creating a feed sets [SIGPIPE] to ignore: streaming writes race
    follower deaths as a matter of course, and the session loop
    already handles the resulting [EPIPE]. *)

type config = {
  dir : string;  (** The primary's WAL directory. *)
  last_seq : unit -> int;  (** {!Durable.Manager.last_seq}. *)
  fetch_plan : Service.Request.spec -> string option;
      (** {!Durable.Plan_store} payload bytes for a spec, if stored
          ([fun _ -> None] without a store). *)
}

type t

val create : config -> t

val notify : t -> int -> unit
(** Journal listener: wake any session parked at the live tail.  Safe
    from any thread; never blocks on I/O. *)

val stop : t -> unit
(** Stop accepting and wake every parked session so it can exit. *)

val handle : t -> in_channel -> out_channel -> unit
(** Serve one session on explicit channels (tests use socketpairs). *)

val subscribe : t -> out_channel -> Wire.cursor -> unit
(** The subscribe-session body: hello, optional snapshot + reset, then
    stream from the cursor until disconnect or {!stop}. *)

val stats_json : t -> Service.Jsonl.t
(** The primary's [replication] stats object: role, journal position,
    subscriber count, streamed/resume/reset/plan counters. *)

val serve_tcp : ?on_listen:(int -> unit) -> t -> host:string -> port:int -> unit
(** Serve one session per connection through {!Service.Net.serve}
    until {!stop}. *)
