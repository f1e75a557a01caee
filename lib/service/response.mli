(** Typed responses of the preparation service.

    One response is one JSON object on one line, always carrying an
    [ok] boolean and the [req] kind it answers, plus the request's [id]
    when one was given.  A schedule response reports the cost metrics of
    the planned batch — [Tc], [q], [Tms], [W], [I] — together with the
    coalescing facts: the waiter's own demand [D], the merged batch
    demand [batch_D], and how many requests shared the planning job. *)

type summary = {
  scheme : string;  (** E.g. ["MM+SRS"]. *)
  mixers : int;
  demand : int;  (** The demand the batch was planned for. *)
  tc : int;
  q : int;
  tms : int;
  waste : int;
  input_total : int;
  trees : int;
  passes : int;
  within_limit : bool;
      (** [false] only for a streaming run whose storage budget cannot
          fit even a two-droplet pass. *)
}

val summary_of_metrics : Mdst.Metrics.t -> summary

type stats = {
  queue_depth : int;
  workers : int;
  served : int;  (** Responses written, this transport and others. *)
  errors : int;  (** Error responses among them. *)
  coalesced : int;  (** Requests that merged into an existing job. *)
  jobs : int;  (** Planning jobs executed by the pool. *)
  plans_built : int;  (** Jobs that actually built a forest (cache misses). *)
  cache : Cache.stats;
  avg_latency_ms : float;  (** Mean submit-to-completion of prepare requests. *)
  uptime_s : float;
  wal : Jsonl.t option;
      (** Journal/recovery counters when the daemon runs with a
          write-ahead log ([dmfd --wal-dir]), [None] otherwise — so a
          daemon without durability serves byte-identical stats. *)
  store : Jsonl.t option;
      (** Plan-store counters when the daemon runs with a
          content-addressed store ([dmfd --store-dir]), encoded as the
          [plan_store] object; [None] otherwise, same discipline as
          [wal]. *)
  replication : Jsonl.t option;
      (** Replication role and progress (role, last_applied_seq, lag)
          when the daemon serves or follows a replication feed, encoded
          as the [replication] object; [None] otherwise, same
          discipline as [wal]. *)
}

type answer
(** The bytes of a schedule answer that depend on the plan alone —
    [scheme] and [Mc], [Tc] through [within_limit], and the [instr]
    object — encoded once per plan.  {!Prep} keeps them next to the
    plan, so a cache hit encodes only its own members. *)

val answer : summary -> Mdst.Instr.counters option -> answer
(** Encode a plan's invariant answer bytes; [instr] becomes the nested
    [instr] object (absent for [None]). *)

type body =
  | Schedule of {
      answer : answer;
      demand : int;  (** This waiter's own demand. *)
      batch_demand : int;
      coalesced : int;  (** Requests answered by the same planning job. *)
      cache_hit : bool;
    }
  | Pong
  | Stats of stats
  | Error of string

type t = {
  id : Jsonl.t option;
  elapsed_ms : float option;  (** Wall time from admission to completion. *)
  body : body;
}

val ok : t -> bool
(** [false] exactly for {!Error} bodies. *)

val write : Buffer.t -> t -> unit
(** Append one protocol line (no newline).  The only encoder of
    responses: a schedule answer splices its [id], [D], [batch_D],
    [coalesced], [cache_hit] and [elapsed_ms] around its {!answer}
    bytes; only a [stats] body goes through a {!Jsonl.t} tree.  The
    members come in a fixed order — [ok], [req], [id], the body's,
    [elapsed_ms] — and a tree encoding of the same fields in that
    order prints the same bytes (test/ holds that encoding as the
    oracle). *)

val to_line : t -> string
(** {!write} into a fresh buffer. *)
