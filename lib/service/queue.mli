(** Bounded admission queue with request coalescing.

    The paper's whole premise is that demand aggregation pays: one
    forest serving a summed demand wastes fewer droplets than separate
    forests serving each request (Section 4.1; Coviello Gonzalez &
    Chrobak study the same effect for dilution).  The queue
    operationalises this: while a planning job for some
    (ratio, algorithm, scheduler, Mc, q') is still {e pending}, further
    requests with the same {!Request.coalesce_key} merge into it —
    demands are summed, and the one forest built for the batch answers
    every waiter.  A job that a worker has already taken is never
    mutated.

    Admission is bounded: at most [capacity] distinct pending jobs; a
    submitter that would exceed the bound blocks until a worker drains
    the queue (backpressure), never dropping a request.  Coalescing
    merges never block — they add no queue entry.

    All operations are mutex-guarded and safe across domains and
    threads. *)

type t

type job
(** A planning job: a spec whose demand is the sum over its waiters. *)

type ticket
(** One submitter's claim on a job's outcome. *)

type outcome = {
  prepared : Prep.prepared;
  batch_demand : int;  (** The summed demand the job planned for. *)
  coalesced : int;  (** Number of requests the job answers. *)
  cache_hit : bool;
}

val create : ?on_admit:(Request.spec -> unit) -> capacity:int -> unit -> t
(** [on_admit] is called for every successfully admitted request —
    merge or fresh job alike — under the queue lock, so calls happen in
    admission order and strictly before any worker can complete the
    request's job.  The write-ahead log hangs its accepted-record hook
    here; it must not call back into the queue.  If it raises, the
    request is refused rather than admitted.
    @raise Invalid_argument if [capacity < 1]. *)

val submit :
  ?quiet:bool -> t -> key:string -> Request.spec -> (ticket, string) result
(** Admit a request whose coalesce key is [key] ({!Request.coalesce_key},
    as the request decoder returns it): merge into the pending job with
    the same key, or enqueue a new job (blocking while the queue is
    full).  A merge that would push the batch demand over
    {!Validate.max_demand} is not performed — the request is queued as
    its own fresh job instead.  [quiet] (default [false]) suppresses
    the [on_admit] hook: recovery resubmits journaled requests that
    were already accepted once.  [Error] after {!close}, or when the
    [on_admit] hook raises (the request is then not admitted). *)

val take : t -> job option
(** Worker side: pop the oldest pending job, blocking while the queue is
    empty.  [None] once the queue is closed {e and} drained — remaining
    jobs are always handed out before the shutdown [None]. *)

val job_spec : job -> Request.spec
(** The job's spec with the summed demand. *)

val job_key : job -> string
(** The job's coalesce key; its cache key is
    [Request.cache_key_of ~coalesce:(job_key job) (job_spec job).demand]. *)

val job_requests : job -> int
(** How many requests coalesced into the job (>= 1). *)

val fulfil : job -> (outcome, string) result -> unit
(** Deliver the job's result to every waiter.  Idempotent: only the
    first call wins. *)

val wait : ticket -> (outcome, string) result
(** Block until the ticket's job is fulfilled.  Tickets of jobs still
    pending when the queue was closed resolve to [Error]. *)

val ticket_demand : ticket -> int
(** The demand this submitter asked for (its share of the batch). *)

val depth : t -> int
(** Pending jobs (admitted, not yet taken by a worker). *)

val coalesced_total : t -> int
(** Running count of requests that merged into an existing job. *)

val close : t -> unit
(** Reject new submissions and wake blocked submitters and workers.
    Jobs already admitted are still handed to workers ({!take} drains
    before returning [None]), so their waiters resolve normally. *)
