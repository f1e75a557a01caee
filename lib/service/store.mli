(** The server's view of a second plan-cache tier.

    The on-disk content-addressed store lives in [Durable.Plan_store],
    which depends on this library — so the server cannot name it.  As
    with the WAL hooks on {!Server.create}, the dependency is inverted:
    this record is the narrow interface the server consults on an LRU
    miss, and [dmfd] wires [Durable.Plan_store] into it.  All three
    closures must be safe to call from any worker domain. *)

type t = {
  find : Request.spec -> Prep.prepared option;
      (** Consulted on LRU miss, before planning.  Must return [None]
          rather than raise: a store failure costs a re-plan, never a
          request. *)
  add : Request.spec -> Prep.prepared -> unit;
      (** Write-through after a fresh plan is built. *)
  stats : unit -> Jsonl.t;
      (** Becomes the [plan_store] object of stats responses. *)
}

type tier =
  | Stored  (** Decoded from the store's [find]. *)
  | Planned  (** Built by {!Prep.run} and written through to [add]. *)

val obtain :
  t option -> Request.spec -> (Prep.prepared * tier, string) result
(** The plan tier below the LRU, in one place: the store's [find]
    first, otherwise {!Prep.run} under {!Validate.protect} with the
    fresh plan written through to the store's [add].  Returns which
    tier answered; [Error] carries the engine's rejection message.
    Worker jobs, recovery priming and follower priming all go through
    this function.  [None] means no store: every call plans. *)
