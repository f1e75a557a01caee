(** Typed requests of the preparation service.

    One request is one JSON object on one line.  The [req] field selects
    the kind:

    - [{"req": "prepare", "ratio": "2:1:1:1:1:1:9", "D": 20,
        "algorithm": "MM", "scheduler": "SRS", "Mc": 3, "storage": 5,
        "id": 7}] — plan and schedule [D] droplets of the target.
        [algorithm] defaults to MM, [scheduler] to SRS; [Mc] defaults to
        the paper's [Mlb] of the MM tree; [storage] switches to the
        multi-pass streaming engine under that budget.  [ratio] also
        accepts a protocol id (pcr16, ex1..ex5).
    - [{"req": "stats"}] — server counters.
    - [{"req": "ping"}] — liveness probe.

    [id] is any JSON value and is echoed verbatim in the response, so a
    pipelining client can match answers to questions.  Only the first
    binding of a member counts; unknown members are ignored.

    One decoder serves every request line: {!decode} walks the line
    once with {!Jsonl}'s lexer, keeping only the members a request can
    carry and building no tree of the object, and the daemon, the
    router and the follower read the request, its spec and its
    coalesce key off the result.  {!of_json} (WAL records) fills the
    same record from a tree, so both share one set of field checks and
    error texts. *)

type spec = {
  ratio : Dmf.Ratio.t;
  demand : int;
  algorithm : Mixtree.Algorithm.t;
  scheduler : Mdst.Scheduler.t;
  mixers : int option;
  storage_limit : int option;
      (** When set, run the {!Mdst.Streaming} multi-pass engine under
          this storage budget instead of a single-pass schedule. *)
}

type kind =
  | Prepare of { spec : spec; key : string  (** [coalesce_key spec]. *) }
  | Stats
  | Ping

type t = { id : Jsonl.t option; kind : kind }

val coalesce_key : spec -> string
(** Canonical identity of a planning job {e ignoring demand}: requests
    for the same (ratio, algorithm, scheduler, Mc, q') coalesce into one
    job with summed demand (the paper's demand aggregation). *)

val cache_key_of : coalesce:string -> int -> string
(** [cache_key_of ~coalesce d] is the plan-cache key of demand [d]
    under coalesce key [coalesce]: the key plus ["|D=d"]. *)

val cache_key : spec -> string
(** {!coalesce_key} plus the demand — the plan-cache key. *)

val prepare : spec -> kind
(** [Prepare] with its coalesce key. *)

(** {2 Decoding} *)

type decoded
(** The first binding of each member a request can carry, and whether
    the value was an object at all. *)

val decode : string -> (decoded, string) result
(** Decode one protocol line in one pass.  [Error] only for a line that
    is not JSON, with {!Jsonl.of_string}'s exact message. *)

val decoded_id : decoded -> Jsonl.t option
(** The [id] to echo ([None] for a value that is not an object). *)

val decoded_req : decoded -> string option
(** The [req] member when it is a string. *)

val decoded_spec : decoded -> (spec * string, string) result
(** Validate the spec members (ratio, D, algorithm, scheduler, Mc,
    storage) via {!Validate}, ignoring [req], and return the spec with
    its coalesce key.  The router's [route] diagnostic carries the same
    members as a prepare. *)

val of_decoded : decoded -> (t, string) result
(** The request a decoded line makes, or why it is rejected. *)

val of_line : string -> (t, string) result
(** [decode] then {!of_decoded}. *)

val of_json : Jsonl.t -> (t, string) result
(** Decode and validate a request object given as a tree, with the
    checks and messages of {!of_line}. *)

val to_json : t -> Jsonl.t
(** Encode; [of_json (to_json r)] returns a request with an equal spec. *)
