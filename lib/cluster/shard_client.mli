(** Pipelined TCP client for one dmfd shard, with bounded-retry
    reconnection.

    The daemon answers each connection strictly in request order, so
    the client matches responses to requests by FIFO position: {!send}
    appends a continuation and writes the raw request line; a reader
    thread resolves one continuation per response line.

    Failure is always bounded and never silent: a dead shard (connect
    refused, write error, EOF after a [kill -9]) resolves every
    outstanding continuation with [None], retries the connection at
    most [retries] more times with [backoff_ms] pauses on the next
    send, and then fails fast for [cooldown_ms] before probing again.
    No continuation is ever dropped and no caller ever blocks
    unboundedly on a dead shard. *)

type config = {
  host : string;
  port : int;
  retries : int;  (** Extra connect attempts per send while down. *)
  backoff_ms : float;  (** Pause between connect attempts. *)
  cooldown_ms : float;
      (** Fail-fast window after the retry budget is spent. *)
}

val default_config : host:string -> port:int -> config
(** 3 retries, 50 ms backoff, 1 s cooldown. *)

type t

type stats = {
  addr : string;  (** ["host:port"]. *)
  healthy : bool;  (** Connected, or never probed and not cooling down. *)
  sent : int;  (** Request lines written. *)
  answered : int;  (** Response lines matched back. *)
  failed : int;  (** Continuations resolved with [None]. *)
  connects : int;  (** Successful connection establishments. *)
}

val create : config -> t
(** No connection is opened until the first {!send}. *)

val addr : t -> string

val send : t -> string -> (string option -> unit) -> unit
(** [send t line k] forwards one raw protocol line and eventually calls
    [k (Some response_line)] — or [k None] if the shard is or becomes
    unreachable.  [k] is called exactly once, possibly before [send]
    returns (fail-fast path), from this or the reader thread; it must
    not call back into [t]. *)

val healthy : t -> bool

val stats : t -> stats

val close : t -> unit
(** Fail outstanding continuations and refuse further sends.  The
    connection's socket is shut down at once, so the shard reads EOF;
    its reader thread then closes the descriptor. *)
