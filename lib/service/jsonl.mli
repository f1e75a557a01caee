(** Minimal newline-delimited JSON codec for the preparation server.

    The service protocol is one JSON object per line over a byte stream
    (stdin/stdout or a TCP socket), so the codec only needs single-line
    rendering and a strict parser — hand-rolled on the stdlib because the
    switch carries no JSON library.

    One reader, one lexer, one printer:
    - {!read_line} is the only line reader of the daemons, the router,
      replication and WAL replay;
    - the lexer behind {!of_string} also drives one-pass decoders
      ({!decode}, {!members}) that pick a few members out of an object
      without building its tree — [Request] decodes every request line
      this way;
    - the [write_*] printers append to a caller's [Buffer], so an
      encoder can splice pre-encoded bytes ([Response] keeps the
      invariant bytes of each plan's answer) around them.

    Integers and floats are kept apart: a number without fraction or
    exponent parses as {!Int}, everything else as {!Float}.  Floats are
    printed with enough digits to round-trip exactly, so
    [of_string (to_string v)] returns a value {!equal} to [v] for every
    finite [v]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line rendering (no newline).  Control characters in strings
    are escaped as [\u00XX].
    @raise Invalid_argument on a non-finite float, which JSON cannot
    represent. *)

val write : Buffer.t -> t -> unit
(** Append {!to_string}'s rendering. *)

val write_string : Buffer.t -> string -> unit
(** Append a string literal, escaped as {!to_string} escapes it. *)

val write_int : Buffer.t -> int -> unit

val write_float : Buffer.t -> float -> unit
(** Append a float literal exactly as {!to_string} prints [Float f].
    @raise Invalid_argument on a non-finite float. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. *)

(** {2 One-pass decoding}

    {!of_string} is [decode s value].  A decoder that needs only some
    members of an object walks it with {!members}, reading the values
    it wants with {!value} and passing over the rest with {!skip}: the
    whole input is still checked against the same grammar, so every
    malformed input fails with the exact message and offset
    {!of_string} reports. *)

type cursor
(** A position in the input being decoded. *)

val decode : string -> (cursor -> 'a) -> ('a, string) result
(** [decode s f] runs [f] at the start of [s], then requires only
    whitespace to remain.  [f] must consume exactly one value. *)

val value : cursor -> t
(** Parse the next value into a tree. *)

val skip : cursor -> unit
(** Check the next value and keep nothing of it. *)

val members : cursor -> (string -> unit) -> bool
(** If the next value is an object, call [f k] for each member in
    order, with the cursor at the member's value, which [f] must
    consume with {!value} or {!skip}; return [true].  Otherwise skip
    the value and return [false]. *)

val equal : t -> t -> bool
(** Structural equality; object key order is significant (the codec
    preserves it), and NaN equals NaN. *)

val pp : Format.formatter -> t -> unit
(** Human-oriented multi-line rendering (the [client] subcommand's
    pretty-printer). *)

(** {2 Bounded line reading}

    NDJSON consumers (the server's reader thread, WAL replay) must not
    let one malformed line exhaust memory, and must distinguish a
    complete final line from one whose trailing newline never made it
    to disk — the torn-tail case crash recovery truncates at. *)

type line =
  | Line of string  (** A complete, newline-terminated line. *)
  | Tail of string
      (** The final line of the stream, not newline-terminated: input
          ended mid-line (truncated file, torn journal write). *)
  | Oversized of int
      (** The line exceeded the byte bound; its full length is
          reported and the stream is positioned after it (or at end of
          input), so the caller can reject and keep reading. *)
  | Eof

val max_line_bytes : int
(** Default bound: 1 MiB, far above any protocol line. *)

val read_line : ?max_bytes:int -> in_channel -> line
(** Read one line (newline not included).  Unlike
    {!Stdlib.input_line}, never keeps more than [max_bytes] of the line
    and never conflates a truncated final line with a complete one.
    Lines are cut out of the channel's own buffer (the scan behind
    {!Stdlib.input_line}), so [pos_in] after each result is the offset
    just past the line and its newline, which WAL replay relies on to
    find a torn tail. *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the first binding of [k]; [None] on other
    constructors. *)

val to_int : t -> int option

val to_float : t -> float option
(** Accepts both [Int] and [Float]. *)

val to_bool : t -> bool option
val to_str : t -> string option
val to_list : t -> t list option
