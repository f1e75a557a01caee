(** Canonical, versioned binary codec for plans and schedules.

    Everything the daemon caches per spec — the mixing-forest plan and
    its mixer schedule — can be rebuilt deterministically by re-planning
    (PR 5 relies on exactly that), but re-planning costs tree
    construction plus scheduling.  This codec gives the cheaper
    alternative: a {e canonical} byte encoding — the same value always
    encodes to the same bytes, so [encode (decode b) = b] and byte
    equality is value equality — that the content-addressed plan store
    ({!Durable.Plan_store}) persists across restarts and shares across
    shards.

    Decoding re-enters the ordinary constructors ({!Plan.create_multi},
    {!Schedule.create}), so every decoded value passes the full
    structural validation a freshly planned one does; a corrupt or
    truncated buffer yields [Error], never a malformed plan.

    Format: little-endian fixed-width integers, length-prefixed strings
    and arrays, one leading tag byte per value kind, all wrapped by the
    store in a CRC-guarded frame ({!Crc32}).  Any change to
    these bytes must bump {!version} — the pinned golden vectors in
    [test/test_plan_store.ml] exist to make silent drift impossible. *)

val version : int
(** Version of the canonical encoding.  Bump on {e any} byte-level
    change; the store treats entries of other versions as misses and
    falls back to re-planning. *)

(** Low-level wire primitives, exposed so the plan store can encode its
    records (spec keys, summaries, instrumentation counters) in the same
    canonical format. *)
module Wire : sig
  type writer

  val writer : unit -> writer
  val u8 : writer -> int -> unit
  val u32 : writer -> int -> unit
  (** @raise Invalid_argument outside [0, 0xFFFFFFFF]. *)

  val int64 : writer -> int64 -> unit
  val int : writer -> int -> unit
  (** Full native int, as its [Int64] image. *)

  val f64 : writer -> float -> unit
  (** IEEE-754 bits — exact round-trip for every float. *)

  val bool : writer -> bool -> unit
  val bytes : writer -> string -> unit
  (** u32 length prefix + raw bytes. *)

  val contents : writer -> string

  type reader

  exception Corrupt of string
  (** Raised by the [r_*] readers on truncation or malformed input;
      {!Plan_codec.decode_plan} and friends catch it and return
      [Error]. *)

  val reader : string -> reader
  val r_u8 : reader -> int
  val r_u32 : reader -> int
  val r_int64 : reader -> int64
  val r_int : reader -> int
  val r_f64 : reader -> float
  val r_bool : reader -> bool
  val r_bytes : reader -> string
  val expect_end : reader -> unit
  (** @raise Corrupt if bytes remain. *)
end

val encode_plan : Plan.t -> string
(** Canonical bytes of a plan: ratio (parts and names), demand,
    reserves, nodes, roots and root values. *)

val decode_plan : string -> (Plan.t, string) result
(** Rebuild a plan through {!Plan.create_multi} — full structural
    validation included. *)

val encode_schedule : plan:Plan.t -> Schedule.t -> string
(** Canonical bytes of a schedule: mixer count plus the per-node cycle
    and mixer assignments ([plan] supplies the node count — a schedule
    is meaningless without the plan it orders). *)

val decode_schedule : plan:Plan.t -> string -> (Schedule.t, string) result
(** Rebuild a schedule against its plan through {!Schedule.create} —
    precedence and double-booking re-checked. *)

val hash_hex : string -> string
(** Stable 128-bit content hash of arbitrary bytes as 32 lowercase hex
    characters — the store's entry name for the canonical bytes of the
    planning inputs.  Two independently seeded FNV-1a-64 lanes, each
    passed through the splitmix64 finalizer (the same mixing the
    cluster ring uses); stable across platforms and processes, never
    dependent on [Hashtbl.hash]. *)
