(** CRC-32 (the IEEE 802.3 polynomial, reflected: 0xEDB88320) over
    bytes — the per-record integrity check of the write-ahead log, the
    snapshots and the plan store.

    A torn write (the process or the machine died mid-[write]) leaves a
    record whose bytes parse as a prefix of valid JSON or not at all;
    either way the stored checksum no longer matches the recomputed one
    and {!Durable.Replay} truncates the journal there.  The well-known check
    value is [string "123456789" = 0xCBF43926]. *)

val string : string -> int
(** Checksum of a whole string; the result is in [0, 0xFFFFFFFF]. *)

val sub : string -> pos:int -> len:int -> int
(** Checksum of a substring.
    @raise Invalid_argument if the range is out of bounds. *)
