(** Target mixture ratios.

    A target mixture [M] of [N >= 2] fluids is specified by an integer
    ratio [a1 : a2 : ... : aN] whose sum is the ratio-sum [L = 2^d], where
    [d] is the accuracy level: a depth-[d] mixing tree realises each
    concentration factor with error below [1 / 2^d] (Section 2.1 of the
    paper).  Every part is at least 1 — a fluid absent from the mixture is
    simply not listed. *)

type t
(** A validated target ratio. *)

val make : ?names:string array -> int array -> t
(** [make parts] validates and builds a ratio.
    @raise Invalid_argument if fewer than two parts are given, any part is
    [< 1], the sum is not a power of two, or [names] has a different length
    than [parts]. *)

val of_string : string -> t
(** [of_string "2:1:1:1:1:1:9"] parses the paper's colon-separated ratio
    notation.  @raise Invalid_argument on malformed input. *)

val parts : t -> int array
(** [parts r] is a fresh copy of the integer parts. *)

val part : t -> int -> int
(** [part r i] is [ai].  @raise Invalid_argument on out-of-range [i]. *)

val n_fluids : t -> int
(** [n_fluids r] is [N], the number of constituent fluids. *)

val sum : t -> int
(** [sum r] is the ratio-sum [L = 2^d]. *)

val accuracy : t -> int
(** [accuracy r] is the accuracy level [d] with [sum r = 2^d]. *)

val names : t -> string array
(** [names r] are the display names of the fluids ([x1 .. xN] by
    default). *)

val fluids : t -> Fluid.t list
(** [fluids r] is the list of fluid identifiers [x1; ...; xN]. *)

val equal : t -> t -> bool
(** Structural equality on the parts (names are ignored). *)

val compare : t -> t -> int
(** Total order on the parts (length first, then lexicographic); names
    are ignored, consistently with {!equal}. *)

val rescale : t -> d:int -> t
(** [rescale r ~d] re-approximates [r] on the scale [2^d] (see
    {!approximate}).  Useful to study the same protocol at several accuracy
    levels, as in Table 4 of the paper. *)

val approximate : ?names:string array -> d:int -> float array -> t
(** [approximate ~d percents] rounds a volumetric percentage vector (for
    instance the PCR master-mix [{10; 8; 0.8; 0.8; 1; 1; 78.4}]) to an
    integer ratio summing to [2^d], with every part at least 1, using the
    largest-remainder method.
    @raise Invalid_argument if any percentage is non-positive, or if there
    are more fluids than [2^d] parts available. *)

val approximation_error : t -> float array -> float
(** [approximation_error r percents] is the maximum absolute CF error
    [max_i |ai / 2^d - pi / sum p|] of [r] with respect to the exact
    percentage vector — below [1 / 2^d] when each ideal part is at least
    one (Section 2.1). *)

val to_string : t -> string
(** Colon-separated rendering of the parts, e.g. ["2:1:1:1:1:1:9"].
    Fluid names are left out, so equal ratios render equally. *)

val pp : Format.formatter -> t -> unit
