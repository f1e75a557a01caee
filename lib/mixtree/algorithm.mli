(** The four base mixing algorithms of the literature (Table 1).

    Each algorithm turns a target ratio into a base mixing tree of depth
    at most [d]; the MDST engine then grows a mixing forest from that
    tree.  MTCS additionally executes with intra-pass droplet sharing
    (identical intermediate mixtures computed once per pass). *)

type t =
  | MM  (** Min-Mix, Thies et al. [24]. *)
  | RMA  (** Layout-aware, Roy et al. [18] — most waste, best streaming seed. *)
  | MTCS  (** Mix-split minimising, Kumar et al. [16]. *)
  | RSM  (** Reagent-saving, Hsieh et al. [25]. *)

val all : t list
(** All algorithms, in the paper's citation order. *)

val build : t -> Dmf.Ratio.t -> Tree.t
(** [build algo r] is the base mixing tree of [algo] for [r].  The result
    always satisfies [Tree.validate ~ratio:r].  Each call builds the tree
    afresh; nothing is kept between calls. *)

val intra_pass_sharing : t -> bool
(** Whether a stand-alone pass of the algorithm shares identical
    intermediate droplets ([true] only for MTCS). *)

val name : t -> string
val of_string : string -> t option
val pp : Format.formatter -> t -> unit
