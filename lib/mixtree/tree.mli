(** Mixing trees.

    A mixing tree is the binary-tree representation of the (1:1) mix-split
    steps needed to prepare a target mixture from its constituent fluids
    (Section 2.1).  A leaf is a unit droplet of a pure input fluid; an
    internal node mixes the droplets produced by its two children and
    splits the result into two unit droplets — one consumed by the parent,
    the other discarded as waste (except at the root, where both droplets
    are targets).

    A leaf at depth [delta] contributes [2^-delta] of the final volume, so
    a tree of depth [d] realises ratios on the scale [2^d] exactly. *)

type t =
  | Leaf of Dmf.Fluid.t
  | Mix of t * t

val depth : t -> int
(** [depth t] is the length of the longest root-to-leaf path ([Leaf] has
    depth 0). *)

val internal_count : t -> int
(** [internal_count t] is the number of mix-split steps of one pass of the
    tree — the per-pass [Tms]. *)

val leaf_count : t -> int
(** [leaf_count t] is the number of input droplets of one pass. *)

val waste_count : t -> int
(** [waste_count t] is the number of waste droplets of one stand-alone
    pass: one per non-root internal node ([internal_count t - 1]); a bare
    leaf produces no waste. *)

val input_vector : n:int -> t -> int array
(** [input_vector ~n t] counts leaf droplets per fluid — the per-pass
    [I\[\]] over a universe of [n] fluids. *)

val value : n:int -> t -> Dmf.Mixture.t
(** [value ~n t] is the exact mixture value of the droplets emitted at the
    root of [t]. *)

(** A tree whose every subtree carries its {!value} and {!depth}. *)
type annotated = { value : Dmf.Mixture.t; depth : int; shape : shape }

and shape = Pure of Dmf.Fluid.t | Mixed of annotated * annotated

val annotate : n:int -> t -> annotated
(** [annotate ~n t] computes the value and depth of every subtree of [t]
    in one bottom-up pass, in time linear in the size of [t]. *)

val validate : ratio:Dmf.Ratio.t -> t -> (unit, string) result
(** [validate ~ratio t] checks that [t] realises [ratio]: the root value
    equals the target and the depth does not exceed the accuracy level. *)

val subtrees_by_level : d:int -> t -> (int * t) list
(** [subtrees_by_level ~d t] lists every subtree of [t] paired with its
    level in the paper's numbering (the root of the base tree is at level
    [d], its children at [d - 1], ...).  Leaves are included at their
    level. *)

val equal : t -> t -> bool

val pp : ?names:string array -> Format.formatter -> t -> unit
(** ASCII rendering of the tree structure with per-node values. *)
