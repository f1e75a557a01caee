(** Mixing-forest construction (Section 4.1).

    Given a base mixing tree of depth [d] and a demand [D], the forest
    [F = T1, T2, ..., T_ceil(D/2)] is built tree by tree.  [T1] is the
    full base tree; every later component tree re-uses the spare droplets
    (port 1) left behind by earlier trees wherever a droplet of the needed
    value is available, and only recomputes the missing subtrees.  Each
    component tree contributes two target droplets at its root.

    With [sharing] enabled (the MTCS execution model), spare droplets
    become available immediately, so a tree can also feed itself; without
    it, spares are committed to the pool only once their tree is complete,
    matching the paper's figures where re-use happens strictly across
    trees. *)

val of_tree :
  ?reserves:Dmf.Mixture.t array ->
  ratio:Dmf.Ratio.t ->
  demand:int ->
  sharing:bool ->
  Mixtree.Tree.t ->
  Plan.t
(** [of_tree ~ratio ~demand ~sharing tree] grows the forest from [tree].
    [reserves] seeds the droplet pool with pre-existing stored droplets
    (available from the very first component tree) — the salvaged
    droplets of an error-recovery run ({!Recovery}).
    @raise Invalid_argument if [demand < 1] or [tree] does not realise
    [ratio]. *)

val build :
  algorithm:Mixtree.Algorithm.t -> ratio:Dmf.Ratio.t -> demand:int -> Plan.t
(** [build ~algorithm ~ratio ~demand] constructs the base tree with
    [algorithm] and grows the forest, with intra-pass sharing iff the
    algorithm calls for it ({!Mixtree.Algorithm.intra_pass_sharing}).
    Nothing is kept between calls: the tree and the forest are built
    afresh, the forest in time linear in its node count. *)

val build_multi :
  algorithm:Mixtree.Algorithm.t ->
  (Dmf.Ratio.t * int) list ->
  Plan.t
(** [build_multi ~algorithm [(r1, d1); (r2, d2); ...]] prepares several
    target mixtures over the same fluid universe in one combined forest,
    sharing the droplet pool {e across} targets — the reagent-saving
    multiple-target mode (SDMT/MDMT of Table 1, in the spirit of RSM
    [25]).  Component trees of every target appear in request order; use
    {!Plan.root_value} to identify which target a root emits.
    @raise Invalid_argument if the list is empty, a demand is non-positive
    or the ratios disagree on the number of fluids. *)

val repeated :
  algorithm:Mixtree.Algorithm.t -> ratio:Dmf.Ratio.t -> demand:int -> Plan.t
(** [repeated ~algorithm ~ratio ~demand] is the no-reuse plan of the
    repeated baselines (RMM / RRMA / RMTCS): [ceil (demand / 2)]
    independent passes of the base tree, every spare droplet wasted
    (shared within a pass for MTCS, never across passes).  Built afresh
    on every call, like {!build}. *)
