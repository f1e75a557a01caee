(* A builder that clusters same-fluid entries (the opposite bias of RMA's
   [balance_fluids]): identical sub-multisets then recur on both sides of
   the tree, creating duplicate intermediate values that sharing can
   exploit. *)
let rec build_clustered entries k =
  match entries with
  | [] -> invalid_arg "Mtcs: empty entry multiset"
  | [ { Entry.fluid; weight } ] ->
    assert (weight = Dmf.Binary.pow2 k);
    Tree.Leaf fluid
  | _ :: _ :: _ ->
    let half = Dmf.Binary.pow2 (k - 1) in
    let left, right = Entry.partition ~half entries in
    Tree.Mix (build_clustered left (k - 1), build_clustered right (k - 1))

let build r =
  let n = Dmf.Ratio.n_fluids r in
  let cost t =
    let stats = Sharing.pass_stats ~n t in
    (stats.Sharing.mixes, Array.fold_left ( + ) 0 stats.Sharing.inputs)
  in
  let minmix = Minmix.build r in
  let clustered = build_clustered (Entry.of_ratio r) (Dmf.Ratio.accuracy r) in
  if cost clustered < cost minmix then clustered else minmix
