type stats = { mixes : int; inputs : int array; waste : int }

type recipe = {
  depth : int;  (* depth of the chosen subtree; the acyclicity measure *)
  children : (Dmf.Mixture.t * Dmf.Mixture.t) option;
      (* [None] for a pure input droplet. *)
  fluid : Dmf.Fluid.t option;
}

(* Record one construction recipe per distinct droplet value, keeping the
   shallowest subtree realising it (the first in pre-order among equally
   shallow ones).  Droplets of equal value are interchangeable, so any
   recipe is valid; choosing the minimum depth makes the recipe graph
   acyclic: an edge always points to a value whose chosen depth is
   strictly smaller. *)
let collect_recipes ~n tree =
  let rec record recipes (t : Tree.annotated) =
    let recipes =
      match Dmf.Mixture.Map.find_opt t.value recipes with
      | Some existing when existing.depth <= t.depth -> recipes
      | Some _ | None ->
        let children, fluid =
          match t.shape with
          | Pure f -> (None, Some f)
          | Mixed (a, b) -> (Some (a.value, b.value), None)
        in
        Dmf.Mixture.Map.add t.value { depth = t.depth; children; fluid } recipes
    in
    match t.shape with
    | Pure _ -> recipes
    | Mixed (a, b) -> record (record recipes a) b
  in
  let root = Tree.annotate ~n tree in
  (root.value, record Dmf.Mixture.Map.empty root)

let demand_stats ~n ~demand tree =
  if demand < 1 then invalid_arg "Sharing.demand_stats: demand must be >= 1";
  let root, recipes = collect_recipes ~n tree in
  (* Edges of the recipe graph strictly decrease the chosen depth, so
     processing values by decreasing depth propagates every use of a value
     before the value itself is expanded. *)
  let order =
    Dmf.Mixture.Map.bindings recipes
    |> List.sort (fun (va, ra) (vb, rb) ->
           match Int.compare rb.depth ra.depth with
           | 0 -> Dmf.Mixture.compare va vb
           | c -> c)
  in
  let uses = Hashtbl.create 64 in
  let add_use v k =
    let current = Option.value ~default:0 (Hashtbl.find_opt uses v) in
    Hashtbl.replace uses v (current + k)
  in
  add_use root demand;
  let mixes = ref 0 in
  let inputs = Array.make n 0 in
  let waste = ref 0 in
  List.iter
    (fun (v, recipe) ->
      let needed = Option.value ~default:0 (Hashtbl.find_opt uses v) in
      if needed > 0 then
        match recipe with
        | { children = None; fluid = Some f; depth = _ } ->
          inputs.(Dmf.Fluid.index f) <- inputs.(Dmf.Fluid.index f) + needed
        | { children = Some (a, b); fluid = _; depth = _ } ->
          let instances = Dmf.Binary.ceil_div needed 2 in
          mixes := !mixes + instances;
          waste := !waste + ((2 * instances) - needed);
          add_use a instances;
          add_use b instances
        | { children = None; fluid = None; depth = _ } -> assert false)
    order;
  { mixes = !mixes; inputs; waste = !waste }

let pass_stats ~n tree = demand_stats ~n ~demand:2 tree
