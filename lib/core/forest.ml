(* Local mirror of one instantiated component tree, used to assign the
   paper's breadth-first [m_ij] labels after the tree is complete. *)
type mirror = Mstop | Mnode of int * mirror * mirror

type builder = {
  mutable acc : Plan.node list;  (* reversed *)
  mutable count : int;
  mutable pool : Plan.source Queue.t Dmf.Mixture.Map.t;
}

let new_builder () = { acc = []; count = 0; pool = Dmf.Mixture.Map.empty }

let pool_take builder value =
  match Dmf.Mixture.Map.find_opt value builder.pool with
  | None -> None
  | Some queue -> if Queue.is_empty queue then None else Some (Queue.pop queue)

let pool_put builder value droplet =
  let queue =
    match Dmf.Mixture.Map.find_opt value builder.pool with
    | Some queue -> queue
    | None ->
      let queue = Queue.create () in
      builder.pool <- Dmf.Mixture.Map.add value queue builder.pool;
      queue
  in
  Queue.push droplet queue

(* Instantiate one component tree top-down: every needed droplet is taken
   from the pool when available, otherwise recomputed.  Returns the root
   node id.  With [sharing] the spare droplets are committed immediately
   (a tree may feed itself); otherwise they become available only to
   later trees. *)
let instantiate_tree builder ~sharing ~reuse ~tree_idx ~root_level root_ann =
  let first = builder.count in
  let spares = ref [] in
  let rec instantiate ~at_root (ann : Mixtree.Tree.annotated) level =
    match ann.shape with
    | Pure f -> (Plan.Input f, Mstop)
    | Mixed (a, b) -> (
      match
        if at_root || not reuse then None else pool_take builder ann.value
      with
      | Some source -> (source, Mstop)
      | None ->
        let left, mleft = instantiate ~at_root:false a (level - 1) in
        let right, mright = instantiate ~at_root:false b (level - 1) in
        let id = builder.count in
        builder.count <- id + 1;
        builder.acc <-
          {
            Plan.id;
            tree = tree_idx;
            level;
            bfs = 0;
            value = ann.value;
            left;
            right;
          }
          :: builder.acc;
        if not at_root then
          if sharing && reuse then
            pool_put builder ann.value (Plan.Output { node = id; port = 1 })
          else
            spares :=
              (ann.value, Plan.Output { node = id; port = 1 }) :: !spares;
        (Plan.Output { node = id; port = 0 }, Mnode (id, mleft, mright)))
  in
  let root_source, mirror = instantiate ~at_root:true root_ann root_level in
  let root_id =
    match root_source with
    | Plan.Output { node; port = 0 } -> node
    | Plan.Output _ | Plan.Input _ | Plan.Reserve _ ->
      invalid_arg "Forest: a component tree must contain at least one mix"
  in
  (* Commit this tree's spare droplets for use by later trees. *)
  if reuse && not sharing then
    List.iter (fun (value, droplet) -> pool_put builder value droplet) !spares;
  (* Assign the breadth-first m_ij labels of this component tree.  Its
     nodes hold the ids [first, builder.count), at the head of [acc]. *)
  let labels = Array.make (builder.count - first) 0 in
  let queue = Queue.create () in
  Queue.push mirror queue;
  let j = ref 0 in
  while not (Queue.is_empty queue) do
    match Queue.pop queue with
    | Mstop -> ()
    | Mnode (id, l, r) ->
      incr j;
      labels.(id - first) <- !j;
      Queue.push l queue;
      Queue.push r queue
  done;
  let rec relabel fresh = function
    | node :: older when node.Plan.id >= first ->
      relabel ({ node with Plan.bfs = labels.(node.Plan.id - first) } :: fresh)
        older
    | older -> List.rev_append fresh older
  in
  builder.acc <- relabel [] builder.acc;
  root_id

let finish ?reserves builder ~ratio ~demand ~roots ~root_values =
  Plan.create_multi ?reserves ~ratio ~demand
    ~nodes:(Array.of_list (List.rev builder.acc))
    ~roots:(Array.of_list (List.rev roots))
    ~root_values:(Array.of_list (List.rev root_values))
    ()

let grow ?(reserves = [||]) ~ratio ~demand ~sharing ~reuse tree =
  if demand < 1 then invalid_arg "Forest: demand must be >= 1";
  (match Mixtree.Tree.validate ~ratio tree with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Forest: invalid base tree: " ^ msg));
  let n = Dmf.Ratio.n_fluids ratio in
  let d = Dmf.Ratio.accuracy ratio in
  let root_ann = Mixtree.Tree.annotate ~n tree in
  let builder = new_builder () in
  (* Pre-existing stored droplets are available from the start. *)
  Array.iteri
    (fun i value -> pool_put builder value (Plan.Reserve i))
    reserves;
  let trees_needed = Dmf.Binary.ceil_div demand 2 in
  let roots = ref [] and root_values = ref [] in
  for tree_idx = 1 to trees_needed do
    let root =
      instantiate_tree builder ~sharing ~reuse ~tree_idx ~root_level:d root_ann
    in
    roots := root :: !roots;
    root_values := root_ann.value :: !root_values
  done;
  finish ~reserves builder ~ratio ~demand ~roots:!roots
    ~root_values:!root_values

let of_tree ?reserves ~ratio ~demand ~sharing tree =
  grow ?reserves ~ratio ~demand ~sharing ~reuse:true tree

let build ~algorithm ~ratio ~demand =
  let tree = Mixtree.Algorithm.build algorithm ratio in
  let sharing = Mixtree.Algorithm.intra_pass_sharing algorithm in
  of_tree ~ratio ~demand ~sharing tree

let build_multi ~algorithm requests =
  (match requests with
  | [] -> invalid_arg "Forest.build_multi: no targets"
  | _ :: _ -> ());
  let n = Dmf.Ratio.n_fluids (fst (List.hd requests)) in
  List.iter
    (fun (ratio, demand) ->
      if Dmf.Ratio.n_fluids ratio <> n then
        invalid_arg "Forest.build_multi: targets use different fluid universes";
      if demand < 1 then invalid_arg "Forest.build_multi: demand must be >= 1")
    requests;
  let sharing = Mixtree.Algorithm.intra_pass_sharing algorithm in
  let builder = new_builder () in
  let roots = ref [] and root_values = ref [] in
  let tree_idx = ref 0 in
  let total_demand = ref 0 in
  List.iter
    (fun (ratio, demand) ->
      total_demand := !total_demand + demand;
      let tree = Mixtree.Algorithm.build algorithm ratio in
      (match Mixtree.Tree.validate ~ratio tree with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Forest.build_multi: " ^ msg));
      let root_ann = Mixtree.Tree.annotate ~n tree in
      let d = Dmf.Ratio.accuracy ratio in
      for _ = 1 to Dmf.Binary.ceil_div demand 2 do
        incr tree_idx;
        let root =
          instantiate_tree builder ~sharing ~reuse:true ~tree_idx:!tree_idx
            ~root_level:d root_ann
        in
        roots := root :: !roots;
        root_values := root_ann.value :: !root_values
      done)
    requests;
  finish builder
    ~ratio:(fst (List.hd requests))
    ~demand:!total_demand ~roots:!roots ~root_values:!root_values

let repeated ~algorithm ~ratio ~demand =
  let tree = Mixtree.Algorithm.build algorithm ratio in
  if Mixtree.Algorithm.intra_pass_sharing algorithm then
    (* MTCS shares droplets within one pass; concatenate independent
       copies of one shared pass. *)
    let pass = grow ~ratio ~demand:2 ~sharing:true ~reuse:true tree in
    let plans = List.init (Dmf.Binary.ceil_div demand 2) (fun _ -> pass) in
    (* Merge the independent pass plans into one, shifting ids. *)
    let nodes = ref [] and roots = ref [] and offset = ref 0 in
    let tree_offset = ref 0 in
    List.iter
      (fun p ->
        let shift_source = function
          | Plan.Input f -> Plan.Input f
          | Plan.Reserve _ as r -> r
          | Plan.Output { node; port } ->
            Plan.Output { node = node + !offset; port }
        in
        List.iter
          (fun node ->
            nodes :=
              {
                node with
                Plan.id = node.Plan.id + !offset;
                tree = node.Plan.tree + !tree_offset;
                left = shift_source node.Plan.left;
                right = shift_source node.Plan.right;
              }
              :: !nodes)
          (Plan.nodes p);
        List.iter (fun r -> roots := (r + !offset) :: !roots) (Plan.roots p);
        offset := !offset + Plan.n_nodes p;
        tree_offset := !tree_offset + Plan.trees p)
      plans;
    Plan.create ~ratio ~demand
      ~nodes:(Array.of_list (List.rev !nodes))
      ~roots:(Array.of_list (List.rev !roots))
  else grow ~ratio ~demand ~sharing:false ~reuse:false tree
