type source =
  | Input of Dmf.Fluid.t
  | Output of { node : int; port : int }
  | Reserve of int

type node = {
  id : int;
  tree : int;
  level : int;
  bfs : int;
  value : Dmf.Mixture.t;
  left : source;
  right : source;
}

type t = {
  ratio : Dmf.Ratio.t;
  demand : int;
  nodes : node array;
  roots : int array;
  root_values : Dmf.Mixture.t array;  (* parallel to [roots] *)
  root_set : bool array;
  consumers : (int option * int option) array;
  reserve_values : Dmf.Mixture.t array;
  reserve_users : int option array;  (* consuming node per reserve *)
  succs : int array array;  (* consumer ids per node, port 0 before port 1 *)
  pred_counts : int array;  (* producing predecessors per node *)
}

let ratio p = p.ratio
let demand p = p.demand
let n_nodes p = Array.length p.nodes

let node p i =
  if i < 0 || i >= Array.length p.nodes then
    invalid_arg "Plan.node: id out of range";
  p.nodes.(i)

let nodes p = Array.to_list p.nodes
let is_root p i = p.root_set.(i)
let roots p = Array.to_list p.roots
let trees p = Array.length p.roots
let targets p = 2 * trees p

let root_value p r =
  let rec find i =
    if i >= Array.length p.roots then
      invalid_arg "Plan.root_value: not a root"
    else if p.roots.(i) = r then p.root_values.(i)
    else find (i + 1)
  in
  find 0

let consumer p ~node ~port =
  let first, second = p.consumers.(node) in
  match port with
  | 0 -> first
  | 1 -> second
  | _ -> invalid_arg "Plan.consumer: port must be 0 or 1"

let predecessors n =
  List.filter_map
    (function
      | Input _ | Reserve _ -> None
      | Output { node; port = _ } -> Some node)
    [ n.left; n.right ]

let pred_count p i =
  if i < 0 || i >= Array.length p.pred_counts then
    invalid_arg "Plan.pred_count: id out of range";
  p.pred_counts.(i)

let iter_successors p i f =
  if i < 0 || i >= Array.length p.succs then
    invalid_arg "Plan.iter_successors: id out of range";
  Array.iter f p.succs.(i)

(* A reserve droplet sits in a storage unit, so for SRS priorities it
   behaves like an internal child: stalling its consumer keeps the
   storage unit busy. *)
let child_kind _p n =
  let internal = function Output _ | Reserve _ -> true | Input _ -> false in
  match (internal n.left, internal n.right) with
  | true, true -> `Both_internal
  | true, false | false, true -> `One_internal
  | false, false -> `Both_leaves

let tms p = Array.length p.nodes

let input_vector p =
  let counts = Array.make (Dmf.Ratio.n_fluids p.ratio) 0 in
  let record = function
    | Input f ->
      let i = Dmf.Fluid.index f in
      counts.(i) <- counts.(i) + 1
    | Output _ | Reserve _ -> ()
  in
  Array.iter
    (fun n ->
      record n.left;
      record n.right)
    p.nodes;
  counts

let input_total p = Array.fold_left ( + ) 0 (input_vector p)

let waste p =
  let w = ref 0 in
  Array.iteri
    (fun i (first, second) ->
      if not p.root_set.(i) then begin
        if first = None then incr w;
        if second = None then incr w
      end)
    p.consumers;
  !w

let reserves p = Array.copy p.reserve_values

let reserve_consumed p i =
  if i < 0 || i >= Array.length p.reserve_users then
    invalid_arg "Plan.reserve_consumed: index out of range";
  p.reserve_users.(i) <> None

let consumed_reserves p =
  Array.fold_left
    (fun acc user -> if user = None then acc else acc + 1)
    0 p.reserve_users

let source_value p = function
  | Input f -> Dmf.Mixture.pure ~n:(Dmf.Ratio.n_fluids p.ratio) f
  | Output { node; port = _ } -> p.nodes.(node).value
  | Reserve i -> p.reserve_values.(i)

let validate p =
  let ( let* ) r f = Result.bind r f in
  (* A message is formatted only when its check fails: validation runs
     on every plan built or decoded, and almost every check passes. *)
  let check cond fmt =
    if cond then Format.ikfprintf (fun _ -> Ok ()) Format.str_formatter fmt
    else Format.kasprintf (fun s -> Error s) fmt
  in
  let rec each f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      each f rest
  in
  let* () = check (p.demand >= 1) "demand %d < 1" p.demand in
  let* () =
    check
      (2 * Array.length p.roots >= p.demand)
      "only %d targets for demand %d"
      (2 * Array.length p.roots)
      p.demand
  in
  let* () =
    each
      (fun n ->
        let* () = check (n.id >= 0 && n.id < n_nodes p) "node id %d out of range" n.id in
        let* () = check (p.nodes.(n.id) == n) "node %d misplaced" n.id in
        let* () =
          each
            (fun src ->
              match src with
              | Input _ -> Ok ()
              | Reserve i ->
                check
                  (i >= 0 && i < Array.length p.reserve_values)
                  "node %d: reserve %d out of range" n.id i
              | Output { node = producer; port } ->
                let* () =
                  check (port = 0 || port = 1) "node %d: bad port %d" n.id port
                in
                check
                  (producer >= 0 && producer < n.id)
                  "node %d consumes from node %d: not topologically ordered"
                  n.id producer)
            [ n.left; n.right ]
        in
        let expect =
          Dmf.Mixture.mix (source_value p n.left) (source_value p n.right)
        in
        check
          (Dmf.Mixture.equal expect n.value)
          "node %d: recorded value %a, recomputed %a" n.id Dmf.Mixture.pp
          n.value Dmf.Mixture.pp expect)
      (nodes p)
  in
  (* Every droplet consumed at most once, and consumer links match. *)
  let seen = Hashtbl.create 64 in
  let seen_reserves = Hashtbl.create 8 in
  let* () =
    each
      (fun n ->
        each
          (fun src ->
            match src with
            | Input _ -> Ok ()
            | Reserve i ->
              let* () =
                check
                  (not (Hashtbl.mem seen_reserves i))
                  "reserve %d consumed twice" i
              in
              Hashtbl.add seen_reserves i n.id;
              check
                (p.reserve_users.(i) = Some n.id)
                "reserve link of %d broken" i
            | Output { node = producer; port } ->
              let key = (producer, port) in
              let* () =
                check
                  (not (Hashtbl.mem seen key))
                  "droplet (%d, %d) consumed twice" producer port
              in
              Hashtbl.add seen key n.id;
              let* () =
                check
                  (not p.root_set.(producer))
                  "node %d consumes a target droplet of root %d" n.id producer
              in
              check
                (consumer p ~node:producer ~port = Some n.id)
                "consumer link of droplet (%d, %d) broken" producer port)
          [ n.left; n.right ])
      (nodes p)
  in
  let* () =
    check
      (Array.length p.root_values = Array.length p.roots)
      "plan has %d roots but %d root values"
      (Array.length p.roots)
      (Array.length p.root_values)
  in
  let* () =
    each
      (fun i ->
        let r = p.roots.(i) in
        check
          (Dmf.Mixture.equal p.nodes.(r).value p.root_values.(i))
          "root %d value %a differs from target %a" r Dmf.Mixture.pp
          p.nodes.(r).value Dmf.Mixture.pp p.root_values.(i))
      (List.init (Array.length p.roots) Fun.id)
  in
  let inputs = input_total p and used = consumed_reserves p in
  let targets = targets p and waste = waste p in
  check
    (inputs + used = targets + waste)
    "droplet conservation violated: I=%d, reserves used=%d, targets=%d, W=%d"
    inputs used targets waste

let create_multi ?(reserves = [||]) ~ratio ~demand ~nodes ~roots ~root_values
    () =
  let consumers = Array.make (Array.length nodes) (None, None) in
  let reserve_users = Array.make (Array.length reserves) None in
  Array.iter
    (fun n ->
      List.iter
        (function
          | Input _ -> ()
          | Reserve i ->
            if i < 0 || i >= Array.length reserves then
              invalid_arg "Plan.create: reserve index out of range";
            reserve_users.(i) <- Some n.id
          | Output { node = producer; port } ->
            let first, second = consumers.(producer) in
            let updated =
              match port with
              | 0 -> (Some n.id, second)
              | 1 -> (first, Some n.id)
              | _ -> invalid_arg "Plan.create: bad port"
            in
            consumers.(producer) <- updated)
        [ n.left; n.right ])
    nodes;
  let root_set = Array.make (Array.length nodes) false in
  Array.iter (fun r -> root_set.(r) <- true) roots;
  (* Successor/predecessor index for the event-driven schedulers: the
     port-0 consumer precedes the port-1 consumer, matching the order in
     which a launch releases its two output droplets. *)
  let succs =
    Array.map
      (fun (first, second) ->
        match (first, second) with
        | Some a, Some b -> [| a; b |]
        | Some a, None | None, Some a -> [| a |]
        | None, None -> [||])
      consumers
  in
  let pred_counts =
    Array.map (fun n -> List.length (predecessors n)) nodes
  in
  let p =
    { ratio; demand; nodes; roots; root_values; root_set; consumers;
      reserve_values = Array.copy reserves; reserve_users; succs;
      pred_counts }
  in
  match validate p with
  | Ok () -> p
  | Error msg -> invalid_arg ("Plan.create: " ^ msg)

let create ~ratio ~demand ~nodes ~roots =
  let target = Dmf.Mixture.of_ratio ratio in
  create_multi ~ratio ~demand ~nodes ~roots
    ~root_values:(Array.make (Array.length roots) target)
    ()

let pp_summary ppf p =
  let distinct_targets =
    Array.fold_left
      (fun acc v -> Dmf.Mixture.Set.add v acc)
      Dmf.Mixture.Set.empty p.root_values
    |> Dmf.Mixture.Set.cardinal
  in
  let target_label =
    if distinct_targets <= 1 then
      Format.asprintf "target %a (d=%d)" Dmf.Ratio.pp p.ratio
        (Dmf.Ratio.accuracy p.ratio)
    else Format.asprintf "%d distinct targets" distinct_targets
  in
  Format.fprintf ppf
    "@[<v>%s, demand %d:@ |F|=%d trees, Tms=%d, W=%d, I=%d, I[]=[%s]@]"
    target_label p.demand (trees p) (tms p) (waste p) (input_total p)
    (String.concat ";"
       (Array.to_list (Array.map string_of_int (input_vector p))))
