(* Independent checkers for what the program under test produces.

   They re-derive every claim from first principles with the
   benchmark's own arithmetic: concentrations are dyadic fractions held
   as integer numerators over 2^40, recomputed from the node sources
   (never through Dmf.Mixture or Plan.validate); storage occupancy is
   re-counted from the cycle assignment (never through Storage.units);
   a daemon's answer is checked against identities every correct plan
   obeys.  Each checker takes a plain view that a test can corrupt. *)

type source = Input of int | Output of int * int | Reserve

type node = { left : source; right : source }

type plan = {
  parts : int array;  (** Target ratio parts; concentrations are part / sum. *)
  demand : int;
  nodes : node array;  (** In plan order. *)
  roots : int list;
}

type plan_claims = {
  tms : int;
  waste : int;
  input_total : int;
  inputs : int array;
  trees : int;
}

let source_of = function
  | Mdst.Plan.Input f -> Input (Dmf.Fluid.index f)
  | Mdst.Plan.Output { node; port } -> Output (node, port)
  | Mdst.Plan.Reserve _ -> Reserve

let plan_of (p : Mdst.Plan.t) =
  {
    parts = Dmf.Ratio.parts (Mdst.Plan.ratio p);
    demand = Mdst.Plan.demand p;
    nodes =
      Array.init (Mdst.Plan.n_nodes p) (fun i ->
          let n = Mdst.Plan.node p i in
          {
            left = source_of n.Mdst.Plan.left;
            right = source_of n.Mdst.Plan.right;
          });
    roots = Mdst.Plan.roots p;
  }

let claims_of (p : Mdst.Plan.t) =
  {
    tms = Mdst.Plan.tms p;
    waste = Mdst.Plan.waste p;
    input_total = Mdst.Plan.input_total p;
    inputs = Mdst.Plan.input_vector p;
    trees = Mdst.Plan.trees p;
  }

let scale_bits = 40

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let guard f = try f (); Ok () with Bad msg -> Error msg

let ceil_div a b = (a + b - 1) / b

let check_plan (p : plan) (c : plan_claims) =
  guard (fun () ->
      let n = Array.length p.nodes in
      let nf = Array.length p.parts in
      let total = Array.fold_left ( + ) 0 p.parts in
      if n = 0 then bad "empty plan";
      if total <= 0 then bad "empty ratio";
      let trees = List.length p.roots in
      if trees <> c.trees then bad "|F| claimed %d, plan has %d roots" c.trees trees;
      if trees <> ceil_div p.demand 2 then
        bad "%d trees for demand %d (want ceil(D/2) = %d)" trees p.demand
          (ceil_div p.demand 2);
      let is_root = Array.make n false in
      List.iter
        (fun r ->
          if r < 0 || r >= n then bad "root %d out of range" r;
          if is_root.(r) then bad "root %d listed twice" r;
          is_root.(r) <- true)
        p.roots;
      let consumed = Array.make (2 * n) false in
      let inputs = Array.make nf 0 in
      let values = Array.make n [||] in
      let one = 1 lsl scale_bits in
      let value_of i = function
        | Input f ->
          if f < 0 || f >= nf then bad "node %d draws unknown fluid %d" i f;
          inputs.(f) <- inputs.(f) + 1;
          Array.init nf (fun g -> if g = f then one else 0)
        | Output (j, port) ->
          if j < 0 || j >= i then bad "node %d consumes later node %d" i j;
          if port <> 0 && port <> 1 then bad "node %d reads port %d" i port;
          if is_root.(j) then bad "node %d consumes a target droplet of root %d" i j;
          if consumed.((2 * j) + port) then
            bad "droplet (%d, %d) consumed twice" j port;
          consumed.((2 * j) + port) <- true;
          values.(j)
        | Reserve -> bad "node %d reads a reserve droplet" i
      in
      Array.iteri
        (fun i nd ->
          let a = value_of i nd.left and b = value_of i nd.right in
          values.(i) <-
            Array.init nf (fun f ->
                let s = a.(f) + b.(f) in
                if s land 1 <> 0 then bad "node %d mixes to a non-dyadic value" i;
                s / 2))
        p.nodes;
      List.iter
        (fun r ->
          Array.iteri
            (fun f v ->
              if v * total <> p.parts.(f) * one then
                bad "root %d: fluid %d concentration %d/2^%d, want %d/%d" r f v
                  scale_bits p.parts.(f) total)
            values.(r))
        p.roots;
      let used = Array.fold_left (fun k b -> if b then k + 1 else k) 0 consumed in
      let waste = (2 * n) - used - (2 * trees) in
      let input_total = Array.fold_left ( + ) 0 inputs in
      if c.tms <> n then bad "Tms claimed %d, plan has %d mixes" c.tms n;
      if c.waste <> waste then bad "W claimed %d, recount %d" c.waste waste;
      if c.input_total <> input_total then
        bad "I claimed %d, recount %d" c.input_total input_total;
      if c.inputs <> inputs then bad "I[] differs from the recount";
      if input_total <> (2 * trees) + waste then
        bad "conservation: I = %d but 2|F| + W = %d" input_total
          ((2 * trees) + waste))

type schedule = {
  mixers : int;
  cycle : int array;  (** Per node, 1-based. *)
  mixer : int array;  (** Per node, 1-based. *)
  tc : int;  (** Claimed completion time. *)
}

let schedule_of (p : Mdst.Plan.t) (s : Mdst.Schedule.t) =
  let n = Mdst.Plan.n_nodes p in
  {
    mixers = Mdst.Schedule.mixers s;
    cycle = Array.init n (Mdst.Schedule.cycle s);
    mixer = Array.init n (Mdst.Schedule.mixer s);
    tc = Mdst.Schedule.completion_time s;
  }

(* Peak number of droplets parked between their producer's cycle and
   their consumer's cycle (Algorithm 3's storage units). *)
let storage_units (p : plan) (s : schedule) =
  let tc = Array.fold_left max 0 s.cycle in
  let occ = Array.make (tc + 2) 0 in
  Array.iteri
    (fun i nd ->
      List.iter
        (function
          | Output (j, _) ->
            for t = s.cycle.(j) + 1 to s.cycle.(i) - 1 do
              occ.(t) <- occ.(t) + 1
            done
          | Input _ | Reserve -> ())
        [ nd.left; nd.right ])
    p.nodes;
  Array.fold_left max 0 occ

let check_schedule (p : plan) (s : schedule) ~q =
  guard (fun () ->
      let n = Array.length p.nodes in
      if Array.length s.cycle <> n || Array.length s.mixer <> n then
        bad "schedule covers %d nodes, plan has %d" (Array.length s.cycle) n;
      if s.mixers < 1 then bad "Mc = %d" s.mixers;
      let busy = Hashtbl.create n in
      Array.iteri
        (fun i nd ->
          let t = s.cycle.(i) and m = s.mixer.(i) in
          if t < 1 then bad "node %d at cycle %d" i t;
          if m < 1 || m > s.mixers then bad "node %d on mixer %d of %d" i m s.mixers;
          if Hashtbl.mem busy (t, m) then bad "mixer %d runs two mixes at cycle %d" m t;
          Hashtbl.add busy (t, m) ();
          List.iter
            (function
              | Output (j, _) ->
                if s.cycle.(j) >= t then
                  bad "node %d at cycle %d precedes its producer %d at cycle %d" i
                    t j s.cycle.(j)
              | Input _ | Reserve -> ())
            [ nd.left; nd.right ])
        p.nodes;
      let tc = Array.fold_left max 0 s.cycle in
      if tc <> s.tc then bad "Tc claimed %d, last mix at cycle %d" s.tc tc;
      (* The longest producer-to-consumer chain: no schedule beats it. *)
      let chain = Array.make n 1 in
      Array.iteri
        (fun i nd ->
          List.iter
            (function
              | Output (j, _) -> chain.(i) <- max chain.(i) (chain.(j) + 1)
              | Input _ | Reserve -> ())
            [ nd.left; nd.right ])
        p.nodes;
      let depth = Array.fold_left max 0 chain in
      let floor = max depth (ceil_div n s.mixers) in
      if tc < floor then bad "Tc = %d below the bound max(d, ceil(Tms/Mc)) = %d" tc floor;
      let units = storage_units p s in
      if units <> q then bad "q claimed %d, recount %d" q units)

(* What a daemon reports about one prepare. *)
type summary = {
  demand : int;
  batch_demand : int;
  mixers : int;
  tc : int;
  q : int;
  tms : int;
  waste : int;
  input_total : int;
  trees : int;
  passes : int;
  within_limit : bool;
}

let summary_of_json j =
  let i k = Json.int [ k ] j in
  match
    ( i "D", i "batch_D", i "Mc", i "Tc", i "q", i "Tms", i "W", i "I",
      i "trees", i "passes", Json.bool [ "within_limit" ] j )
  with
  | ( Some demand, Some batch_demand, Some mixers, Some tc, Some q, Some tms,
      Some waste, Some input_total, Some trees, Some passes, Some within_limit )
    ->
    Ok
      {
        demand;
        batch_demand;
        mixers;
        tc;
        q;
        tms;
        waste;
        input_total;
        trees;
        passes;
        within_limit;
      }
  | _ -> Error "response lacks a summary field"

(* [storage] is the q' budget the request asked for, if any.  The tree
   count holds per pass too: every pass but the last produces an even
   D', so the passes' ceil(D_i / 2) sum to ceil(batch_D / 2). *)
let check_summary ?storage (s : summary) =
  guard (fun () ->
      if s.demand < 1 || s.batch_demand < s.demand then
        bad "D = %d within a batch of %d" s.demand s.batch_demand;
      if s.trees <> ceil_div s.batch_demand 2 then
        bad "trees = %d, want ceil(batch_D/2) = %d" s.trees
          (ceil_div s.batch_demand 2);
      if s.input_total <> (2 * s.trees) + s.waste then
        bad "I = %d, want 2 trees + W = %d" s.input_total ((2 * s.trees) + s.waste);
      if s.mixers < 1 || s.tms < s.trees then bad "Mc = %d, Tms = %d" s.mixers s.tms;
      if s.tc < ceil_div s.tms s.mixers then
        bad "Tc = %d below ceil(Tms/Mc) = %d" s.tc (ceil_div s.tms s.mixers);
      match storage with
      | None -> if s.passes <> 1 then bad "%d passes without a storage budget" s.passes
      | Some q' ->
        if s.passes < 1 then bad "%d passes" s.passes;
        if s.within_limit && s.q > q' then bad "q = %d over the budget q' = %d" s.q q')

let summary_of_metrics ~demand (m : Mdst.Metrics.t) =
  {
    demand;
    batch_demand = m.Mdst.Metrics.demand;
    mixers = m.Mdst.Metrics.mixers;
    tc = m.Mdst.Metrics.tc;
    q = m.Mdst.Metrics.q;
    tms = m.Mdst.Metrics.tms;
    waste = m.Mdst.Metrics.waste;
    input_total = m.Mdst.Metrics.input_total;
    trees = m.Mdst.Metrics.trees;
    passes = m.Mdst.Metrics.passes;
    within_limit = true;
  }

(* The fields a re-plan must reproduce exactly: everything but the
   waiter's own demand. *)
let same_plan (a : summary) (b : summary) =
  a.batch_demand = b.batch_demand && a.mixers = b.mixers && a.tc = b.tc
  && a.q = b.q && a.tms = b.tms && a.waste = b.waste
  && a.input_total = b.input_total && a.trees = b.trees && a.passes = b.passes
  && a.within_limit = b.within_limit
