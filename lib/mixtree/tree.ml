type t =
  | Leaf of Dmf.Fluid.t
  | Mix of t * t

let rec depth = function
  | Leaf _ -> 0
  | Mix (a, b) -> 1 + max (depth a) (depth b)

let rec internal_count = function
  | Leaf _ -> 0
  | Mix (a, b) -> 1 + internal_count a + internal_count b

let rec leaf_count = function
  | Leaf _ -> 1
  | Mix (a, b) -> leaf_count a + leaf_count b

let waste_count t = max 0 (internal_count t - 1)

let input_vector ~n t =
  let counts = Array.make n 0 in
  let rec walk = function
    | Leaf f ->
      let i = Dmf.Fluid.index f in
      if i >= n then invalid_arg "Tree.input_vector: fluid out of range";
      counts.(i) <- counts.(i) + 1
    | Mix (a, b) ->
      walk a;
      walk b
  in
  walk t;
  counts

let rec value ~n = function
  | Leaf f -> Dmf.Mixture.pure ~n f
  | Mix (a, b) -> Dmf.Mixture.mix (value ~n a) (value ~n b)

type annotated = { value : Dmf.Mixture.t; depth : int; shape : shape }
and shape = Pure of Dmf.Fluid.t | Mixed of annotated * annotated

let rec annotate ~n = function
  | Leaf f -> { value = Dmf.Mixture.pure ~n f; depth = 0; shape = Pure f }
  | Mix (a, b) ->
    let a = annotate ~n a and b = annotate ~n b in
    {
      value = Dmf.Mixture.mix a.value b.value;
      depth = 1 + max a.depth b.depth;
      shape = Mixed (a, b);
    }

let validate ~ratio t =
  let n = Dmf.Ratio.n_fluids ratio in
  let d = Dmf.Ratio.accuracy ratio in
  if depth t > d then
    Error
      (Printf.sprintf "tree depth %d exceeds accuracy level %d" (depth t) d)
  else
    let got = value ~n t in
    let want = Dmf.Mixture.of_ratio ratio in
    if Dmf.Mixture.equal got want then Ok ()
    else
      Error
        (Printf.sprintf "root value %s differs from target %s"
           (Dmf.Mixture.to_string got)
           (Dmf.Mixture.to_string want))

let subtrees_by_level ~d t =
  let rec walk level t acc =
    match t with
    | Leaf _ -> (level, t) :: acc
    | Mix (a, b) -> (level, t) :: walk (level - 1) a (walk (level - 1) b acc)
  in
  walk d t []

let rec equal a b =
  match (a, b) with
  | Leaf f, Leaf g -> Dmf.Fluid.equal f g
  | Mix (a1, a2), Mix (b1, b2) -> equal a1 b1 && equal a2 b2
  | Leaf _, Mix _ | Mix _, Leaf _ -> false

let pp ?names ppf t =
  let name f =
    match names with
    | Some names when Dmf.Fluid.index f < Array.length names ->
      names.(Dmf.Fluid.index f)
    | Some _ | None -> Dmf.Fluid.default_name f
  in
  let rec render prefix child_prefix ppf = function
    | Leaf f -> Format.fprintf ppf "%s%s@," prefix (name f)
    | Mix (a, b) ->
      Format.fprintf ppf "%smix@," prefix;
      render (child_prefix ^ "|-- ") (child_prefix ^ "|   ") ppf a;
      render (child_prefix ^ "`-- ") (child_prefix ^ "    ") ppf b
  in
  Format.fprintf ppf "@[<v>%a@]" (render "" "") t
