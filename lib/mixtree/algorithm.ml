type t = MM | RMA | MTCS | RSM

let all = [ MM; RMA; RSM; MTCS ]

let build = function
  | MM -> Minmix.build
  | RMA -> Rma.build
  | MTCS -> Mtcs.build
  | RSM -> Rsm.build

let intra_pass_sharing = function
  | MTCS -> true
  | MM | RMA | RSM -> false

let name = function
  | MM -> "MM"
  | RMA -> "RMA"
  | MTCS -> "MTCS"
  | RSM -> "RSM"

let of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "MM" -> Some MM
  | "RMA" -> Some RMA
  | "MTCS" -> Some MTCS
  | "RSM" -> Some RSM
  | _ -> None

let pp ppf t = Format.pp_print_string ppf (name t)
