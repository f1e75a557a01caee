(* Handles are records of strings so that specs containing a scheduler
   stay structurally comparable; the policy (a first-class module, which
   polymorphic compare would choke on) lives in the registry and is
   looked up by name at dispatch time. *)
type t = { name : string; describe : string }

(* Registered schedulers in registration order, keyed by upper-cased
   name: an immutable list behind an atomic, so a lookup reads one
   snapshot and a registration swaps in a longer list. *)
let registry : (string * t * Sched_core.policy) list Atomic.t = Atomic.make []

let find key =
  List.find_opt (fun (k, _, _) -> String.equal k key) (Atomic.get registry)

let register ~name ~describe policy =
  if String.trim name = "" then
    invalid_arg "Scheduler.register: scheduler name cannot be empty";
  let key = String.uppercase_ascii name in
  let handle = { name; describe } in
  let rec add () =
    let entries = Atomic.get registry in
    if List.exists (fun (k, _, _) -> String.equal k key) entries then
      invalid_arg ("Scheduler.register: duplicate scheduler name " ^ name);
    if
      not
        (Atomic.compare_and_set registry entries
           (entries @ [ (key, handle, policy) ]))
    then add ()
  in
  add ();
  handle

let mms =
  register ~name:"MMS"
    ~describe:
      "M_Mixers_Schedule (Alg. 1): level-wise FIFO list scheduling, fastest \
       completion"
    Mms.policy

let srs =
  register ~name:"SRS"
    ~describe:
      "Storage_Reduced_Scheduling (Alg. 2): two priority queues, fewer \
       on-chip storage units"
    Srs.policy

let oms =
  register ~name:"OMS"
    ~describe:
      "critical-path (Hu) list scheduling: optimal on a single mixing tree; \
       the repeated-baseline scheduler"
    Oms.policy

let all () = List.map (fun (_, handle, _) -> handle) (Atomic.get registry)

let name t = t.name
let describe t = t.describe
let to_string t = t.name
let pp ppf t = Format.pp_print_string ppf t.name

let of_string s =
  match find (String.uppercase_ascii (String.trim s)) with
  | Some (_, handle, _) -> Ok handle
  | None ->
    let known = String.concat ", " (List.map (fun t -> t.name) (all ())) in
    Error (Printf.sprintf "unknown scheduler %s (%s)" s known)

let policy t =
  match find (String.uppercase_ascii t.name) with
  | Some (_, _, policy) -> policy
  | None -> invalid_arg ("Scheduler: unregistered scheduler " ^ t.name)

let schedule ?instr t ~plan ~mixers =
  Sched_core.run ?instr (policy t) ~plan ~mixers
