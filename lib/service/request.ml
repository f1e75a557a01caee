type spec = {
  ratio : Dmf.Ratio.t;
  demand : int;
  algorithm : Mixtree.Algorithm.t;
  scheduler : Mdst.Scheduler.t;
  mixers : int option;
  storage_limit : int option;
}

type kind = Prepare of { spec : spec; key : string } | Stats | Ping

type t = { id : Jsonl.t option; kind : kind }

let coalesce_key spec =
  let b = Buffer.create 64 in
  let add_int i = Buffer.add_string b (string_of_int i) in
  for i = 0 to Dmf.Ratio.n_fluids spec.ratio - 1 do
    if i > 0 then Buffer.add_char b ':';
    add_int (Dmf.Ratio.part spec.ratio i)
  done;
  Buffer.add_char b '|';
  Buffer.add_string b (Mixtree.Algorithm.name spec.algorithm);
  Buffer.add_char b '|';
  Buffer.add_string b (Mdst.Scheduler.name spec.scheduler);
  Buffer.add_string b "|Mc=";
  (match spec.mixers with Some m -> add_int m | None -> Buffer.add_string b "auto");
  Buffer.add_string b "|q'=";
  (match spec.storage_limit with
  | Some q -> add_int q
  | None -> Buffer.add_char b '-');
  Buffer.contents b

let cache_key_of ~coalesce demand = coalesce ^ "|D=" ^ string_of_int demand
let cache_key spec = cache_key_of ~coalesce:(coalesce_key spec) spec.demand
let prepare spec = Prepare { spec; key = coalesce_key spec }

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)

(* The first binding of every member a request can carry (later
   bindings of the same name are ignored, as [Jsonl.member] ignores
   them).  A request line fills it in one pass of Jsonl's lexer; a tree
   (a WAL record's spec) fills it from its bindings; the checks below
   read only this record, so both give the same answers and errors. *)
type decoded = {
  mutable obj : bool;  (** The value was an object. *)
  mutable id : Jsonl.t option;
  mutable req : Jsonl.t option;
  mutable ratio : Jsonl.t option;
  mutable demand : Jsonl.t option;
  mutable algorithm : Jsonl.t option;
  mutable scheduler : Jsonl.t option;
  mutable mixers : Jsonl.t option;
  mutable storage : Jsonl.t option;
}

let empty () =
  {
    obj = false;
    id = None;
    req = None;
    ratio = None;
    demand = None;
    algorithm = None;
    scheduler = None;
    mixers = None;
    storage = None;
  }

(* Replace the slot of member [key] by [f slot]; [false] for a member
   a request does not carry. *)
let update d key f =
  match key with
  | "id" -> d.id <- f d.id; true
  | "req" -> d.req <- f d.req; true
  | "ratio" -> d.ratio <- f d.ratio; true
  | "D" -> d.demand <- f d.demand; true
  | "algorithm" -> d.algorithm <- f d.algorithm; true
  | "scheduler" -> d.scheduler <- f d.scheduler; true
  | "Mc" -> d.mixers <- f d.mixers; true
  | "storage" -> d.storage <- f d.storage; true
  | _ -> false

let decode line =
  Jsonl.decode line (fun c ->
      let d = empty () in
      let first = function
        | None -> Some (Jsonl.value c)
        | Some _ as bound ->
          Jsonl.skip c;
          bound
      in
      d.obj <-
        Jsonl.members c (fun key -> if not (update d key first) then Jsonl.skip c);
      d)

let decoded_of_json json =
  let d = empty () in
  (match json with
  | Jsonl.Obj kvs ->
    d.obj <- true;
    List.iter
      (fun (k, v) ->
        ignore (update d k (function None -> Some v | Some _ as bound -> bound)))
      kvs
  | _ -> ());
  d

let decoded_id d = d.id

let decoded_req d =
  match d.req with Some (Jsonl.String s) -> Some s | Some _ | None -> None

(* The checks run on every request.  A rejection unwinds by exception,
   so an accepted request builds no [result] per field. *)
exception Rejected of string

let reject msg = raise (Rejected msg)
let checked = function Ok v -> v | Error msg -> reject msg

let field_str key = function
  | None -> None
  | Some (Jsonl.String s) -> Some s
  | Some _ -> reject (Printf.sprintf "field %S must be a string" key)

let field_int key = function
  | None | Some Jsonl.Null -> None
  | Some (Jsonl.Int i) -> Some i
  | Some _ -> reject (Printf.sprintf "field %S must be an integer" key)

let spec_of d =
  let ratio =
    match field_str "ratio" d.ratio with
    | Some s -> checked (Validate.ratio s)
    | None -> reject "prepare request needs a \"ratio\" field"
  in
  let demand =
    match field_int "D" d.demand with
    | Some v -> checked (Validate.demand v)
    | None -> reject "prepare request needs an integer \"D\" field"
  in
  let algorithm =
    match field_str "algorithm" d.algorithm with
    | Some s -> checked (Validate.algorithm s)
    | None -> Mixtree.Algorithm.MM
  in
  let scheduler =
    match field_str "scheduler" d.scheduler with
    | Some s -> checked (Validate.scheduler s)
    | None -> Mdst.Scheduler.srs
  in
  let mixers =
    Option.map (fun v -> checked (Validate.mixers v)) (field_int "Mc" d.mixers)
  in
  let storage_limit =
    Option.map
      (fun v -> checked (Validate.storage v))
      (field_int "storage" d.storage)
  in
  { ratio; demand; algorithm; scheduler; mixers; storage_limit }

let decoded_spec d =
  match spec_of d with
  | spec -> Ok (spec, coalesce_key spec)
  | exception Rejected msg -> Error msg

let of_decoded d =
  match
    if not d.obj then reject "request must be a JSON object";
    match field_str "req" d.req with
    | Some "prepare" ->
      let spec = spec_of d in
      Prepare { spec; key = coalesce_key spec }
    | Some "stats" -> Stats
    | Some "ping" -> Ping
    | Some other -> reject ("unknown request kind " ^ other)
    | None -> reject "request needs a \"req\" field (prepare, stats, ping)"
  with
  | kind -> Ok { id = d.id; kind }
  | exception Rejected msg -> Error msg

let of_line line = Result.bind (decode line) of_decoded

let of_json json = of_decoded (decoded_of_json json)

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let to_json { id; kind } =
  let id_field = match id with Some v -> [ ("id", v) ] | None -> [] in
  let fields =
    match kind with
    | Stats -> [ ("req", Jsonl.String "stats") ]
    | Ping -> [ ("req", Jsonl.String "ping") ]
    | Prepare { spec; _ } ->
      [
        ("req", Jsonl.String "prepare");
        ("ratio", Jsonl.String (Dmf.Ratio.to_string spec.ratio));
        ("D", Jsonl.Int spec.demand);
        ("algorithm", Jsonl.String (Mixtree.Algorithm.name spec.algorithm));
        ("scheduler", Jsonl.String (Mdst.Scheduler.name spec.scheduler));
      ]
      @ (match spec.mixers with
        | Some m -> [ ("Mc", Jsonl.Int m) ]
        | None -> [])
      @
      (match spec.storage_limit with
      | Some q -> [ ("storage", Jsonl.Int q) ]
      | None -> [])
  in
  Jsonl.Obj (fields @ id_field)
