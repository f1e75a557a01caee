type kind =
  | Accepted of Service.Request.spec
  | Completed of { spec : Service.Request.spec; requests : int; ok : bool }

let spec_to_json spec =
  Service.Request.to_json
    { Service.Request.id = None; kind = Service.Request.prepare spec }

let fields ~seq kind =
  match kind with
  | Accepted spec ->
    [
      ("seq", Service.Jsonl.Int seq);
      ("rec", Service.Jsonl.String "accepted");
      ("spec", spec_to_json spec);
    ]
  | Completed { spec; requests; ok } ->
    [
      ("seq", Service.Jsonl.Int seq);
      ("rec", Service.Jsonl.String "completed");
      ("spec", spec_to_json spec);
      ("requests", Service.Jsonl.Int requests);
      ("ok", Service.Jsonl.Bool ok);
    ]

let encode ~seq kind =
  let body = fields ~seq kind in
  let crc =
    Mdst.Crc32.string (Service.Jsonl.to_string (Service.Jsonl.Obj body))
  in
  Service.Jsonl.to_string
    (Service.Jsonl.Obj (body @ [ ("crc", Service.Jsonl.Int crc) ]))

let ( let* ) = Result.bind

let field name json =
  match Service.Jsonl.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "record is missing the %S field" name)

let int_field name json =
  let* v = field name json in
  match Service.Jsonl.to_int v with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "record field %S must be an integer" name)

let spec_of_json json =
  let ( let* ) = Result.bind in
  let* req = Service.Request.of_json json in
  match req.Service.Request.kind with
  | Service.Request.Prepare { spec; _ } -> Ok spec
  | _ -> Error "record spec must be a prepare request"

let decode line =
  let* json = Service.Jsonl.of_string line in
  let* kvs =
    match json with
    | Service.Jsonl.Obj kvs -> Ok kvs
    | _ -> Error "record must be a JSON object"
  in
  let* stored_crc = int_field "crc" json in
  let body = List.filter (fun (k, _) -> k <> "crc") kvs in
  let computed =
    Mdst.Crc32.string (Service.Jsonl.to_string (Service.Jsonl.Obj body))
  in
  if computed <> stored_crc then
    Error
      (Printf.sprintf "crc mismatch (stored %d, computed %d)" stored_crc
         computed)
  else
    let* seq = int_field "seq" json in
    let* rec_v = field "rec" json in
    let* spec_v = field "spec" json in
    let* spec = spec_of_json spec_v in
    match Service.Jsonl.to_str rec_v with
    | Some "accepted" -> Ok (seq, Accepted spec)
    | Some "completed" ->
      let* requests = int_field "requests" json in
      let* ok =
        let* v = field "ok" json in
        match Service.Jsonl.to_bool v with
        | Some b -> Ok b
        | None -> Error "record field \"ok\" must be a boolean"
      in
      Ok (seq, Completed { spec; requests; ok })
    | Some other -> Error (Printf.sprintf "unknown record kind %S" other)
    | None -> Error "record field \"rec\" must be a string"
