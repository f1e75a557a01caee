let version = 1

let name seq = Printf.sprintf "snapshot-%012d.json" seq

let prefix = "snapshot-"
let suffix = ".json"

let list ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    let pn = String.length prefix and sn = String.length suffix in
    Array.to_list names
    |> List.filter_map (fun n ->
           let len = String.length n in
           if
             len > pn + sn
             && String.sub n 0 pn = prefix
             && String.sub n (len - sn) sn = suffix
           then
             match int_of_string_opt (String.sub n pn (len - pn - sn)) with
             | Some seq -> Some (seq, Filename.concat dir n)
             | None -> None
           else None)
    |> List.sort compare

let body_json ~seq state =
  [
    ("version", Service.Jsonl.Int version);
    ("seq", Service.Jsonl.Int seq);
    ( "cache",
      Service.Jsonl.List
        (List.map Record.spec_to_json (State.cache_specs state)) );
    ( "outstanding",
      Service.Jsonl.List
        (List.map Record.spec_to_json (State.outstanding state)) );
  ]

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let write ~dir ~seq state =
  Wal.ensure_dir dir;
  let body = body_json ~seq state in
  let crc =
    Mdst.Crc32.string (Service.Jsonl.to_string (Service.Jsonl.Obj body))
  in
  let text =
    Service.Jsonl.to_string
      (Service.Jsonl.Obj (body @ [ ("crc", Service.Jsonl.Int crc) ]))
    ^ "\n"
  in
  let path = Filename.concat dir (name seq) in
  let tmp = path ^ ".tmp" in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd text;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* Make the rename itself durable where the platform allows it. *)
  (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd
  | exception Unix.Unix_error _ -> ());
  path

let ( let* ) = Result.bind

let spec_list name json =
  match Service.Jsonl.member name json with
  | Some (Service.Jsonl.List items) ->
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* spec = Record.spec_of_json item in
        Ok (spec :: acc))
      (Ok []) items
    |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "snapshot field %S must be a list" name)
  | None -> Error (Printf.sprintf "snapshot is missing the %S field" name)

let load ~cache_capacity path =
  let* text =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (In_channel.input_all ic))
    with Sys_error msg -> Error msg
  in
  let* json = Service.Jsonl.of_string (String.trim text) in
  let* kvs =
    match json with
    | Service.Jsonl.Obj kvs -> Ok kvs
    | _ -> Error "snapshot must be a JSON object"
  in
  let* stored_crc =
    match Service.Jsonl.(member "crc" json |> Option.map to_int) with
    | Some (Some c) -> Ok c
    | _ -> Error "snapshot is missing an integer \"crc\" field"
  in
  let body = List.filter (fun (k, _) -> k <> "crc") kvs in
  let computed =
    Mdst.Crc32.string (Service.Jsonl.to_string (Service.Jsonl.Obj body))
  in
  if computed <> stored_crc then Error "snapshot crc mismatch"
  else
    let* v =
      match Service.Jsonl.(member "version" json |> Option.map to_int) with
      | Some (Some v) -> Ok v
      | _ -> Error "snapshot is missing an integer \"version\" field"
    in
    if v > version then
      Error (Printf.sprintf "snapshot version %d is newer than %d" v version)
    else
      let* cache_mru = spec_list "cache" json in
      let* outstanding = spec_list "outstanding" json in
      Ok (State.restore ~cache_capacity ~cache_mru ~outstanding)

let load_latest ~dir ~cache_capacity =
  let candidates = List.rev (list ~dir) in
  List.find_map
    (fun (seq, path) ->
      match load ~cache_capacity path with
      | Ok state -> Some (seq, state)
      | Error _ -> None)
    candidates
