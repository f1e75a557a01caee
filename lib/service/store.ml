type t = {
  find : Request.spec -> Prep.prepared option;
  add : Request.spec -> Prep.prepared -> unit;
  stats : unit -> Jsonl.t;
}

type tier = Stored | Planned

let obtain store spec =
  match Option.bind store (fun s -> s.find spec) with
  | Some prepared -> Ok (prepared, Stored)
  | None ->
    Validate.protect (fun () -> Prep.run spec)
    |> Result.map (fun prepared ->
           Option.iter (fun s -> s.add spec prepared) store;
           (prepared, Planned))
