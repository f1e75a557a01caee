type stats = {
  snapshot_seq : int option;
  replayed : int;
  truncated : int;
  gap : bool;
  wall_ms : float;
  next_seq : int;
  repairs : (string * int) list;
}

let recover ~dir ~cache_capacity =
  let t0 = Unix.gettimeofday () in
  let state, snapshot_seq =
    match Snapshot.load_latest ~dir ~cache_capacity with
    | Some (seq, state) -> (state, Some seq)
    | None -> (State.create ~cache_capacity, None)
  in
  let replayed = ref 0 and truncated = ref 0 and gap = ref false in
  let repairs = ref [] in
  let expected = ref (match snapshot_seq with Some s -> s + 1 | None -> 1) in
  (try
     List.iter
       (fun (_start, path) ->
         let ic = open_in_bin path in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () ->
             (* Byte offset just past the last record whose bytes
                verified, so a torn segment can be cut back to its valid
                prefix before anything appends to it again. *)
             let good_end = ref 0 in
             (* Count every line left in the segment: once one record is
                torn, the ones after it are unusable (their sequence
                numbers would gap) even if their bytes verify. *)
             let drain_rest () =
               let rec go n =
                 match Service.Jsonl.read_line ic with
                 | Service.Jsonl.Eof -> n
                 | _ -> go (n + 1)
               in
               truncated := !truncated + 1 + go 0;
               repairs := (path, !good_end) :: !repairs
             in
             let rec lines () =
               match Service.Jsonl.read_line ic with
               | Service.Jsonl.Eof -> ()
               | Service.Jsonl.Oversized _ -> drain_rest ()
               | Service.Jsonl.Line l | Service.Jsonl.Tail l -> (
                 match Record.decode l with
                 | Error _ -> drain_rest ()
                 | Ok (seq, _) when seq < !expected ->
                   (* Already covered by the snapshot. *)
                   good_end := pos_in ic;
                   lines ()
                 | Ok (seq, kind) when seq = !expected ->
                   State.apply state kind;
                   incr replayed;
                   expected := seq + 1;
                   good_end := pos_in ic;
                   lines ()
                 | Ok _ ->
                   gap := true;
                   raise Exit)
             in
             lines ()))
       (Wal.segments ~dir)
   with Exit -> ());
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  ( state,
    {
      snapshot_seq;
      replayed = !replayed;
      truncated = !truncated;
      gap = !gap;
      wall_ms;
      next_seq = !expected;
      repairs = List.rev !repairs;
    } )

(* Cut each torn segment back to its valid prefix and make the cut
   durable, so the bytes past it can never merge with a later append. *)
let repair stats =
  List.iter
    (fun (path, valid_bytes) ->
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd valid_bytes;
          try Unix.fsync fd with Unix.Unix_error _ -> ()))
    stats.repairs
