module Wire = Mdst.Plan_codec.Wire

let magic = "DMFPS001"
let tag_spec = 0x4B (* 'K' *)
let tag_prepared = 0x52 (* 'R' *)

(* ------------------------------------------------------------------ *)
(* Canonical spec bytes (the hash preimage)                            *)

let spec_bytes (spec : Service.Request.spec) =
  let b = Wire.writer () in
  Wire.u8 b tag_spec;
  Wire.u8 b Mdst.Plan_codec.version;
  let parts = Dmf.Ratio.parts spec.Service.Request.ratio in
  Wire.u32 b (Array.length parts);
  Array.iter (Wire.u32 b) parts;
  Wire.u32 b spec.Service.Request.demand;
  Wire.bytes b (Mixtree.Algorithm.name spec.Service.Request.algorithm);
  Wire.bytes b (Mdst.Scheduler.name spec.Service.Request.scheduler);
  (match spec.Service.Request.mixers with
  | None -> Wire.bool b false
  | Some m ->
    Wire.bool b true;
    Wire.u32 b m);
  (match spec.Service.Request.storage_limit with
  | None -> Wire.bool b false
  | Some s ->
    Wire.bool b true;
    Wire.u32 b s);
  Wire.contents b

let key_of_spec spec = Mdst.Plan_codec.hash_hex (spec_bytes spec)

(* ------------------------------------------------------------------ *)
(* Prepared-result payload                                             *)

let w_summary b (s : Service.Response.summary) =
  Wire.bytes b s.Service.Response.scheme;
  Wire.u32 b s.Service.Response.mixers;
  Wire.u32 b s.Service.Response.demand;
  Wire.u32 b s.Service.Response.tc;
  Wire.u32 b s.Service.Response.q;
  Wire.u32 b s.Service.Response.tms;
  Wire.u32 b s.Service.Response.waste;
  Wire.u32 b s.Service.Response.input_total;
  Wire.u32 b s.Service.Response.trees;
  Wire.u32 b s.Service.Response.passes;
  Wire.bool b s.Service.Response.within_limit

let r_summary r : Service.Response.summary =
  let scheme = Wire.r_bytes r in
  let mixers = Wire.r_u32 r in
  let demand = Wire.r_u32 r in
  let tc = Wire.r_u32 r in
  let q = Wire.r_u32 r in
  let tms = Wire.r_u32 r in
  let waste = Wire.r_u32 r in
  let input_total = Wire.r_u32 r in
  let trees = Wire.r_u32 r in
  let passes = Wire.r_u32 r in
  let within_limit = Wire.r_bool r in
  {
    scheme;
    mixers;
    demand;
    tc;
    q;
    tms;
    waste;
    input_total;
    trees;
    passes;
    within_limit;
  }

let w_instr b (c : Mdst.Instr.counters) =
  Wire.int b c.Mdst.Instr.cycles;
  Wire.int b c.Mdst.Instr.fired;
  Wire.int b c.Mdst.Instr.stores;
  Wire.int b c.Mdst.Instr.evictions;
  Wire.int b c.Mdst.Instr.peak_storage;
  Wire.f64 b c.Mdst.Instr.avg_storage;
  Wire.int b c.Mdst.Instr.peak_ready;
  Wire.f64 b c.Mdst.Instr.mixer_occupancy

let r_instr r : Mdst.Instr.counters =
  let cycles = Wire.r_int r in
  let fired = Wire.r_int r in
  let stores = Wire.r_int r in
  let evictions = Wire.r_int r in
  let peak_storage = Wire.r_int r in
  let avg_storage = Wire.r_f64 r in
  let peak_ready = Wire.r_int r in
  let mixer_occupancy = Wire.r_f64 r in
  {
    cycles;
    fired;
    stores;
    evictions;
    peak_storage;
    avg_storage;
    peak_ready;
    mixer_occupancy;
  }

let encode_prepared (p : Service.Prep.prepared) =
  let b = Wire.writer () in
  Wire.u8 b tag_prepared;
  Wire.u8 b Mdst.Plan_codec.version;
  w_summary b p.Service.Prep.summary;
  w_instr b p.Service.Prep.instr;
  (match p.Service.Prep.plan with
  | None -> Wire.bool b false
  | Some plan ->
    Wire.bool b true;
    Wire.bytes b (Mdst.Plan_codec.encode_plan plan));
  (match (p.Service.Prep.schedule, p.Service.Prep.plan) with
  | None, _ -> Wire.bool b false
  | Some _, None ->
    invalid_arg "Plan_store.encode_prepared: schedule without plan"
  | Some s, Some plan ->
    Wire.bool b true;
    Wire.bytes b (Mdst.Plan_codec.encode_schedule ~plan s));
  Wire.contents b

let decode_prepared buf : (Service.Prep.prepared, string) result =
  let ( let* ) = Result.bind in
  match
    let r = Wire.reader buf in
    if Wire.r_u8 r <> tag_prepared then Error "not a prepared-result record"
    else begin
      let v = Wire.r_u8 r in
      if v <> Mdst.Plan_codec.version then
        Error
          (Printf.sprintf "codec version %d, expected %d" v
             Mdst.Plan_codec.version)
      else begin
        let summary = r_summary r in
        let instr = r_instr r in
        let* plan =
          if Wire.r_bool r then
            Result.map Option.some (Mdst.Plan_codec.decode_plan (Wire.r_bytes r))
          else Ok None
        in
        let* schedule =
          if Wire.r_bool r then
            match plan with
            | None -> Error "schedule without plan"
            | Some plan ->
              Result.map Option.some
                (Mdst.Plan_codec.decode_schedule ~plan (Wire.r_bytes r))
          else Ok None
        in
        Wire.expect_end r;
        Ok (Service.Prep.make ~summary ~instr ~plan ~schedule)
      end
    end
  with
  | result -> result
  | exception Wire.Corrupt msg -> Error msg
  | exception Invalid_argument msg -> Error msg

(* ------------------------------------------------------------------ *)
(* File framing                                                        *)

let encode_entry ~spec_key ~payload =
  let b = Wire.writer () in
  Wire.bytes b spec_key;
  Wire.bytes b payload;
  let body = Wire.contents b in
  let crc = Mdst.Crc32.string body in
  let f = Wire.writer () in
  Wire.u32 f crc;
  magic ^ body ^ Wire.contents f

let decode_entry image =
  let mn = String.length magic in
  let n = String.length image in
  if n < mn + 4 then Error "truncated entry"
  else if String.sub image 0 mn <> magic then Error "bad magic"
  else begin
    let body = String.sub image mn (n - mn - 4) in
    let stored_crc =
      let r = Wire.reader (String.sub image (n - 4) 4) in
      Wire.r_u32 r
    in
    if Mdst.Crc32.string body <> stored_crc then Error "CRC mismatch"
    else
      match
        let r = Wire.reader body in
        let spec_key = Wire.r_bytes r in
        let payload = Wire.r_bytes r in
        Wire.expect_end r;
        (spec_key, payload)
      with
      | pair -> Ok pair
      | exception Wire.Corrupt msg -> Error msg
  end

(* ------------------------------------------------------------------ *)
(* The store                                                           *)

type t = {
  dir : string;
  max_bytes : int option;
  mu : Mutex.t;  (** Guards the counters below — never held across I/O. *)
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable errors : int;
  mutable gc_runs : int;
  mutable gc_removed : int;
  mutable tmp_seq : int;
}

let dir t = t.dir

let open_store ?max_bytes ~dir () =
  Wal.ensure_dir dir;
  {
    dir;
    max_bytes;
    mu = Mutex.create ();
    hits = 0;
    misses = 0;
    writes = 0;
    errors = 0;
    gc_runs = 0;
    gc_removed = 0;
    tmp_seq = 0;
  }

let entry_prefix = "ps-"
let entry_suffix = ".plan"
let entry_name key = entry_prefix ^ key ^ entry_suffix
let entry_path t spec = Filename.concat t.dir (entry_name (key_of_spec spec))

let is_entry name =
  let pn = String.length entry_prefix and sn = String.length entry_suffix in
  let n = String.length name in
  n = pn + 32 + sn
  && String.sub name 0 pn = entry_prefix
  && String.sub name (n - sn) sn = entry_suffix

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter_map (fun name ->
           if not (is_entry name) then None
           else
             let path = Filename.concat t.dir name in
             match Unix.stat path with
             | st -> Some (path, st.Unix.st_size, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> None)

let try_remove path =
  match Sys.remove path with () -> true | exception Sys_error _ -> false

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | image -> Some image
  | exception Sys_error _ -> None

(* A bad entry (torn write that still renamed, version drift, hash
   collision) is deleted on sight so it cannot cost a decode attempt on
   every future lookup. *)
let drop_bad t path =
  ignore (try_remove path);
  (Mutex.lock t.mu;
     t.errors <- t.errors + 1;
     Mutex.unlock t.mu)

let find t spec =
  let spec_key = spec_bytes spec in
  let path = Filename.concat t.dir (entry_name (Mdst.Plan_codec.hash_hex spec_key)) in
  match read_file path with
  | None ->
    Mutex.lock t.mu;
    t.misses <- t.misses + 1;
    Mutex.unlock t.mu;
    None
  | Some image -> (
    match decode_entry image with
    | Error _ ->
      drop_bad t path;
      Mutex.lock t.mu;
    t.misses <- t.misses + 1;
    Mutex.unlock t.mu;
      None
    | Ok (stored_key, payload) ->
      if not (String.equal stored_key spec_key) then begin
        (* Same 128-bit hash, different inputs: the guard this embedded
           key exists for.  Treat as absent; the colliding entry loses. *)
        drop_bad t path;
        Mutex.lock t.mu;
    t.misses <- t.misses + 1;
    Mutex.unlock t.mu;
        None
      end
      else
        match decode_prepared payload with
        | Error _ ->
          drop_bad t path;
          Mutex.lock t.mu;
    t.misses <- t.misses + 1;
    Mutex.unlock t.mu;
          None
        | Ok prepared ->
          Mutex.lock t.mu;
          t.hits <- t.hits + 1;
          Mutex.unlock t.mu;
          Some prepared)

let write_all fd s =
  let n = String.length s in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd s !written (n - !written)
  done

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | dfd ->
    (try Unix.fsync dfd with Unix.Unix_error _ -> ());
    Unix.close dfd
  | exception Unix.Unix_error _ -> ()

let gc t =
  match t.max_bytes with
  | None -> ()
  | Some max_bytes ->
    let total ents = List.fold_left (fun a (_, sz, _) -> a + sz) 0 ents in
    let ents = entries t in
    if total ents > max_bytes then begin
      (* Advisory cross-process exclusion, same discipline as the
         manager's LOCK: a contended lock means another shard is already
         collecting, so this round is simply skipped. *)
      match
        Unix.openfile
          (Filename.concat t.dir "GC.LOCK")
          [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
      with
      | exception Unix.Unix_error _ -> ()
      | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            match Unix.lockf fd Unix.F_TLOCK 0 with
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
              ()
            | exception Unix.Unix_error _ -> ()
            | () ->
              (* Re-list under the lock; oldest mtime first. *)
              let ents =
                List.sort
                  (fun (_, _, a) (_, _, b) -> Float.compare a b)
                  (entries t)
              in
              let target = max_bytes * 4 / 5 in
              let remaining = ref (total ents) in
              let removed = ref 0 in
              List.iter
                (fun (path, sz, _) ->
                  if !remaining > target && try_remove path then begin
                    remaining := !remaining - sz;
                    incr removed
                  end)
                ents;
              Mutex.lock t.mu;
              t.gc_runs <- t.gc_runs + 1;
              t.gc_removed <- t.gc_removed + !removed;
              Mutex.unlock t.mu)
    end

let add t spec prepared =
  match encode_prepared prepared with
  | exception Invalid_argument _ ->
    (Mutex.lock t.mu;
     t.errors <- t.errors + 1;
     Mutex.unlock t.mu)
  | payload ->
    let spec_key = spec_bytes spec in
    let image = encode_entry ~spec_key ~payload in
    let name = entry_name (Mdst.Plan_codec.hash_hex spec_key) in
    let path = Filename.concat t.dir name in
    let seq =
      Mutex.lock t.mu;
      t.tmp_seq <- t.tmp_seq + 1;
      let seq = t.tmp_seq in
      Mutex.unlock t.mu;
      seq
    in
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf "%s.tmp.%d.%d" name (Unix.getpid ()) seq)
    in
    (match
       Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
     with
    | exception Unix.Unix_error _ ->
      (Mutex.lock t.mu;
     t.errors <- t.errors + 1;
     Mutex.unlock t.mu)
    | fd -> (
      match
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            write_all fd image;
            Unix.fsync fd)
      with
      | exception Unix.Unix_error _ ->
        ignore (try_remove tmp);
        (Mutex.lock t.mu;
     t.errors <- t.errors + 1;
     Mutex.unlock t.mu)
      | () -> (
        match Unix.rename tmp path with
        | exception Unix.Unix_error _ ->
          ignore (try_remove tmp);
          (Mutex.lock t.mu;
     t.errors <- t.errors + 1;
     Mutex.unlock t.mu)
        | () ->
          fsync_dir t.dir;
          Mutex.lock t.mu;
          t.writes <- t.writes + 1;
          Mutex.unlock t.mu;
          gc t)))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  writes : int;
  errors : int;
  gc_runs : int;
  gc_removed : int;
  max_bytes : int option;
}

let stats t =
  let ents = entries t in
  let bytes = List.fold_left (fun a (_, sz, _) -> a + sz) 0 ents in
  Mutex.lock t.mu;
  let s =
    {
      entries = List.length ents;
      bytes;
      hits = t.hits;
      misses = t.misses;
      writes = t.writes;
      errors = t.errors;
      gc_runs = t.gc_runs;
      gc_removed = t.gc_removed;
      max_bytes = t.max_bytes;
    }
  in
  Mutex.unlock t.mu;
  s

let stats_json t =
  let s = stats t in
  Service.Jsonl.Obj
    ([
       ("entries", Service.Jsonl.Int s.entries);
       ("bytes", Service.Jsonl.Int s.bytes);
       ("hits", Service.Jsonl.Int s.hits);
       ("misses", Service.Jsonl.Int s.misses);
       ("writes", Service.Jsonl.Int s.writes);
       ("errors", Service.Jsonl.Int s.errors);
       ("gc_runs", Service.Jsonl.Int s.gc_runs);
       ("gc_removed", Service.Jsonl.Int s.gc_removed);
     ]
    @
    match s.max_bytes with
    | None -> []
    | Some m -> [ ("max_bytes", Service.Jsonl.Int m) ])

let to_store t =
  {
    Service.Store.find = find t;
    add = add t;
    stats = (fun () -> stats_json t);
  }
