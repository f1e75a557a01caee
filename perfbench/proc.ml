(* Child processes and scratch directories of one run.

   Every spawn first asserts that this process has not spawned a
   domain: OCaml 5 cannot fork safely once one exists, so all daemons
   are launched before the benchmark plans anything in-process.  Every
   child and directory is registered, and [cleanup] (run at exit, on
   success and on failure alike) kills and reaps what is left and
   removes the directories. *)

type t = {
  name : string;
  pid : int;
  mutable reaped : bool;
  to_child : Unix.file_descr option;  (** Its stdin, when kept open. *)
  from_child : Unix.file_descr;  (** Its stdout. *)
  log : string;  (** The file receiving its stderr. *)
}

let live : t list ref = ref []

let dirs : string list ref = ref []

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

(* A fresh directory under [root], removed again by [cleanup]. *)
let scratch_dir root name =
  let dir = Filename.concat root name in
  rm_rf dir;
  mkdir_p dir;
  dirs := dir :: !dirs;
  dir

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let spawn ?(env = Unix.environment ()) ?(keep_stdin = false) ~name ~log prog
    args =
  Analysis.Runtime.assert_no_domains_spawned ();
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env child_in
      child_out err
  in
  List.iter Unix.close [ child_in; child_out; err ];
  if not keep_stdin then Unix.close to_child;
  let t =
    {
      name;
      pid;
      reaped = false;
      to_child = (if keep_stdin then Some to_child else None);
      from_child;
      log;
    }
  in
  live := t :: !live;
  t

let signal t s =
  if not t.reaped then try Unix.kill t.pid s with Unix.Unix_error _ -> ()

let close_stdin t = Option.iter close_quietly t.to_child

(* Wait up to [timeout] seconds for the child to exit, then SIGKILL it;
   always reaps it and closes its pipes.  Returns its exit status when
   it exited on its own. *)
let wait ?(timeout = 10.) t =
  if t.reaped then None
  else begin
    let deadline = Clock.now () +. timeout in
    let rec poll () =
      match Analysis.Runtime.waitpid_retry [ Unix.WNOHANG ] t.pid with
      | 0, _ when Clock.now () < deadline ->
        Unix.sleepf 0.002;
        poll ()
      | 0, _ ->
        signal t Sys.sigkill;
        ignore (Analysis.Runtime.waitpid_retry [] t.pid);
        None
      | _, status -> Some status
    in
    let status = poll () in
    t.reaped <- true;
    close_stdin t;
    close_quietly t.from_child;
    live := List.filter (fun c -> c != t) !live;
    status
  end

let kill t =
  signal t Sys.sigkill;
  ignore (wait t)

let cleanup () =
  List.iter kill !live;
  List.iter
    (fun d ->
      rm_rf d;
      (* The shared parent goes too once the last run has left it. *)
      try Unix.rmdir (Filename.dirname d) with Unix.Unix_error _ -> ())
    !dirs;
  dirs := []

let log_tail t =
  match In_channel.with_open_bin t.log In_channel.input_all with
  | s ->
    let n = String.length s in
    if n <= 400 then s else String.sub s (n - 400) 400
  | exception Sys_error _ -> ""

let failf t fmt =
  Printf.ksprintf
    (fun msg -> failwith (Printf.sprintf "%s: %s\n%s" t.name msg (log_tail t)))
    fmt

(* Read the child's stdout until a line starting with [prefix]; returns
   the rest of that line. *)
let read_announcement ?(timeout = 30.) t prefix =
  let deadline = Clock.now () +. timeout in
  let buf = Buffer.create 64 in
  let chunk = Bytes.create 256 in
  let rec scan () =
    let lines = String.split_on_char '\n' (Buffer.contents buf) in
    let complete = List.filteri (fun i _ -> i < List.length lines - 1) lines in
    match
      List.find_opt (String.starts_with ~prefix) complete
    with
    | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
    | None ->
      let left = deadline -. Clock.now () in
      if left <= 0. then failf t "no %s line within %.0f s" prefix timeout;
      (match Unix.select [ t.from_child ] [] [] left with
      | [], _, _ -> ()
      | _ ->
        let k = Unix.read t.from_child chunk 0 (Bytes.length chunk) in
        if k = 0 then failf t "exited before announcing %s" prefix;
        Buffer.add_subbytes buf chunk 0 k);
      scan ()
  in
  scan ()

(* Peak resident set of a live child, from the kernel's VmHWM. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' status)
