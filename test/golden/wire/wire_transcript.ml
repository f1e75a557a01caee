(* Prints the answers of an in-process dmfd ([daemon]) or of an
   in-process dmfrouter over one in-process dmfd shard ([router]) to
   the request stream in FILE, one answer per line.  Only timing is
   normalized: the numbers after "elapsed_ms", "uptime_s" and
   "avg_latency_ms" print as [_], and the shard's ephemeral
   "127.0.0.1:<port>" label as "127.0.0.1:PORT".

   Usage: wire_transcript.exe (daemon|router) FILE *)

let timing_fields = [ "\"elapsed_ms\": "; "\"uptime_s\": "; "\"avg_latency_ms\": " ]

let is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let starts_at s i prefix =
  let n = String.length prefix in
  i + n <= String.length s && String.sub s i n = prefix

let normalize_timing line =
  let b = Buffer.create (String.length line) in
  let n = String.length line in
  let rec go i =
    if i < n then
      match List.find_opt (starts_at line i) timing_fields with
      | Some field ->
        Buffer.add_string b field;
        let j = ref (i + String.length field) in
        while !j < n && is_number_char line.[!j] do
          incr j
        done;
        Buffer.add_char b '_';
        go !j
      | None ->
        Buffer.add_char b line.[i];
        go (i + 1)
  in
  go 0;
  Buffer.contents b

let replace_all ~sub ~by s =
  let b = Buffer.create (String.length s) in
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i < n then
      if starts_at s i sub then begin
        Buffer.add_string b by;
        go (i + m)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Feed [requests] to [serve] over a pair of pipes, as a client that
   writes its whole stream and then closes it, and collect the
   answers. *)
let answers serve requests =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let server =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r
        and oc = Unix.out_channel_of_descr resp_w in
        serve ic oc;
        close_out oc;
        close_in ic)
      ()
  in
  let client =
    Thread.create
      (fun () ->
        let oc = Unix.out_channel_of_descr req_w in
        output_string oc requests;
        close_out oc)
      ()
  in
  let ic = Unix.in_channel_of_descr resp_r in
  let rec collect acc =
    match input_line ic with
    | line -> collect (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = collect [] in
  close_in ic;
  Thread.join client;
  Thread.join server;
  lines

let daemon requests =
  let server = Service.Server.create ~workers:1 () in
  let lines = answers (Service.Server.serve_channels server) requests in
  Service.Server.stop server;
  lines

let router requests =
  let shard = Service.Server.create ~workers:1 () in
  let port = ref 0 in
  let listening = Mutex.create () and bound = Condition.create () in
  ignore
    (Thread.create
       (fun () ->
         Service.Server.serve_tcp shard ~host:"127.0.0.1" ~port:0
           ~on_listen:(fun p ->
             Mutex.lock listening;
             port := p;
             Condition.signal bound;
             Mutex.unlock listening))
       ());
  Mutex.lock listening;
  while !port = 0 do
    Condition.wait bound listening
  done;
  Mutex.unlock listening;
  let router = Cluster.Router.create [ (("127.0.0.1", !port), None) ] in
  let lines = answers (Cluster.Router.serve_channels router) requests in
  Cluster.Router.close router;
  let label = Printf.sprintf "127.0.0.1:%d" !port in
  List.map (replace_all ~sub:label ~by:"127.0.0.1:PORT") lines

let () =
  match Sys.argv with
  | [| _; mode; path |] ->
    let requests = read_file path in
    let lines =
      match mode with
      | "daemon" -> daemon requests
      | "router" -> router requests
      | _ -> failwith ("unknown mode " ^ mode)
    in
    List.iter (fun l -> print_endline (normalize_timing l)) lines
  | _ ->
    prerr_endline "usage: wire_transcript.exe (daemon|router) FILE";
    exit 2
