(* Differential oracles for the service's wire codec: the tree-based
   and per-byte implementations the service used before its line
   reader, request decoder and answer encoder were rewritten for
   allocation-lean warm hits, kept verbatim so the properties in
   test_wire.ml can hold the fast paths to their exact bytes and
   error texts. *)

open Service.Jsonl

(* ------------------------------------------------------------------ *)
(* Printing: Jsonl.to_string over [Printf.sprintf "%.17g"].            *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if not (Float.is_finite f) then
    invalid_arg "Jsonl: cannot encode a non-finite float";
  (* %.17g round-trips every double; force a marker so the parser reads
     the number back as a float, not an int. *)
  let s = Printf.sprintf "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        escape_string buf k;
        Buffer.add_string buf ": ";
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent with [char option] look-ahead.          *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | Some _ | None -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> parse_error "expected '%c' at offset %d, got '%c'" ch c.pos x
  | None -> parse_error "expected '%c' at offset %d, got end of input" ch c.pos

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else parse_error "invalid literal at offset %d" c.pos

(* Decode a 4-hex-digit escape; surrogate pairs combine into one scalar. *)
let hex4 c =
  if c.pos + 4 > String.length c.s then
    parse_error "truncated \\u escape at offset %d" c.pos;
  let v = int_of_string_opt ("0x" ^ String.sub c.s c.pos 4) in
  match v with
  | Some v ->
    c.pos <- c.pos + 4;
    v
  | None -> parse_error "invalid \\u escape at offset %d" c.pos

let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> parse_error "unterminated string"
    | Some '"' ->
      advance c;
      Buffer.contents buf
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> parse_error "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let u = hex4 c in
          let u =
            if u >= 0xD800 && u <= 0xDBFF then begin
              (* High surrogate: require the low half. *)
              expect c '\\';
              expect c 'u';
              let lo = hex4 c in
              if lo < 0xDC00 || lo > 0xDFFF then
                parse_error "unpaired surrogate at offset %d" c.pos;
              0x10000 + (((u - 0xD800) lsl 10) lor (lo - 0xDC00))
            end
            else if u >= 0xDC00 && u <= 0xDFFF then
              parse_error "unpaired surrogate at offset %d" c.pos
            else u
          in
          add_utf8 buf u
        | ch -> parse_error "invalid escape '\\%c'" ch);
        loop ())
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      loop ()
  in
  loop ()

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if peek c = Some '-' then advance c;
  let digits () =
    let n = ref 0 in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      incr n;
      advance c
    done;
    if !n = 0 then parse_error "malformed number at offset %d" c.pos
  in
  digits ();
  if peek c = Some '.' then begin
    is_float := true;
    advance c;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
    is_float := true;
    advance c;
    (match peek c with Some ('+' | '-') -> advance c | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub c.s start (c.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of native int range *)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> parse_error "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> String (parse_string c)
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      List []
    end
    else begin
      let rec elements acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elements (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> parse_error "expected ',' or ']' at offset %d" c.pos
      in
      List (elements [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let binding () =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        (k, parse_value c)
      in
      let rec bindings acc =
        let kv = binding () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          bindings (kv :: acc)
        | Some '}' ->
          advance c;
          List.rev (kv :: acc)
        | _ -> parse_error "expected ',' or '}' at offset %d" c.pos
      in
      Obj (bindings [])
    end
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> parse_error "unexpected character '%c' at offset %d" ch c.pos

let of_string s =
  let c = { s; pos = 0 } in
  match parse_value c with
  | v ->
    skip_ws c;
    if c.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Line reading: one [input_char] per byte.                            *)

let read_line ?(max_bytes = Service.Jsonl.max_line_bytes) ic =
  let buf = Buffer.create 128 in
  (* Over the bound: stop buffering, just count until newline or EOF so
     the stream stays line-synchronized for the caller. *)
  let rec skip n =
    match input_char ic with
    | '\n' -> Oversized n
    | _ -> skip (n + 1)
    | exception End_of_file -> Oversized n
  in
  let rec loop () =
    match input_char ic with
    | '\n' -> Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max_bytes then skip (Buffer.length buf + 1)
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    | exception End_of_file ->
      if Buffer.length buf = 0 then Eof else Tail (Buffer.contents buf)
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Requests: field checks over a parsed tree.                          *)

module Request = struct
  open Service.Request

  let coalesce_key spec =
    Printf.sprintf "%s|%s|%s|Mc=%s|q'=%s"
      (Dmf.Ratio.to_string spec.ratio)
      (Mixtree.Algorithm.name spec.algorithm)
      (Mdst.Scheduler.name spec.scheduler)
      (match spec.mixers with Some m -> string_of_int m | None -> "auto")
      (match spec.storage_limit with Some q -> string_of_int q | None -> "-")

  let cache_key spec =
    Printf.sprintf "%s|D=%d" (coalesce_key spec) spec.demand

  let ( let* ) = Result.bind

  let field_str json key =
    match Service.Jsonl.member key json with
    | None -> Ok None
    | Some (Service.Jsonl.String s) -> Ok (Some s)
    | Some _ -> Error (Printf.sprintf "field %S must be a string" key)

  let field_int json key =
    match Service.Jsonl.member key json with
    | None | Some Service.Jsonl.Null -> Ok None
    | Some (Service.Jsonl.Int i) -> Ok (Some i)
    | Some _ -> Error (Printf.sprintf "field %S must be an integer" key)

  let opt_validated v f =
    match v with
    | None -> Ok None
    | Some x ->
      let* y = f x in
      Ok (Some y)

  let spec_of_json json =
    let* ratio_str = field_str json "ratio" in
    let* ratio =
      match ratio_str with
      | Some s -> Service.Validate.ratio s
      | None -> Error "prepare request needs a \"ratio\" field"
    in
    let* demand_raw = field_int json "D" in
    let* demand =
      match demand_raw with
      | Some d -> Service.Validate.demand d
      | None -> Error "prepare request needs an integer \"D\" field"
    in
    let* algo_str = field_str json "algorithm" in
    let* algorithm =
      match algo_str with
      | Some s -> Service.Validate.algorithm s
      | None -> Ok Mixtree.Algorithm.MM
    in
    let* sched_str = field_str json "scheduler" in
    let* scheduler =
      match sched_str with
      | Some s -> Service.Validate.scheduler s
      | None -> Ok Mdst.Scheduler.srs
    in
    let* mixers_raw = field_int json "Mc" in
    let* mixers = opt_validated mixers_raw Service.Validate.mixers in
    let* storage_raw = field_int json "storage" in
    let* storage_limit = opt_validated storage_raw Service.Validate.storage in
    Ok { ratio; demand; algorithm; scheduler; mixers; storage_limit }

  let of_json json =
    match json with
    | Service.Jsonl.Obj _ ->
      let id = Service.Jsonl.member "id" json in
      let* kind_str = field_str json "req" in
      let* kind =
        match kind_str with
        | Some "prepare" ->
          let* spec = spec_of_json json in
          Ok (Prepare { spec; key = coalesce_key spec })
        | Some "stats" -> Ok Stats
        | Some "ping" -> Ok Ping
        | Some other -> Error ("unknown request kind " ^ other)
        | None -> Error "request needs a \"req\" field (prepare, stats, ping)"
      in
      Ok { id; kind }
    | _ -> Error "request must be a JSON object"

  let of_line line =
    let* json = of_string line in
    of_json json

end

(* ------------------------------------------------------------------ *)
(* Responses: a tree per answer.                                       *)

module Response = struct
  open Service.Response

  type body =
    | Schedule of {
        summary : summary;
        demand : int;
        batch_demand : int;
        coalesced : int;
        cache_hit : bool;
        instr : Mdst.Instr.counters option;
      }
    | Pong
    | Stats of stats
    | Error of string

  type t = { id : Service.Jsonl.t option; elapsed_ms : float option; body : body }

  let ok t = match t.body with Error _ -> false | _ -> true

  let req_name = function
    | Schedule _ -> "prepare"
    | Pong -> "ping"
    | Stats _ -> "stats"
    | Error _ -> "error"

  let to_json t =
    let base =
      [ ("ok", Service.Jsonl.Bool (ok t)); ("req", Service.Jsonl.String (req_name t.body)) ]
    in
    let id = match t.id with Some v -> [ ("id", v) ] | None -> [] in
    let payload =
      match t.body with
      | Pong -> []
      | Error msg -> [ ("error", Service.Jsonl.String msg) ]
      | Schedule { summary = s; demand; batch_demand; coalesced; cache_hit; instr }
        ->
        [
          ("scheme", Service.Jsonl.String s.scheme);
          ("Mc", Service.Jsonl.Int s.mixers);
          ("D", Service.Jsonl.Int demand);
          ("batch_D", Service.Jsonl.Int batch_demand);
          ("Tc", Service.Jsonl.Int s.tc);
          ("q", Service.Jsonl.Int s.q);
          ("Tms", Service.Jsonl.Int s.tms);
          ("W", Service.Jsonl.Int s.waste);
          ("I", Service.Jsonl.Int s.input_total);
          ("trees", Service.Jsonl.Int s.trees);
          ("passes", Service.Jsonl.Int s.passes);
          ("within_limit", Service.Jsonl.Bool s.within_limit);
          ("coalesced", Service.Jsonl.Int coalesced);
          ("cache_hit", Service.Jsonl.Bool cache_hit);
        ]
        @ (match instr with
          | None -> []
          | Some c ->
            [
              ( "instr",
                Service.Jsonl.Obj
                  (List.map
                     (fun (k, v) ->
                       ( k,
                         if Float.is_integer v && Float.abs v < 1e15 then
                           Service.Jsonl.Int (int_of_float v)
                         else Service.Jsonl.Float v ))
                     (Mdst.Instr.counters_to_fields c)) );
            ])
      | Stats s ->
        [
          ("queue_depth", Service.Jsonl.Int s.queue_depth);
          ("workers", Service.Jsonl.Int s.workers);
          ("served", Service.Jsonl.Int s.served);
          ("errors", Service.Jsonl.Int s.errors);
          ("coalesced", Service.Jsonl.Int s.coalesced);
          ("jobs", Service.Jsonl.Int s.jobs);
          ("plans_built", Service.Jsonl.Int s.plans_built);
          ( "cache",
            Service.Jsonl.Obj
              [
                ("hits", Service.Jsonl.Int s.cache.Service.Cache.hits);
                ("misses", Service.Jsonl.Int s.cache.Service.Cache.misses);
                ("evictions", Service.Jsonl.Int s.cache.Service.Cache.evictions);
                ("size", Service.Jsonl.Int s.cache.Service.Cache.size);
                ("capacity", Service.Jsonl.Int s.cache.Service.Cache.capacity);
              ] );
          ("avg_latency_ms", Service.Jsonl.Float s.avg_latency_ms);
          ("uptime_s", Service.Jsonl.Float s.uptime_s);
        ]
        @ (match s.wal with Some w -> [ ("wal", w) ] | None -> [])
        @ (match s.store with Some st -> [ ("plan_store", st) ] | None -> [])
        @ (match s.replication with
          | Some r -> [ ("replication", r) ]
          | None -> [])
    in
    let elapsed =
      match t.elapsed_ms with
      | Some ms -> [ ("elapsed_ms", Service.Jsonl.Float ms) ]
      | None -> []
    in
    Service.Jsonl.Obj (base @ id @ payload @ elapsed)


end

(* The same answer as the service encodes it. *)
let to_service (r : Response.t) : Service.Response.t =
  {
    Service.Response.id = r.Response.id;
    elapsed_ms = r.Response.elapsed_ms;
    body =
      (match r.Response.body with
      | Response.Schedule { summary; demand; batch_demand; coalesced; cache_hit; instr } ->
        Service.Response.Schedule
          {
            answer = Service.Response.answer summary instr;
            demand;
            batch_demand;
            coalesced;
            cache_hit;
          }
      | Response.Pong -> Service.Response.Pong
      | Response.Stats s -> Service.Response.Stats s
      | Response.Error msg -> Service.Response.Error msg);
  }
