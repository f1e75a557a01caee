(* The wire codec against its oracles (wire_oracle.ml): the bounded
   line reader against the per-byte reader, pos_in included; the
   one-pass request decoder against the tree decoder, in spec, keys and
   id or in the exact error text; the spliced answer encoder against
   the tree encoding of every body; and an allocation guard on warm
   cache hits through the in-process daemon. *)

open QCheck2
module Jsonl = Service.Jsonl
module O = Wire_oracle

(* ------------------------------------------------------------------ *)
(* Line reader                                                         *)

type stream = { bound : int option; lines : string list; terminated : bool }

let stream_print s =
  Printf.sprintf "bound %s, %d lines of lengths [%s], %s"
    (match s.bound with Some b -> string_of_int b | None -> "default")
    (List.length s.lines)
    (String.concat "; " (List.map (fun l -> string_of_int (String.length l)) s.lines))
    (if s.terminated then "newline-terminated" else "unterminated tail")

(* Short lines, and now and then one that crosses the 64 KiB channel
   buffer — or, under the default bound, the 1 MiB bound itself. *)
let line_gen ~huge =
  let open Gen in
  frequency
    ([
       (12, string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\r'; '{'; '"' ]) (int_range 0 60));
       ( 1,
         map2 (fun n c -> String.make n c) (int_range 65_000 140_000)
           (oneofl [ 'x'; ' ' ]) );
     ]
    @ if huge then [ (1, map (fun n -> String.make n 'y') (int_range ((1 lsl 20) - 2) ((1 lsl 20) + 2))) ] else [])

let stream_gen =
  let open Gen in
  oneof [ map Option.some (int_range 1 40); return None ] >>= fun bound ->
  list_size (int_range 0 12) (line_gen ~huge:false) >>= fun lines ->
  bool >|= fun terminated -> { bound; lines; terminated }

let huge_stream_gen =
  let open Gen in
  list_size (int_range 1 3) (line_gen ~huge:true) >>= fun lines ->
  bool >|= fun terminated -> { bound = None; lines; terminated }

let with_stream s f =
  let path = Filename.temp_file "wire-test" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          List.iteri
            (fun i l ->
              output_string oc l;
              if i < List.length s.lines - 1 || s.terminated then output_char oc '\n')
            s.lines);
      In_channel.with_open_bin path (fun a ->
          In_channel.with_open_bin path (fun b -> f a b)))

let reads_like_oracle s =
  with_stream s (fun fast slow ->
      let rec go () =
        let r = Jsonl.read_line ?max_bytes:s.bound fast in
        let r' = O.read_line ?max_bytes:s.bound slow in
        if r <> r' then QCheck2.Test.fail_report "results differ"
        else if pos_in fast <> pos_in slow then
          QCheck2.Test.fail_reportf "pos_in %d, oracle %d" (pos_in fast) (pos_in slow)
        else r = Jsonl.Eof || go ()
      in
      go ())

let prop_read_line =
  Generators.qtest ~count:300 "read_line = per-byte reader, pos_in included"
    stream_gen stream_print reads_like_oracle

let prop_read_line_huge =
  Generators.qtest ~count:6 "read_line = per-byte reader at the 1 MiB bound"
    huge_stream_gen stream_print reads_like_oracle

(* ------------------------------------------------------------------ *)
(* Request lines                                                       *)

(* One logical character and the ways JSON may spell it inside a
   string. *)
let atoms =
  [
    ("a", [ "a"; "\\u0061" ]);
    ("D", [ "D"; "\\u0044" ]);
    ("3", [ "3"; "\\u0033" ]);
    (":", [ ":"; "\\u003A" ]);
    (" ", [ " "; "\\u0020" ]);
    ("\"", [ "\\\""; "\\u0022" ]);
    ("\\", [ "\\\\"; "\\u005c" ]);
    ("/", [ "/"; "\\/" ]);
    ("\n", [ "\\n"; "\\u000a" ]);
    ("\t", [ "\\t"; "\\u0009" ]);
    ("\001", [ "\\u0001" ]);
    ("\xc3\xa9", [ "\xc3\xa9"; "\\u00e9" ]);
    ("\xe2\x82\xac", [ "\xe2\x82\xac"; "\\u20AC" ]);
    ("\xf0\x9f\x98\x80", [ "\xf0\x9f\x98\x80"; "\\ud83d\\ude00" ]);
  ]

(* A string literal spelling [s] (made of [atoms] or plain ASCII), each
   character escaped or not at random. *)
let spell s =
  let open Gen in
  let rec pieces i =
    if i >= String.length s then return []
    else
      let atom =
        List.find_opt
          (fun (a, _) ->
            i + String.length a <= String.length s
            && String.sub s i (String.length a) = a)
          atoms
      in
      let a, spellings =
        match atom with
        | Some (a, sp) -> (a, sp)
        | None ->
          let c = String.make 1 s.[i] in
          (c, [ c; Printf.sprintf "\\u%04x" (Char.code s.[i]) ])
      in
      oneofl spellings >>= fun sp ->
      pieces (i + String.length a) >|= fun rest -> sp :: rest
  in
  pieces 0 >|= fun ps -> "\"" ^ String.concat "" ps ^ "\""

let ws = Gen.oneofl [ ""; ""; ""; " "; "  "; "\t"; "\r"; "\n " ]

let rec json_text depth =
  let open Gen in
  let scalar =
    oneof
      [
        oneofl [ "null"; "true"; "false"; "0"; "-7"; "1.50"; "2.5e3"; "1E-2"; "007";
                 "-0"; "999999999999999999"; "4611686018427387903";
                 "4611686018427387904"; "9999999999999999999";
                 "-4611686018427387904"; "-4611686018427387905";
                 "00000000000000000000042"; "99999999999999999999" ];
        map string_of_int (int_range (-1000) 100_000);
        (string_size ~gen:(oneofl [ 'a'; 'D'; '3'; ':'; ' '; '"'; '\\'; '\001' ])
           (int_range 0 6)
        >>= spell);
        (oneofl (List.map fst atoms) >>= spell);
      ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (4, scalar);
        ( 1,
          list_size (int_range 0 3) (json_text (depth - 1)) >>= fun vs ->
          ws >|= fun w -> "[" ^ w ^ String.concat ("," ^ w) vs ^ "]" );
        ( 1,
          list_size (int_range 0 3)
            (pair (oneofl [ "k"; "id"; "D"; "\xc3\xa9" ] >>= spell) (json_text (depth - 1)))
          >|= fun kvs ->
          "{" ^ String.concat ", " (List.map (fun (k, v) -> k ^ ": " ^ v) kvs) ^ "}" );
      ]

let quoted_of choices = Gen.(oneofl choices >>= spell)

(* Values for each member a request can carry: mostly valid, often
   not, sometimes of the wrong JSON type. *)
let member_value = function
  | "req" -> Gen.(frequency [ (6, quoted_of [ "prepare"; "prepare"; "stats"; "ping"; "route"; "bogus" ]);
                              (1, oneofl [ "5"; "null"; "[\"prepare\"]" ]) ])
  | "ratio" ->
    Gen.(frequency
           [ (6, quoted_of [ "pcr16"; "PCR16"; "ex1"; "2:1:1:1:1:1:9"; "3:1"; " 3 : 1 "; "1:1:2:4"; "7:1"; "3:3"; "abc"; "4"; "0:4"; "3:1:" ]);
             (1, oneofl [ "3"; "null"; "{}" ]) ])
  | "D" ->
    Gen.(frequency
           [ (6, map string_of_int (int_range (-2) 40));
             (1, oneofl [ "0"; "70000"; "65536"; "4.0"; "null"; "\"4\""; "1e1";
                          "99999999999999999999"; "4611686018427387904"; "0000000000000000000008" ]) ])
  | "algorithm" -> Gen.(frequency [ (5, quoted_of [ "MM"; "rma"; "MTCS"; "RSM"; "XYZ" ]); (1, oneofl [ "1"; "null" ]) ])
  | "scheduler" -> Gen.(frequency [ (5, quoted_of [ "SRS"; "mms"; "OMS"; "XYZ" ]); (1, oneofl [ "[\"SRS\"]"; "true" ]) ])
  | "Mc" -> Gen.(frequency [ (5, map string_of_int (int_range 0 6)); (1, oneofl [ "5000"; "null"; "\"3\""; "2.0" ]) ])
  | "storage" -> Gen.(frequency [ (5, map string_of_int (int_range (-1) 7)); (1, oneofl [ "4097"; "null"; "2.5" ]) ])
  | _ -> json_text 2

let member_gen =
  let open Gen in
  frequency
    [
      (8, oneofl [ "req"; "ratio"; "D"; "algorithm"; "scheduler"; "Mc"; "storage"; "id" ]);
      (1, oneofl [ "color"; "extra"; "d"; "ID"; "\xc3\xa9" ]);
    ]
  >>= fun key ->
  spell key >>= fun k ->
  (if key = "id" then json_text 2 else member_value key) >>= fun v ->
  ws >>= fun w1 ->
  ws >|= fun w2 -> w1 ^ k ^ w2 ^ ":" ^ w1 ^ v ^ w2

let object_gen =
  let open Gen in
  (* Required members first, then extras (duplicates included), all
     shuffled. *)
  list_size (int_range 0 10) member_gen >>= fun extras ->
  shuffle_l extras >>= fun members ->
  ws >>= fun w ->
  ws >|= fun w' -> w ^ "{" ^ w' ^ String.concat ("," ^ w') members ^ w ^ "}" ^ w'

(* A prepare whose required members are valid unless an extra member
   of the same name comes first. *)
let prepare_gen =
  let open Gen in
  let field key v = spell key >>= fun k -> v >|= fun v -> k ^ ": " ^ v in
  field "req" (quoted_of [ "prepare" ]) >>= fun req ->
  field "ratio" (quoted_of [ "pcr16"; "ex1"; "2:1:1:1:1:1:9"; "3:1"; " 3 : 1 "; "1:1:2:4"; "7:1" ])
  >>= fun ratio ->
  field "D" (map string_of_int (int_range 1 40)) >>= fun d ->
  list_size (int_range 0 5) member_gen >>= fun extras ->
  shuffle_l (req :: ratio :: d :: extras) >|= fun members ->
  "{" ^ String.concat ", " members ^ "}"

(* Damage a line the way a client or a torn write might. *)
let mutate line =
  let open Gen in
  let n = String.length line in
  int_range 0 n >>= fun i ->
  oneof
    [
      return (String.sub line 0 i);
      (oneofl [ "{"; "}"; "\""; ","; ":"; "x"; "\\"; " "; "1"; "-"; "."; "e"; "["; "]"; "\\u"; "\\ud800" ]
      >|= fun s -> String.sub line 0 i ^ s ^ String.sub line i (n - i));
      (oneofl [ " x"; "}"; "\012"; "{}" ] >|= fun s -> line ^ s);
    ]

let line_gen =
  let open Gen in
  frequency
    [
      (4, prepare_gen);
      (3, object_gen);
      (1, json_text 2);
      (2, oneof [ prepare_gen; object_gen ] >>= mutate);
    ]

let cache_key_of_kind = function
  | Service.Request.Prepare { spec; key } -> Some (O.Request.cache_key spec, key)
  | Service.Request.Stats | Service.Request.Ping -> None

let same_request (a : Service.Request.t) (b : Service.Request.t) =
  Option.equal Jsonl.equal a.id b.id
  &&
  match (a.kind, b.kind) with
  | Prepare _, Prepare _ -> cache_key_of_kind a.kind = cache_key_of_kind b.kind
  | Stats, Stats | Ping, Ping -> true
  | _ -> false

let decodes_like_oracle line =
  let fast = Service.Request.of_line line and slow = O.Request.of_line line in
  let tree = O.of_string line in
  let member k = match tree with Ok json -> Jsonl.member k json | Error _ -> None in
  let decoded = Service.Request.decode line in
  let id = match decoded with Ok d -> Service.Request.decoded_id d | Error _ -> None in
  let req = match decoded with Ok d -> Service.Request.decoded_req d | Error _ -> None in
  (match (fast, slow) with
  | Ok a, Ok b ->
    same_request a b || QCheck2.Test.fail_report "decoded to a different request"
  | Error a, Error b ->
    a = b || QCheck2.Test.fail_reportf "error %S, oracle %S" a b
  | Ok _, Error b -> QCheck2.Test.fail_reportf "accepted; oracle: %S" b
  | Error a, Ok _ -> QCheck2.Test.fail_reportf "rejected (%S); oracle accepted" a)
  && (Option.equal Jsonl.equal id (member "id")
     || QCheck2.Test.fail_report "echoed id differs")
  && (req = Option.bind (member "req") Jsonl.to_str
     || QCheck2.Test.fail_report "req member differs")
  &&
  match (decoded, tree) with
  | Ok d, Ok json -> (
    match (Service.Request.decoded_spec d, O.Request.spec_of_json json) with
    | Ok (spec, key), Ok spec' ->
      (O.Request.cache_key spec = O.Request.cache_key spec' && key = O.Request.coalesce_key spec')
      || QCheck2.Test.fail_report "route spec differs"
    | Error a, Error b -> a = b || QCheck2.Test.fail_reportf "spec error %S, oracle %S" a b
    | _ -> QCheck2.Test.fail_report "spec verdicts differ")
  | Error a, Error b -> a = b || QCheck2.Test.fail_reportf "syntax error %S, oracle %S" a b
  | _ -> QCheck2.Test.fail_report "syntax verdicts differ"

let prop_request_decode =
  Generators.qtest ~count:2000
    "Request.of_line = tree decode, in request, id, spec or error text"
    line_gen (Printf.sprintf "%S") decodes_like_oracle

let prop_jsonl_parse =
  Generators.qtest ~count:1000 "Jsonl.of_string = recursive-descent oracle"
    line_gen (Printf.sprintf "%S") (fun line ->
      match (Jsonl.of_string line, O.of_string line) with
      | Ok a, Ok b -> Jsonl.equal a b
      | Error a, Error b -> a = b || QCheck2.Test.fail_reportf "%S vs %S" a b
      | _ -> false)

(* Every line the request decoder sees was first cut by read_line: the
   golden stream's lines decode like the oracle too. *)
let golden_lines_decode () =
  In_channel.with_open_bin "golden/wire/requests.ndjson" (fun ic ->
      let rec go n =
        match Jsonl.read_line ic with
        | Jsonl.Eof -> n
        | Jsonl.Oversized _ -> go n
        | Jsonl.Line l | Jsonl.Tail l ->
          if not (decodes_like_oracle l) then Alcotest.failf "line %S" l;
          go (n + 1)
      in
      Alcotest.(check bool) "lines read" true (go 0 > 80))

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)

let float_gen =
  Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl [ 0.; -0.; 1e-7; 0.1; 1.5; 1e15; 1e16; 123456789.123; 1e300; 4.9e-324 ];
        map (fun i -> float_of_int i) (int_range (-100) 100);
      ])

let text_gen = Gen.(string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\001'; '\xc3'; '\xa9'; ' ' ]) (int_range 0 10))

let rec jvalue depth =
  let open Gen in
  let scalar =
    oneof
      [
        return Jsonl.Null;
        map (fun b -> Jsonl.Bool b) bool;
        map (fun i -> Jsonl.Int i) (oneof [ int_range (-1000) 1000; oneofl [ max_int; min_int ] ]);
        map (fun f -> Jsonl.Float f) float_gen;
        map (fun s -> Jsonl.String s) text_gen;
      ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (3, scalar);
        (1, map (fun vs -> Jsonl.List vs) (list_size (int_range 0 3) (jvalue (depth - 1))));
        (1, map (fun kvs -> Jsonl.Obj kvs) (list_size (int_range 0 3) (pair text_gen (jvalue (depth - 1)))));
      ]

let summary_gen =
  let open Gen in
  let int = oneof [ int_range 0 100; int_range (-5) 1_000_000 ] in
  oneof [ oneofl [ "MM+SRS"; "RMA+OMS"; "MTCS+MMS" ]; text_gen ] >>= fun scheme ->
  array_repeat 9 int >>= fun v ->
  bool >|= fun within_limit ->
  {
    Service.Response.scheme;
    mixers = v.(0);
    demand = v.(1);
    tc = v.(2);
    q = v.(3);
    tms = v.(4);
    waste = v.(5);
    input_total = v.(6);
    trees = v.(7);
    passes = v.(8);
    within_limit;
  }

let counters_gen =
  let open Gen in
  let int = oneof [ int_range 0 1000; oneofl [ 1_000_000_000_000_000; max_int ] ] in
  array_repeat 6 int >>= fun v ->
  pair float_gen float_gen >|= fun (avg_storage, mixer_occupancy) ->
  {
    Mdst.Instr.cycles = v.(0);
    fired = v.(1);
    stores = v.(2);
    evictions = v.(3);
    peak_storage = v.(4);
    avg_storage;
    peak_ready = v.(5);
    mixer_occupancy;
  }

let stats_gen =
  let open Gen in
  array_repeat 12 (int_range 0 100_000) >>= fun v ->
  pair float_gen float_gen >>= fun (avg_latency_ms, uptime_s) ->
  triple (opt (jvalue 2)) (opt (jvalue 2)) (opt (jvalue 2)) >|= fun (wal, store, replication) ->
  {
    Service.Response.queue_depth = v.(0);
    workers = v.(1);
    served = v.(2);
    errors = v.(3);
    coalesced = v.(4);
    jobs = v.(5);
    plans_built = v.(6);
    cache =
      { Service.Cache.hits = v.(7); misses = v.(8); evictions = v.(9); size = v.(10); capacity = v.(11) };
    avg_latency_ms;
    uptime_s;
    wal;
    store;
    replication;
  }

let answer_gen =
  let open Gen in
  let body =
    frequency
      [
        ( 4,
          summary_gen >>= fun summary ->
          opt counters_gen >>= fun instr ->
          array_repeat 3 (int_range 0 70_000) >>= fun v ->
          bool >|= fun cache_hit ->
          O.Response.Schedule
            { summary; demand = v.(0); batch_demand = v.(1); coalesced = v.(2); cache_hit; instr } );
        (1, return O.Response.Pong);
        (1, map (fun s -> O.Response.Stats s) stats_gen);
        (1, map (fun m -> O.Response.Error m) text_gen);
      ]
  in
  opt (jvalue 2) >>= fun id ->
  opt (map Float.abs float_gen) >>= fun elapsed_ms ->
  body >|= fun body -> { O.Response.id; elapsed_ms; body }

let prop_response_encode =
  Generators.qtest ~count:1000 "Response.to_line = tree encoding, byte for byte"
    answer_gen
    (fun r -> O.to_string (O.Response.to_json r))
    (fun r ->
      let fast = Service.Response.to_line (O.to_service r) in
      let slow = O.to_string (O.Response.to_json r) in
      fast = slow || QCheck2.Test.fail_reportf "%s" fast)

let prop_print =
  Generators.qtest ~count:1000 "Jsonl.to_string = the printf printer"
    (jvalue 3) O.to_string (fun v -> Jsonl.to_string v = O.to_string v)

(* ------------------------------------------------------------------ *)
(* Allocation guard                                                    *)

(* Drive [hits] pipelined warm cache hits, [window] in flight, through
   the in-process daemon with one worker, and report minor and promoted
   words per hit over the hit phase.  The client writes prepared lines
   and counts answer newlines in a reused buffer, so it allocates
   next to nothing itself. *)
let warm_hit_words ~keys ~hits ~window =
  let server = Service.Server.create ~workers:1 ~cache_capacity:(2 * keys) () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  let serving =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr resp_w in
        Service.Server.serve_channels server ic oc;
        close_out oc;
        close_in ic)
      ()
  in
  let oc = Unix.out_channel_of_descr req_w and ic = Unix.in_channel_of_descr resp_r in
  let line ~mc ~id =
    Printf.sprintf
      "{\"req\": \"prepare\", \"ratio\": \"2:1:1:1:1:1:9\", \"D\": 20, \
       \"algorithm\": \"MM\", \"scheduler\": \"SRS\", \"Mc\": %d, \"id\": %d}\n"
      mc id
  in
  let chunk = Bytes.create 65536 in
  let drive lines =
    let n = Array.length lines and sent = ref 0 and answered = ref 0 in
    let send k =
      for _ = 1 to min k (n - !sent) do
        output_string oc lines.(!sent);
        incr sent
      done;
      flush oc
    in
    send window;
    while !answered < n do
      let got = input ic chunk 0 (Bytes.length chunk) in
      if got = 0 then Alcotest.fail "the daemon hung up";
      let k = ref 0 in
      for i = 0 to got - 1 do
        if Bytes.unsafe_get chunk i = '\n' then incr k
      done;
      answered := !answered + !k;
      send !k
    done
  in
  drive (Array.init keys (fun i -> line ~mc:(i + 1) ~id:i));
  let lines = Array.init hits (fun i -> line ~mc:((i mod keys) + 1) ~id:(keys + i)) in
  let before = Gc.quick_stat () in
  drive lines;
  let after = Gc.quick_stat () in
  close_out oc;
  Thread.join serving;
  close_in ic;
  let stats = Service.Server.stats server in
  Service.Server.stop server;
  Alcotest.(check int) "every request after warm-up hit the cache" hits
    stats.Service.Response.cache.Service.Cache.hits;
  let per x = x /. float_of_int hits in
  ( per (after.Gc.minor_words -. before.Gc.minor_words),
    per (after.Gc.promoted_words -. before.Gc.promoted_words) )

(* Loose on purpose: the warm hit took about 2,400 minor words before
   its codec was made lean and takes about 540 after; the bound only
   has to catch a return to the old tree path. *)
let warm_hits_allocate_little () =
  let minor, promoted = warm_hit_words ~keys:2048 ~hits:20_480 ~window:16 in
  Printf.printf "minor words per warm hit: %.0f, promoted: %.1f\n" minor promoted;
  Alcotest.(check bool)
    (Printf.sprintf "minor words per warm hit %.0f < 1200" minor)
    true (minor < 1200.)

let () =
  Alcotest.run "wire"
    [
      ("read_line", [ prop_read_line; prop_read_line_huge ]);
      ( "request",
        [
          prop_request_decode;
          prop_jsonl_parse;
          Alcotest.test_case "golden request lines decode like the oracle" `Quick
            golden_lines_decode;
        ] );
      ("response", [ prop_response_encode; prop_print ]);
      ( "warm-hits",
        [ Alcotest.test_case "warm hits allocate little" `Quick warm_hits_allocate_little ] );
    ]
