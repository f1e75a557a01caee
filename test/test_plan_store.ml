(* The canonical plan codec and the content-addressed plan store:
   pinned golden byte vectors (a silent codec change must break the
   build, per the version-bump rule in DESIGN.md), QCheck roundtrips
   over engine output, differential checks that a store-decoded plan is
   bit-identical to a freshly planned one (schedule, storage
   accounting, report output), corruption/truncation/version-mismatch
   fallback to re-planning, GC size bounds, and recovery priming from
   the store. *)

open QCheck2

let with_temp_dir f =
  let dir = Filename.temp_dir "plan-store-test" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let spec_of ?(demand = 20) ?(mixers = Some 3) ?storage_limit
    ?(algorithm = Mixtree.Algorithm.MM) ?(scheduler = Mdst.Scheduler.srs) ratio
    =
  { Service.Request.ratio; demand; algorithm; scheduler; mixers; storage_limit }

let prepare_spec (spec : Service.Request.spec) =
  Mdst.Engine.prepare
    {
      Mdst.Engine.ratio = spec.Service.Request.ratio;
      demand = spec.Service.Request.demand;
      algorithm = spec.Service.Request.algorithm;
      scheduler = spec.Service.Request.scheduler;
      mixers = spec.Service.Request.mixers;
    }

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

(* ------------------------------------------------------------------ *)
(* Golden vectors                                                      *)

(* The full canonical bytes of the MM+SRS plan and schedule for 3:1 at
   demand 2 (4 nodes, 2 trees).  These pins are the codec's contract:
   any byte-level change — field order, widths, a new field — must bump
   Plan_codec.version AND update these vectors deliberately. *)
let tiny_plan_hex =
  "50010200000003000000010000000200000078310200000078320200000000000000020000000100000001000000020000000200000001000000000000000100000000000000010000000000000000000000000001000000010000000200000001000000020000000200000000000000030000000000000001000000000000000000000000010000000000010000000100000002000000020000000000000003000000000000000100000000000000"

let tiny_sched_hex = "5301010000000200000001000000020000000100000001000000"

let tiny_result () =
  prepare_spec (spec_of ~demand:2 ~mixers:None (Dmf.Ratio.of_string "3:1"))

let golden_tiny () =
  let r = tiny_result () in
  Alcotest.(check string)
    "plan bytes pinned" tiny_plan_hex
    (hex (Mdst.Plan_codec.encode_plan r.Mdst.Engine.plan));
  Alcotest.(check string)
    "schedule bytes pinned" tiny_sched_hex
    (hex
       (Mdst.Plan_codec.encode_schedule ~plan:r.Mdst.Engine.plan
          r.Mdst.Engine.schedule))

(* The pcr16 plan is too large to pin byte-for-byte; its length, CRC
   and content hash pin it just as hard. *)
let golden_pcr16 () =
  let r = prepare_spec (spec_of Generators.pcr16) in
  let pb = Mdst.Plan_codec.encode_plan r.Mdst.Engine.plan in
  let sb =
    Mdst.Plan_codec.encode_schedule ~plan:r.Mdst.Engine.plan
      r.Mdst.Engine.schedule
  in
  Alcotest.(check int) "plan length" 3271 (String.length pb);
  Alcotest.(check int) "plan crc" 0x99360740 (Mdst.Crc32.string pb);
  Alcotest.(check string) "plan hash" "a6ead5fc533b3edb37bf9592a42b748a"
    (Mdst.Plan_codec.hash_hex pb);
  Alcotest.(check int) "schedule length" 226 (String.length sb);
  Alcotest.(check int) "schedule crc" 0x19E1015B (Mdst.Crc32.string sb)

let golden_spec_key () =
  let spec = spec_of Generators.pcr16 in
  Alcotest.(check string) "spec preimage pinned"
    "4b01070000000200000001000000010000000100000001000000010000000900000014000000020000004d4d03000000535253010300000000"
    (hex (Durable.Plan_store.spec_bytes spec));
  Alcotest.(check string) "spec key pinned" "f26f03fde83432b127f9f9ff1193b88c"
    (Durable.Plan_store.key_of_spec spec)

let golden_hash () =
  Alcotest.(check string) "empty" "f52a15e9a9b5e89be220a8397b1dcdaf"
    (Mdst.Plan_codec.hash_hex "");
  Alcotest.(check string) "abc" "0dd490490804b508351d88a9dce78d10"
    (Mdst.Plan_codec.hash_hex "abc")

(* Ratio names label reports but never change a plan, so — like
   Request.cache_key — the store key must ignore them, or two shards
   naming fluids differently would duplicate every entry. *)
let key_ignores_names () =
  let parts = [| 3; 1 |] in
  let a = spec_of (Dmf.Ratio.make parts) in
  let b = spec_of (Dmf.Ratio.make ~names:[| "blood"; "buffer" |] parts) in
  Alcotest.(check string)
    "same key" (Durable.Plan_store.key_of_spec a)
    (Durable.Plan_store.key_of_spec b);
  let c = spec_of ~demand:21 (Dmf.Ratio.make parts) in
  Alcotest.(check bool) "demand changes the key" false
    (Durable.Plan_store.key_of_spec a = Durable.Plan_store.key_of_spec c)

(* ------------------------------------------------------------------ *)
(* Roundtrips                                                          *)

let engine_spec_gen =
  let open Gen in
  Generators.ratio_gen >>= fun ratio ->
  Generators.algorithm_gen >>= fun algorithm ->
  Generators.demand_gen >|= fun demand ->
  spec_of ~demand ~mixers:None ~algorithm ratio

let spec_print (s : Service.Request.spec) = Service.Request.cache_key s

let roundtrip_plan =
  Generators.qtest ~count:60 "encode/decode plan = id" engine_spec_gen
    spec_print (fun spec ->
      let r = prepare_spec spec in
      let bytes = Mdst.Plan_codec.encode_plan r.Mdst.Engine.plan in
      match Mdst.Plan_codec.decode_plan bytes with
      | Error msg -> Test.fail_reportf "decode failed: %s" msg
      | Ok plan ->
        (* Canonicality: the decoded value re-encodes to the same
           bytes, so byte equality is value equality. *)
        String.equal bytes (Mdst.Plan_codec.encode_plan plan))

let roundtrip_schedule =
  Generators.qtest ~count:60 "encode/decode schedule = id" engine_spec_gen
    spec_print (fun spec ->
      let r = prepare_spec spec in
      let plan = r.Mdst.Engine.plan in
      let bytes =
        Mdst.Plan_codec.encode_schedule ~plan r.Mdst.Engine.schedule
      in
      match Mdst.Plan_codec.decode_schedule ~plan bytes with
      | Error msg -> Test.fail_reportf "decode failed: %s" msg
      | Ok s -> String.equal bytes (Mdst.Plan_codec.encode_schedule ~plan s))

let roundtrip_prepared =
  Generators.qtest ~count:40 "encode/decode prepared = id" engine_spec_gen
    spec_print (fun spec ->
      let prepared = Service.Prep.run spec in
      let bytes = Durable.Plan_store.encode_prepared prepared in
      match Durable.Plan_store.decode_prepared bytes with
      | Error msg -> Test.fail_reportf "decode failed: %s" msg
      | Ok p ->
        p.Service.Prep.summary = prepared.Service.Prep.summary
        && p.Service.Prep.instr = prepared.Service.Prep.instr
        && String.equal bytes (Durable.Plan_store.encode_prepared p))

(* Streaming runs carry no plan (prepared.plan = None); the codec must
   round-trip that shape too. *)
let roundtrip_streaming () =
  let spec = spec_of ~storage_limit:4 Generators.pcr16 in
  let prepared = Service.Prep.run spec in
  Alcotest.(check bool) "streaming run has no plan" true
    (prepared.Service.Prep.plan = None);
  let bytes = Durable.Plan_store.encode_prepared prepared in
  match Durable.Plan_store.decode_prepared bytes with
  | Error msg -> Alcotest.failf "decode failed: %s" msg
  | Ok p ->
    Alcotest.(check bool) "summary survives" true
      (p.Service.Prep.summary = prepared.Service.Prep.summary);
    Alcotest.(check string) "re-encode identical" (hex bytes)
      (hex (Durable.Plan_store.encode_prepared p))

(* Recovery plans carry Reserve sources (salvaged droplets seed the
   forest) — the one plan shape the service never produces, and the
   reason the codec encodes reserve mixtures at all. *)
let roundtrip_reserves () =
  let r = prepare_spec (spec_of ~demand:8 Generators.pcr16) in
  let salvage =
    Mdst.Recovery.recover ~algorithm:Mixtree.Algorithm.MM
      ~plan:r.Mdst.Engine.plan ~schedule:r.Mdst.Engine.schedule ~failed_node:2
  in
  match salvage.Mdst.Recovery.recovery_plan with
  | None -> Alcotest.fail "expected a recovery plan"
  | Some plan ->
    Alcotest.(check bool) "plan has reserves" true
      (Array.length (Mdst.Plan.reserves plan) > 0);
    let bytes = Mdst.Plan_codec.encode_plan plan in
    (match Mdst.Plan_codec.decode_plan bytes with
    | Error msg -> Alcotest.failf "decode failed: %s" msg
    | Ok plan' ->
      Alcotest.(check string) "re-encode identical" (hex bytes)
        (hex (Mdst.Plan_codec.encode_plan plan')))

(* Every flipped byte is either rejected — by the wire reader, a
   value-validation cross-check, or the final constructor — or decodes
   to a plan whose canonical bytes are exactly the flipped buffer (a
   flip in a ratio name, say, is a legitimately different plan).  What
   must never happen is silent normalization: a buffer that decodes
   but re-encodes to something else. *)
let decode_rejects_flips =
  Generators.qtest ~count:40 "no corrupt plan decodes silently"
    Gen.(pair (int_range 0 1000) (int_range 1 255))
    (fun (pos, delta) -> Printf.sprintf "pos=%d delta=%d" pos delta)
    (fun (pos, delta) ->
      let r = tiny_result () in
      let bytes = Bytes.of_string (Mdst.Plan_codec.encode_plan r.Mdst.Engine.plan) in
      let pos = pos mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr ((Char.code (Bytes.get bytes pos) + delta) land 0xFF));
      let flipped = Bytes.to_string bytes in
      match Mdst.Plan_codec.decode_plan flipped with
      | Error _ -> true
      | Ok plan -> String.equal flipped (Mdst.Plan_codec.encode_plan plan))

(* A body that is well formed in every byte but asks for more droplets
   than its roots emit passes the codec's own checks and is refused by
   the plan validation, with its text.  The D = 1 and D = 2 forests of
   3:1 are one tree each, so their encodings differ in the demand
   alone; that byte is raised to 3. *)
let decode_keeps_error_text () =
  let encode demand =
    Mdst.Plan_codec.encode_plan
      (Mdst.Forest.build ~algorithm:Mixtree.Algorithm.MM
         ~ratio:(Dmf.Ratio.of_string "3:1") ~demand)
  in
  let one = encode 1 and two = encode 2 in
  let differing =
    List.filter
      (fun i -> one.[i] <> two.[i])
      (List.init (String.length two) Fun.id)
  in
  Alcotest.(check (list int)) "only the demand differs" [ 26 ] differing;
  let bytes = Bytes.of_string two in
  Bytes.set bytes 26 '\003';
  Alcotest.(check (result reject string))
    "demand 3 over one tree"
    (Error "Plan.create: only 2 targets for demand 3")
    (Result.map ignore (Mdst.Plan_codec.decode_plan (Bytes.to_string bytes)))

(* ------------------------------------------------------------------ *)
(* Differential: store-decoded = freshly planned                       *)

(* The acceptance bar for priming recovery from the store instead of
   re-planning (PR 5's determinism guarantee): across a corpus slice,
   the decoded plan is bit-identical to a fresh plan — same canonical
   bytes, same schedule, same storage accounting, same rendered
   report. *)
let differential_corpus () =
  with_temp_dir (fun dir ->
      let store = Durable.Plan_store.open_store ~dir () in
      let specs =
        List.concat_map
          (fun ratio ->
            [
              spec_of ~demand:8 ~mixers:None ratio;
              spec_of ~demand:8 ~mixers:None ~algorithm:Mixtree.Algorithm.RMA
                ~scheduler:Mdst.Scheduler.mms ratio;
            ])
          (Lazy.force Generators.corpus_slice)
      in
      List.iter
        (fun spec ->
          let fresh = Service.Prep.run spec in
          Durable.Plan_store.add store spec fresh;
          match Durable.Plan_store.find store spec with
          | None -> Alcotest.fail "stored entry not found"
          | Some decoded -> (
            Alcotest.(check bool) "summary identical" true
              (decoded.Service.Prep.summary = fresh.Service.Prep.summary);
            Alcotest.(check bool) "instr identical" true
              (decoded.Service.Prep.instr = fresh.Service.Prep.instr);
            match
              ( fresh.Service.Prep.plan,
                fresh.Service.Prep.schedule,
                decoded.Service.Prep.plan,
                decoded.Service.Prep.schedule )
            with
            | Some fp, Some fs, Some dp, Some ds ->
              Alcotest.(check string) "plan bytes identical"
                (hex (Mdst.Plan_codec.encode_plan fp))
                (hex (Mdst.Plan_codec.encode_plan dp));
              Alcotest.(check string) "schedule bytes identical"
                (hex (Mdst.Plan_codec.encode_schedule ~plan:fp fs))
                (hex (Mdst.Plan_codec.encode_schedule ~plan:dp ds));
              Alcotest.(check int) "storage accounting identical"
                (Mdst.Storage.units ~plan:fp fs)
                (Mdst.Storage.units ~plan:dp ds);
              Alcotest.(check string) "report output identical"
                (Mdst.Gantt.render ~plan:fp fs)
                (Mdst.Gantt.render ~plan:dp ds)
            | _ -> Alcotest.fail "expected single-pass plans"))
        specs;
      let s = Durable.Plan_store.stats store in
      Alcotest.(check int) "all lookups hit" (List.length specs)
        s.Durable.Plan_store.hits;
      Alcotest.(check int) "no decode errors" 0 s.Durable.Plan_store.errors)

(* ------------------------------------------------------------------ *)
(* Store behavior: corruption, truncation, version drift, GC           *)

let entry_file dir =
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n ->
           Filename.check_suffix n ".plan" && String.length n > 8)
  with
  | [ name ] -> Filename.concat dir name
  | files -> Alcotest.failf "expected exactly one entry, got %d" (List.length files)

let store_one dir =
  let store = Durable.Plan_store.open_store ~dir () in
  let spec = spec_of Generators.pcr16 in
  Durable.Plan_store.add store spec (Service.Prep.run spec);
  (store, spec)

let rewrite path f =
  let image = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (f image))

let check_falls_back store spec path =
  Alcotest.(check bool) "read as a miss" true
    (Durable.Plan_store.find store spec = None);
  Alcotest.(check bool) "bad entry deleted" false (Sys.file_exists path);
  let s = Durable.Plan_store.stats store in
  Alcotest.(check bool) "error counted" true (s.Durable.Plan_store.errors > 0);
  (* The server path this protects: a store returning None falls back
     to Prep.run, so the corrupt entry costs a re-plan, not a wrong
     answer.  Re-adding through the normal path must heal the store. *)
  Durable.Plan_store.add store spec (Service.Prep.run spec);
  Alcotest.(check bool) "healed after re-plan" true
    (Durable.Plan_store.find store spec <> None)

let corrupt_entry () =
  with_temp_dir (fun dir ->
      let store, spec = store_one dir in
      let path = entry_file dir in
      rewrite path (fun image ->
          (* Flip one payload byte mid-file; the CRC trailer now lies. *)
          let b = Bytes.of_string image in
          let pos = Bytes.length b / 2 in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
          Bytes.to_string b);
      check_falls_back store spec path)

let truncated_entry () =
  with_temp_dir (fun dir ->
      let store, spec = store_one dir in
      let path = entry_file dir in
      rewrite path (fun image -> String.sub image 0 (String.length image / 2));
      check_falls_back store spec path)

let version_mismatch () =
  with_temp_dir (fun dir ->
      let store, spec = store_one dir in
      let path = entry_file dir in
      (* Bump the payload's version byte and re-frame with a valid CRC:
         only the version check can reject this one. *)
      let prepared = Service.Prep.run spec in
      let payload = Bytes.of_string (Durable.Plan_store.encode_prepared prepared) in
      Bytes.set payload 1 (Char.chr (Mdst.Plan_codec.version + 1));
      rewrite path (fun _ ->
          Durable.Plan_store.encode_entry
            ~spec_key:(Durable.Plan_store.spec_bytes spec)
            ~payload:(Bytes.to_string payload));
      check_falls_back store spec path)

(* A colliding entry: right hash (same filename), wrong embedded spec
   bytes.  find must treat it as absent, not decode it. *)
let collision_guard () =
  with_temp_dir (fun dir ->
      let store, spec = store_one dir in
      let path = entry_file dir in
      let prepared = Service.Prep.run spec in
      rewrite path (fun _ ->
          Durable.Plan_store.encode_entry ~spec_key:"not-the-same-spec"
            ~payload:(Durable.Plan_store.encode_prepared prepared));
      check_falls_back store spec path)

let gc_bounds () =
  with_temp_dir (fun dir ->
      (* Small bound: a handful of pcr16-sized entries exceed it, so
         every add past the bound triggers collection down to 80%. *)
      let max_bytes = 16 * 1024 in
      let store = Durable.Plan_store.open_store ~max_bytes ~dir () in
      List.iter
        (fun demand ->
          let spec = spec_of ~demand Generators.pcr16 in
          Durable.Plan_store.add store spec (Service.Prep.run spec))
        [ 4; 8; 12; 16; 20; 24; 28; 32 ];
      let s = Durable.Plan_store.stats store in
      Alcotest.(check bool) "under the bound" true
        (s.Durable.Plan_store.bytes <= max_bytes);
      Alcotest.(check bool) "gc ran" true (s.Durable.Plan_store.gc_runs > 0);
      Alcotest.(check bool) "gc removed entries" true
        (s.Durable.Plan_store.gc_removed > 0);
      Alcotest.(check int) "every add wrote" 8 s.Durable.Plan_store.writes)

(* ------------------------------------------------------------------ *)
(* Server integration: prime from the store                            *)

let prime_from_store () =
  with_temp_dir (fun dir ->
      let specs =
        [
          spec_of ~demand:4 Generators.pcr16;
          spec_of ~demand:8 Generators.pcr16;
          spec_of ~demand:4 (Dmf.Ratio.of_string "3:1");
        ]
      in
      (* Cold boot: nothing stored, everything re-planned — and written
         through, so the next boot can prime from disk. *)
      let store = Durable.Plan_store.open_store ~dir () in
      let server =
        Service.Server.create ~workers:1 ~cache_capacity:16
          ~store:(Durable.Plan_store.to_store store) ()
      in
      let primed = Service.Server.prime server ~cache:specs ~pending:[] in
      Alcotest.(check int) "cold: all re-planned" (List.length specs)
        primed.Service.Server.replanned;
      Alcotest.(check int) "cold: none from store" 0
        primed.Service.Server.from_store;
      Service.Server.stop server;
      (* Warm boot: a fresh handle on the same directory primes every
         plan from the store. *)
      let store2 = Durable.Plan_store.open_store ~dir () in
      let server2 =
        Service.Server.create ~workers:1 ~cache_capacity:16
          ~store:(Durable.Plan_store.to_store store2) ()
      in
      let primed2 = Service.Server.prime server2 ~cache:specs ~pending:[] in
      Alcotest.(check int) "warm: all from store" (List.length specs)
        primed2.Service.Server.from_store;
      Alcotest.(check int) "warm: none re-planned" 0
        primed2.Service.Server.replanned;
      (* The primed cache is the real thing: both servers hold equal
         cache keys in equal recency order. *)
      Alcotest.(check (list string)) "cache keys identical"
        (Service.Server.cache_keys server)
        (Service.Server.cache_keys server2);
      Service.Server.stop server2;
      (* Corrupt one entry: the next boot primes the other two from the
         store and falls back to re-planning just that one. *)
      let store3 = Durable.Plan_store.open_store ~dir () in
      let victim = Durable.Plan_store.entry_path store3 (List.hd specs) in
      rewrite victim (fun image -> String.sub image 0 10);
      let server3 =
        Service.Server.create ~workers:1 ~cache_capacity:16
          ~store:(Durable.Plan_store.to_store store3) ()
      in
      let primed3 = Service.Server.prime server3 ~cache:specs ~pending:[] in
      Alcotest.(check int) "corrupt entry re-planned" 1
        primed3.Service.Server.replanned;
      Alcotest.(check int) "rest from store" (List.length specs - 1)
        primed3.Service.Server.from_store;
      Service.Server.stop server3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "plan_store"
    [
      ( "golden",
        [
          Alcotest.test_case "tiny plan and schedule bytes" `Quick golden_tiny;
          Alcotest.test_case "pcr16 length, crc, hash" `Quick golden_pcr16;
          Alcotest.test_case "spec preimage and key" `Quick golden_spec_key;
          Alcotest.test_case "hash_hex vectors" `Quick golden_hash;
          Alcotest.test_case "key ignores ratio names" `Quick key_ignores_names;
        ] );
      ( "roundtrip",
        [
          roundtrip_plan;
          roundtrip_schedule;
          roundtrip_prepared;
          Alcotest.test_case "streaming prepared (no plan)" `Quick
            roundtrip_streaming;
          Alcotest.test_case "recovery plan with reserves" `Quick
            roundtrip_reserves;
          decode_rejects_flips;
          Alcotest.test_case "demand over targets keeps its text" `Quick
            decode_keeps_error_text;
        ] );
      ( "differential",
        [
          Alcotest.test_case "store-decoded = freshly planned" `Slow
            differential_corpus;
        ] );
      ( "store",
        [
          Alcotest.test_case "corrupt entry falls back" `Quick corrupt_entry;
          Alcotest.test_case "truncated entry falls back" `Quick
            truncated_entry;
          Alcotest.test_case "version mismatch falls back" `Quick
            version_mismatch;
          Alcotest.test_case "hash-collision guard" `Quick collision_guard;
          Alcotest.test_case "gc keeps the store bounded" `Quick gc_bounds;
        ] );
      ( "server",
        [
          Alcotest.test_case "prime from store, fallback on corruption" `Quick
            prime_from_store;
        ] );
    ]
