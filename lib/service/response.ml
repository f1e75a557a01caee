type summary = {
  scheme : string;
  mixers : int;
  demand : int;
  tc : int;
  q : int;
  tms : int;
  waste : int;
  input_total : int;
  trees : int;
  passes : int;
  within_limit : bool;
}

let summary_of_metrics (m : Mdst.Metrics.t) =
  {
    scheme = m.Mdst.Metrics.scheme;
    mixers = m.Mdst.Metrics.mixers;
    demand = m.Mdst.Metrics.demand;
    tc = m.Mdst.Metrics.tc;
    q = m.Mdst.Metrics.q;
    tms = m.Mdst.Metrics.tms;
    waste = m.Mdst.Metrics.waste;
    input_total = m.Mdst.Metrics.input_total;
    trees = m.Mdst.Metrics.trees;
    passes = m.Mdst.Metrics.passes;
    within_limit = true;
  }

type stats = {
  queue_depth : int;
  workers : int;
  served : int;
  errors : int;
  coalesced : int;
  jobs : int;
  plans_built : int;
  cache : Cache.stats;
  avg_latency_ms : float;
  uptime_s : float;
  wal : Jsonl.t option;
  store : Jsonl.t option;
  replication : Jsonl.t option;
}

(* The bytes of a schedule answer that depend on the plan alone, in
   wire order around the per-answer members: [head] before "D",
   [body] between "batch_D" and "coalesced", [instr] (with its leading
   separator, or empty) after "cache_hit". *)
type answer = { head : string; body : string; instr : string }

let member buf key =
  Buffer.add_string buf ", \"";
  Buffer.add_string buf key;
  Buffer.add_string buf "\": "

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let encoded f =
  let buf = Buffer.create 128 in
  f buf;
  Buffer.contents buf

let answer (s : summary) instr =
  let int buf key v =
    member buf key;
    Jsonl.write_int buf v
  in
  let head =
    encoded (fun buf ->
        Buffer.add_string buf "\"scheme\": ";
        Jsonl.write_string buf s.scheme;
        int buf "Mc" s.mixers)
  in
  let body =
    encoded (fun buf ->
        Buffer.add_string buf "\"Tc\": ";
        Jsonl.write_int buf s.tc;
        int buf "q" s.q;
        int buf "Tms" s.tms;
        int buf "W" s.waste;
        int buf "I" s.input_total;
        int buf "trees" s.trees;
        int buf "passes" s.passes;
        member buf "within_limit";
        add_bool buf s.within_limit)
  in
  let instr =
    match instr with
    | None -> ""
    | Some c ->
      encoded (fun buf ->
          member buf "instr";
          Buffer.add_char buf '{';
          List.iteri
            (fun i (k, v) ->
              if i > 0 then Buffer.add_string buf ", ";
              Jsonl.write_string buf k;
              Buffer.add_string buf ": ";
              if Float.is_integer v && Float.abs v < 1e15 then
                Jsonl.write_int buf (int_of_float v)
              else Jsonl.write_float buf v)
            (Mdst.Instr.counters_to_fields c);
          Buffer.add_char buf '}')
  in
  { head; body; instr }

type body =
  | Schedule of {
      answer : answer;
      demand : int;
      batch_demand : int;
      coalesced : int;
      cache_hit : bool;
    }
  | Pong
  | Stats of stats
  | Error of string

type t = { id : Jsonl.t option; elapsed_ms : float option; body : body }

let ok t = match t.body with Error _ -> false | _ -> true

let stats_fields s =
  [
    ("queue_depth", Jsonl.Int s.queue_depth);
    ("workers", Jsonl.Int s.workers);
    ("served", Jsonl.Int s.served);
    ("errors", Jsonl.Int s.errors);
    ("coalesced", Jsonl.Int s.coalesced);
    ("jobs", Jsonl.Int s.jobs);
    ("plans_built", Jsonl.Int s.plans_built);
    ( "cache",
      Jsonl.Obj
        [
          ("hits", Jsonl.Int s.cache.Cache.hits);
          ("misses", Jsonl.Int s.cache.Cache.misses);
          ("evictions", Jsonl.Int s.cache.Cache.evictions);
          ("size", Jsonl.Int s.cache.Cache.size);
          ("capacity", Jsonl.Int s.cache.Cache.capacity);
        ] );
    ("avg_latency_ms", Jsonl.Float s.avg_latency_ms);
    ("uptime_s", Jsonl.Float s.uptime_s);
  ]
  @ (match s.wal with Some w -> [ ("wal", w) ] | None -> [])
  @ (match s.store with Some st -> [ ("plan_store", st) ] | None -> [])
  @ match s.replication with Some r -> [ ("replication", r) ] | None -> []

let write buf t =
  Buffer.add_string buf
    (match t.body with
    | Schedule _ -> "{\"ok\": true, \"req\": \"prepare\""
    | Pong -> "{\"ok\": true, \"req\": \"ping\""
    | Stats _ -> "{\"ok\": true, \"req\": \"stats\""
    | Error _ -> "{\"ok\": false, \"req\": \"error\"");
  (match t.id with
  | Some v ->
    member buf "id";
    Jsonl.write buf v
  | None -> ());
  (match t.body with
  | Pong -> ()
  | Error msg ->
    member buf "error";
    Jsonl.write_string buf msg
  | Schedule { answer; demand; batch_demand; coalesced; cache_hit } ->
    Buffer.add_string buf ", ";
    Buffer.add_string buf answer.head;
    member buf "D";
    Jsonl.write_int buf demand;
    member buf "batch_D";
    Jsonl.write_int buf batch_demand;
    Buffer.add_string buf ", ";
    Buffer.add_string buf answer.body;
    member buf "coalesced";
    Jsonl.write_int buf coalesced;
    member buf "cache_hit";
    add_bool buf cache_hit;
    Buffer.add_string buf answer.instr
  | Stats s ->
    List.iter
      (fun (k, v) ->
        member buf k;
        Jsonl.write buf v)
      (stats_fields s));
  (match t.elapsed_ms with
  | Some ms ->
    member buf "elapsed_ms";
    Jsonl.write_float buf ms
  | None -> ());
  Buffer.add_char buf '}'

let to_line t = encoded (fun buf -> write buf t)
