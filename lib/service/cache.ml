(* Classic LRU: a hash table from key to a node of an intrusive doubly
   linked list ordered by recency (head = most recent, tail = next to
   evict).  One mutex guards the whole structure — operations are a few
   pointer swaps, so a finer scheme would buy nothing. *)

type 'v node = {
  key : string;
  mutable value : 'v;
  mutable prev : 'v node option;  (* towards the head (more recent) *)
  mutable next : 'v node option;  (* towards the tail (less recent) *)
}

type 'v t = {
  lock : Mutex.t;
  table : (string, 'v node) Hashtbl.t;
  capacity : int;
  mutable head : 'v node option;
  mutable tail : 'v node option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  size : int;
  capacity : int;
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  {
    lock = Mutex.create ();
    table = Hashtbl.create (max 16 capacity);
    capacity;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
[@@dmflint.allow
  "callback-under-lock: with-lock combinator; dmflint analyzes every \
   caller's closure under t.lock via param_held"]

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find (t : 'v t) key =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        t.hits <- t.hits + 1;
        unlink t n;
        push_front t n;
        Some n.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let evict_tail (t : 'v t) =
  match t.tail with
  | None -> ()
  | Some n ->
    unlink t n;
    Hashtbl.remove t.table n.key;
    t.evictions <- t.evictions + 1

let add (t : 'v t) key value =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some n ->
          n.value <- value;
          unlink t n;
          push_front t n
        | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.table key n;
          push_front t n);
        while Hashtbl.length t.table > t.capacity do
          evict_tail t
        done)

let peek t key =
  locked t (fun () ->
      Option.map (fun n -> n.value) (Hashtbl.find_opt t.table key))

let bindings t =
  locked t (fun () ->
      let rec walk acc = function
        | None -> List.rev acc
        | Some n -> walk ((n.key, n.value) :: acc) n.next
      in
      walk [] t.head)

let keys t = List.map fst (bindings t)
let values t = List.map snd (bindings t)

let stats (t : 'v t) =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        size = Hashtbl.length t.table;
        capacity = t.capacity;
      })

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None)
