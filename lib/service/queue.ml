type outcome = {
  prepared : Prep.prepared;
  batch_demand : int;
  coalesced : int;
  cache_hit : bool;
}

(* One result cell per job, shared by all its waiters. *)
type job = {
  key : string;
  mutable spec : Request.spec;  (* demand = sum over waiters *)
  mutable requests : int;
  cell_lock : Mutex.t;
  cell_cond : Condition.t;
  mutable result : (outcome, string) result option;
}

type ticket = { job : job; my_demand : int }

type t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  pending : job Stdlib.Queue.t;
  by_key : (string, job) Hashtbl.t;  (* pending jobs only *)
  capacity : int;
  on_admit : (Request.spec -> unit) option;
  mutable coalesced : int;
  mutable closed : bool;
}

let create ?on_admit ~capacity () =
  if capacity < 1 then invalid_arg "Queue.create: capacity must be positive";
  {
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    pending = Stdlib.Queue.create ();
    by_key = Hashtbl.create 64;
    capacity;
    on_admit;
    coalesced = 0;
    closed = false;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f
[@@dmflint.allow
  "callback-under-lock: with-lock combinator; dmflint analyzes every \
   caller's closure under t.lock via param_held, so the indirect call \
   here is the mechanism, not an escape hatch"]

let new_job key spec =
  {
    key;
    spec;
    requests = 1;
    cell_lock = Mutex.create ();
    cell_cond = Condition.create ();
    result = None;
  }

(* The admission hook runs under the queue lock, before the request
   joins a job: what it observes (e.g. what the WAL journals) is
   exactly the admission order, and an admitted request is journaled
   strictly before its job can complete.  A hook that raises (a WAL
   whose fsync failed) refuses the request, which then gets an error
   answer instead of a job. *)
let admit t (spec : Request.spec) quiet enter =
  match
    match t.on_admit with
    | Some hook when not quiet -> hook spec
    | Some _ | None -> ()
  with
  | () -> Ok (enter ())
  | exception e -> Error ("request not admitted: " ^ Printexc.to_string e)

let submit ?(quiet = false) t ~key (spec : Request.spec) =
  locked t (fun () ->
      if t.closed then Error "server is shutting down"
      else
        match Hashtbl.find_opt t.by_key key with
        | Some job
          when job.spec.Request.demand + spec.Request.demand
               <= Validate.max_demand ->
          (* Merge: sum the demand, remember our share. *)
          admit t spec quiet (fun () ->
              job.spec <-
                {
                  job.spec with
                  Request.demand = job.spec.Request.demand + spec.Request.demand;
                };
              job.requests <- job.requests + 1;
              t.coalesced <- t.coalesced + 1;
              { job; my_demand = spec.Request.demand })
        | Some _ | None ->
          (* New pending job; block while the queue is full. *)
          let rec wait_for_room () =
            if t.closed then Error "server is shutting down"
            else if Stdlib.Queue.length t.pending >= t.capacity then begin
              Condition.wait t.not_full t.lock;
              wait_for_room ()
            end
            else
              admit t spec quiet (fun () ->
                  let job = new_job key spec in
                  Stdlib.Queue.push job t.pending;
                  (* A fuller batch may already exist under this key when
                     the merge above hit the demand cap; the newest pending
                     job is the one later requests coalesce into. *)
                  Hashtbl.replace t.by_key key job;
                  Condition.signal t.not_empty;
                  { job; my_demand = spec.Request.demand })
          in
          wait_for_room ())
[@@dmflint.allow
  "callback-under-lock: the on_admit hook deliberately runs under the \
   queue lock so it observes exact admission order (the WAL journals \
   an accepted request strictly before its job can complete); the \
   hook's contract is non-blocking and lock-free, see the comment on \
   [admit]"]

let take t =
  locked t (fun () ->
      let rec wait_for_job () =
        match Stdlib.Queue.take_opt t.pending with
        | Some job ->
          (* From here on the job is frozen: forget the key so identical
             later requests start a fresh job instead of mutating one a
             worker is already planning. *)
          (match Hashtbl.find_opt t.by_key job.key with
          | Some j when j == job -> Hashtbl.remove t.by_key job.key
          | Some _ | None -> ());
          Condition.signal t.not_full;
          Some job
        | None ->
          if t.closed then None
          else begin
            Condition.wait t.not_empty t.lock;
            wait_for_job ()
          end
      in
      wait_for_job ())

let job_spec job = job.spec
let job_key job = job.key
let job_requests job = job.requests

let fulfil job result =
  Mutex.lock job.cell_lock;
  if job.result = None then begin
    job.result <- Some result;
    Condition.broadcast job.cell_cond
  end;
  Mutex.unlock job.cell_lock

let wait ticket =
  let job = ticket.job in
  Mutex.lock job.cell_lock;
  let rec loop () =
    match job.result with
    | Some r -> r
    | None ->
      Condition.wait job.cell_cond job.cell_lock;
      loop ()
  in
  let r = loop () in
  Mutex.unlock job.cell_lock;
  r

let ticket_demand ticket = ticket.my_demand

let depth t = locked t (fun () -> Stdlib.Queue.length t.pending)
let coalesced_total t = locked t (fun () -> t.coalesced)

let close t =
  locked t (fun () ->
      t.closed <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)
