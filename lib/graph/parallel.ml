let available () = Domain.recommended_domain_count ()

(* Explicit requests may use up to 2 domains even on a single-core host:
   oversubscription is safe (just not faster), and it keeps the
   multi-domain code path exercisable by tests on any machine. *)
let max_domains () = max 2 (available ())
let clamp d = max 1 (min d (max_domains ()))
let default_domains = ref 1 (* fg-lint: single-writer main — set once at CLI parse *)
let default () = !default_domains
let set_default d = default_domains := clamp d

let resolve = function None -> !default_domains | Some d -> clamp d

(* ---- persistent worker pool ----

   Spawning a domain costs tens of microseconds plus a minor-heap and GC
   registration dance; doing it per [map] call made [stretch.parallel:4]
   slower than the serial run. Instead the first multi-domain call spawns
   [max_domains () - 1] workers that park on a condition variable; each
   subsequent call publishes a job closure, bumps a sequence number and
   broadcasts. Jobs gate participation with an atomic ticket counter so a
   call that resolved to [d] domains runs on the caller plus [d - 1]
   workers — surplus workers take no ticket, skip the job's [init], and go
   straight back to sleep. *)

exception Stopped

(* ---- the work-ticket protocol ----

   The lock-free heart of a barrier job: an atomic ticket counter gates
   which workers participate (a call resolved to [d] domains hands out
   [d - 1] tickets; surplus parked workers take none and go back to
   sleep), an atomic item counter deals out work indices, and a CAS cell
   keeps the first exception. Factored out as a functor over
   {!Atomic_intf.S} so fg_race can drive this exact claim protocol
   through a traced scheduler and assert no index is ever dealt twice or
   lost. *)

module Ticket = struct
  module Make (A : Atomic_intf.S) = struct
    type t = { tickets : int A.t; next : int A.t; err : exn option A.t }

    let create ~participants =
      if participants < 0 then invalid_arg "Parallel.Ticket.create: participants < 0";
      { tickets = A.make participants; next = A.make 0; err = A.make None }

    (* one ticket per extra participant; the caller's domain never takes
       one (it always participates) *)
    let join t = A.fetch_and_add t.tickets (-1) > 0

    let next_index t ~limit =
      let i = A.fetch_and_add t.next 1 in
      if i < limit then Some i else None

    (* first failure wins; later ones are dropped (their indices are
       already consumed, so the caller re-raises exactly one) *)
    let fail t e = ignore (A.compare_and_set t.err None (Some e))
    let failure t = A.get t.err
  end

  include Make (Atomic)
end

(* Detached tasks ([submit]/[await]) ride on the same parked workers as
   barrier jobs. Each task carries its own mutex/condvar so awaiters
   never contend on the pool lock. *)
type task_state = Pending | Done | Failed of exn

type task = {
  t_mu : Mutex.t;
  t_cond : Condition.t;
  mutable t_state : task_state; (* fg-lint: guarded-by t_mu *)
  t_fn : unit -> unit;
}

type pool = {
  mu : Mutex.t;
  work : Condition.t;  (* workers park here between jobs *)
  idle : Condition.t;  (* the submitter parks here until [busy] drains *)
  mutable job : (unit -> unit) option; (* fg-lint: guarded-by mu *)
  mutable seq : int; (* fg-lint: guarded-by mu *)
  mutable busy : int; (* fg-lint: guarded-by mu *)
  mutable stop : bool; (* fg-lint: guarded-by mu *)
  mutable workers : unit Domain.t array; (* fg-lint: single-writer pool-creator *)
  tasks : task Queue.t;  (* detached tasks awaiting a free worker *)
}

let finish_task t st =
  Mutex.lock t.t_mu;
  t.t_state <- st;
  Condition.broadcast t.t_cond;
  Mutex.unlock t.t_mu

let worker p =
  let last = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock p.mu;
    while (not p.stop) && p.seq = !last && Queue.is_empty p.tasks do
      Condition.wait p.work p.mu
    done;
    if p.stop then begin
      Mutex.unlock p.mu;
      running := false
    end
    else if p.seq <> !last then begin
      last := p.seq;
      let job = p.job in
      Mutex.unlock p.mu;
      (match job with
      | Some j -> ( try j () with _ -> () (* jobs capture their own exns *))
      | None -> ());
      Mutex.lock p.mu;
      p.busy <- p.busy - 1;
      if p.busy = 0 then Condition.signal p.idle;
      Mutex.unlock p.mu
    end
    else begin
      let t = Queue.pop p.tasks in
      Mutex.unlock p.mu;
      let st = try t.t_fn (); Done with e -> Failed e in
      finish_task t st
    end
  done

let pool : pool option ref = ref None (* fg-lint: guarded-by pool_mu *)
let pool_mu = Mutex.create ()

let shutdown_pool p =
  Mutex.lock p.mu;
  p.stop <- true;
  Condition.broadcast p.work;
  Mutex.unlock p.mu;
  Array.iter Domain.join p.workers;
  (* Workers are joined, so nobody will ever pop the queue again: fail the
     stranded tasks so their awaiters are released instead of hanging. *)
  let orphans = Queue.fold (fun acc t -> t :: acc) [] p.tasks in
  Queue.clear p.tasks;
  List.iter (fun t -> finish_task t (Failed Stopped)) orphans

let get_pool () =
  Mutex.lock pool_mu;
  let p =
    match !pool with
    | Some p -> p
    | None ->
      let p =
        {
          mu = Mutex.create ();
          work = Condition.create ();
          idle = Condition.create ();
          job = None;
          seq = 0;
          busy = 0;
          stop = false;
          workers = [||];
          tasks = Queue.create ();
        }
      in
      p.workers <- Array.init (max_domains () - 1) (fun _ -> Domain.spawn (fun () -> worker p));
      pool := Some p;
      (* joining parked workers at exit keeps the runtime teardown clean *)
      at_exit (fun () ->
          Mutex.lock pool_mu;
          let q = !pool in
          pool := None;
          Mutex.unlock pool_mu;
          Option.iter shutdown_pool q);
      p
  in
  Mutex.unlock pool_mu;
  p

let warm () = if max_domains () > 1 then ignore (get_pool () : pool)

(* Parked workers are not free: every stop-the-world minor GC must
   rendezvous with them, which taxes allocation-heavy serial phases by a
   measurable factor. [shutdown] lets such phases drop the pool; the next
   multi-domain call respawns it. *)
let shutdown () =
  Mutex.lock pool_mu;
  let q = !pool in
  pool := None;
  Mutex.unlock pool_mu;
  Option.iter shutdown_pool q

(* submissions are serialized: one job in flight at a time *)
let submit_mu = Mutex.create ()

(* Publish [job] to every worker, run [body] on the calling domain, then
   wait for all workers to come back idle before returning. *)
let run_pooled job body =
  let p = get_pool () in
  Mutex.lock submit_mu;
  Mutex.lock p.mu;
  p.job <- Some job;
  p.seq <- p.seq + 1;
  p.busy <- Array.length p.workers;
  Condition.broadcast p.work;
  Mutex.unlock p.mu;
  body ();
  Mutex.lock p.mu;
  while p.busy > 0 do
    Condition.wait p.idle p.mu
  done;
  p.job <- None;
  Mutex.unlock p.mu;
  Mutex.unlock submit_mu

let map ?domains ~init ~f n =
  let d = min (resolve domains) (max 1 n) in
  if d <= 1 then begin
    if n = 0 then [||]
    else begin
      let s = init () in
      let out = Array.make n (f s 0) in
      for i = 1 to n - 1 do
        out.(i) <- f s i
      done;
      out
    end
  end
  else begin
    let results = Array.make n None in
    let gate = Ticket.create ~participants:(d - 1) in
    let body () =
      try
        let s = init () in
        let rec loop () =
          match Ticket.next_index gate ~limit:n with
          | Some i ->
            results.(i) <- Some (f s i);
            loop ()
          | None -> ()
        in
        loop ()
      with e -> Ticket.fail gate e
    in
    (* d - 1 tickets: surplus pool workers skip the job entirely *)
    let job () = if Ticket.join gate then body () in
    run_pooled job body;
    (match Ticket.failure gate with Some e -> raise e | None -> ());
    Array.map (function Some x -> x | None -> assert false) results
  end

(* ---- detached tasks ---- *)

let pool_size () = max_domains () - 1

let submit fn =
  let t = { t_mu = Mutex.create (); t_cond = Condition.create (); t_state = Pending; t_fn = fn } in
  let p = get_pool () in
  Mutex.lock p.mu;
  if p.stop then begin
    (* raced with [shutdown]: this pool's workers are gone (or going) and
       will never pop the queue, so fail fast rather than strand [await] *)
    Mutex.unlock p.mu;
    finish_task t (Failed Stopped)
  end
  else begin
    Queue.add t p.tasks;
    Condition.signal p.work;
    Mutex.unlock p.mu
  end;
  t

let await t =
  Mutex.lock t.t_mu;
  let rec wait () =
    match t.t_state with
    | Pending ->
      Condition.wait t.t_cond t.t_mu;
      wait ()
    | Done -> Mutex.unlock t.t_mu
    | Failed e ->
      Mutex.unlock t.t_mu;
      raise e
  in
  wait ()
