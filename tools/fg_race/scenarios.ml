(* The two lock-free protocols, instantiated over traced atomics and
   wrapped as fg_race scenarios with their safety invariants as per-step
   checks. Each scenario builds fresh protocol state per run (the
   scheduler re-executes from scratch once per schedule); scenario-level
   bookkeeping (pinned generations, claim counts)
   is plain mutable state written in the same indivisible step as the
   protocol operation it records, so the checks never observe a torn
   update of the bookkeeping itself. *)

module Tstore = Fg_graph.Snapshot_store.Make (Traced_atomic)
module Tticket = Fg_graph.Parallel.Ticket.Make (Traced_atomic)

exception Seeded_failure

(* ---- snapshot store: epoch reclamation ----

   Writer publishes [publishes] generations; each reader registers, then
   runs pin / (nested pin) / unpin cycles, recording which generation it
   currently holds. Invariants, checked between every two atomic steps:

   - conservation: every published snapshot is current, retired, or
     reclaimed. The counters lag the current-pointer store by at most the
     in-flight publish, so [reclaimed + retired + current - published]
     is 0 (quiescent) or 1 (between the first publish's current-store and
     its epoch bump).
   - reclamation safety: no generation a reader has pinned (and not yet
     unpinned) ever appears in the store's reclaim log. With
     [~unsafe:true] the store drops the announced-epoch horizon — the
     seeded reclamation bug the checker must catch. *)

let snapshot_scenario ?(readers = 2) ?(publishes = 3) ?(unsafe = false) () : Sched.scenario =
 fun () ->
  let store = Tstore.create ~unsafe_no_epoch_check:unsafe ~log_reclaims:true () in
  let pinned = Array.make readers (-1) in
  let writer () =
    for g = 1 to publishes do
      Tstore.publish store ~gen:g g
    done
  in
  let cycle r i =
    (* pin can find nothing published early on: bounded retries, each
       attempt costs scheduling points so this cannot livelock *)
    let rec attempt tries =
      if tries > 0 then
        match Tstore.pin r with
        | s ->
          pinned.(i) <- s.Tstore.gen;
          if i = 0 then begin
            (* nested pin: the outer announcement must keep protecting *)
            let s2 = Tstore.pin r in
            ignore (s2 : int Tstore.snapshot);
            Tstore.unpin r
          end;
          Tstore.unpin r;
          pinned.(i) <- -1
        | exception Invalid_argument _ -> attempt (tries - 1)
    in
    attempt 3
  in
  let reader i () =
    let r = Tstore.reader store in
    cycle r i;
    cycle r i
  in
  let check () =
    let st = Tstore.stats store in
    let cur = match Tstore.peek store with Some _ -> 1 | None -> 0 in
    let d = st.Tstore.reclaimed + st.Tstore.retired + cur - st.Tstore.published in
    if d <> 0 && d <> 1 then
      failwith
        (Printf.sprintf "conservation violated: published=%d retired=%d reclaimed=%d current=%d"
           st.Tstore.published st.Tstore.retired st.Tstore.reclaimed cur);
    let dropped = Tstore.reclaim_log store in
    Array.iteri
      (fun i g ->
        if g >= 0 && List.mem g dropped then
          failwith (Printf.sprintf "reader %d holds pinned gen %d after it was reclaimed" i g))
      pinned
  in
  (Array.init (readers + 1) (fun i -> if i = 0 then writer else reader (i - 1)), check)

(* ---- parallel work tickets: claim-exactly-once ----

   [workers + 1] worker threads race for [workers] tickets (so exactly
   one sits the job out) plus the ticket-free caller; all participants
   deal indices from the shared counter. Invariants: no index is ever
   claimed twice; when every thread has finished, every index was claimed
   exactly once and the seeded failure is the recorded first failure. *)

let ticket_scenario ?(workers = 2) ?(items = 4) () : Sched.scenario =
 fun () ->
  let nthreads = workers + 2 in
  let gate = Tticket.create ~participants:workers in
  let claims = Array.make items 0 in
  let finished = Array.make nthreads false in
  let joined = Array.make nthreads false in
  let claim_loop () =
    let rec loop () =
      match Tticket.next_index gate ~limit:items with
      | Some i ->
        claims.(i) <- claims.(i) + 1;
        if i = items - 1 then Tticket.fail gate Seeded_failure;
        loop ()
      | None -> ()
    in
    loop ()
  in
  let caller () =
    (* the calling domain participates without a ticket *)
    claim_loop ();
    finished.(0) <- true
  in
  let worker t () =
    if Tticket.join gate then begin
      joined.(t) <- true;
      claim_loop ()
    end;
    finished.(t) <- true
  in
  let check () =
    Array.iteri
      (fun i c -> if c > 1 then failwith (Printf.sprintf "index %d claimed %d times" i c))
      claims;
    if Array.for_all (fun f -> f) finished then begin
      Array.iteri
        (fun i c -> if c <> 1 then failwith (Printf.sprintf "index %d claimed %d times" i c))
        claims;
      let njoined = Array.fold_left (fun acc j -> if j then acc + 1 else acc) 0 joined in
      if njoined > workers then
        failwith (Printf.sprintf "%d workers joined with only %d tickets" njoined workers);
      match Tticket.failure gate with
      | Some Seeded_failure -> ()
      | Some e -> failwith ("unexpected recorded failure: " ^ Printexc.to_string e)
      | None -> failwith "recorded failure lost"
    end
  in
  (Array.init nthreads (fun i -> if i = 0 then caller else worker i), check)

type named = { name : string; scenario : Sched.scenario }

let all () =
  [
    { name = "snapshot"; scenario = snapshot_scenario () };
    { name = "ticket"; scenario = ticket_scenario () };
  ]
