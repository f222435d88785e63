(** The lock-free protocols under test, instantiated over
    {!Traced_atomic}, plus ready-made {!Sched.scenario} values wiring each
    protocol's safety invariants in as per-step checks. *)

(** Epoch-reclaimed snapshot store over traced atomics. *)
module Tstore : Fg_graph.Snapshot_store.S

(** Parallel-pool ticket gate over traced atomics. *)
module Tticket : module type of Fg_graph.Parallel.Ticket.Make (Traced_atomic)

(** The deliberate failure the ticket scenario records via
    [Tticket.fail]. *)
exception Seeded_failure

(** One writer publishing [publishes] generations, [readers] readers
    running pin/unpin cycles (reader 0 also nests). Checks the
    conservation law and that no pinned generation is ever reclaimed.
    [~unsafe:true] instantiates the store with the seeded
    reclaim-while-pinned bug, which exploration must catch. *)
val snapshot_scenario : ?readers:int -> ?publishes:int -> ?unsafe:bool -> unit -> Sched.scenario

(** [workers + 1] workers racing for [workers] tickets plus the
    ticket-free caller, all dealing [items] indices. Checks every index is
    claimed at most once (exactly once at completion) and first-error-wins
    failure recording. *)
val ticket_scenario : ?workers:int -> ?items:int -> unit -> Sched.scenario

type named = { name : string; scenario : Sched.scenario }

(** The two protocols at their default sizes. *)
val all : unit -> named list
