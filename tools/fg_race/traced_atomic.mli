(** Recording implementation of {!Fg_graph.Atomic_intf.S}: a plain [ref]
    behind a {!Sched.yield} scheduling point per operation. Instantiating
    a protocol functor ({!Fg_graph.Snapshot_store.Make} or
    {!Fg_graph.Parallel.Ticket.Make}) over this
    module turns its atomics into the preemption points the fg_race
    scheduler interleaves. Only meaningful inside a {!Sched} exploration;
    outside one the operations behave like uncontended atomics. *)

include Fg_graph.Atomic_intf.S
