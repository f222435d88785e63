(** Multicore fan-out for independent read-only work items (OCaml 5
    domains), built for the BFS-heavy metrics/verification pipeline.

    Design constraints, in order:

    - {b Determinism}: results are delivered as an array indexed by work
      item, so any reduction the caller performs runs in item order — the
      same report comes out for {e any} domain count, byte for byte.
    - {b Opt-in}: the process-wide default is [1] domain; every existing
      entry point stays serial unless the user raises it (CLI
      [--domains N]). The serial path does not touch domains at all.
    - {b Reuse}: the first multi-domain {!map} lazily spawns a persistent
      pool of [max 2 (available ()) - 1] worker domains that park on a
      condition variable between calls; later calls publish a job and
      broadcast instead of paying domain spawn/join (which used to make
      small parallel maps slower than serial). Workers are joined by an
      [at_exit] hook. A call that resolves to [d] domains hands out
      [d - 1] tickets, so surplus workers skip the job entirely.

    Work functions must be safe to run concurrently: they may freely read
    shared immutable data (e.g. {!Csr.t}) but must confine mutation to the
    per-worker scratch created by [init]. *)

(** Upper bound for useful domain counts:
    [Domain.recommended_domain_count ()]. *)
val available : unit -> int

(** The process-wide default used when [?domains] is omitted; starts at 1. *)
val default : unit -> int

(** [set_default d] clamps [d] to [\[1, max 2 (available ())\]] and
    installs it (the floor of 2 keeps the multi-domain path exercisable on
    single-core hosts — oversubscription is safe, just not faster). *)
val set_default : int -> unit

(** [resolve d] is [d] clamped as in {!set_default}, or [default ()] when
    [d = None]. *)
val resolve : int option -> int

(** [warm ()] spawns the worker pool if it does not exist yet, so the
    first timed {!map} does not pay domain-spawn cost (benchmark setup). *)
val warm : unit -> unit

(** [shutdown ()] stops and joins the worker pool (no-op if absent); the
    next multi-domain {!map} respawns it. Parked workers tax every
    stop-the-world minor GC, so a long allocation-heavy {e serial} phase
    after a parallel one may want the pool gone. *)
val shutdown : unit -> unit

(** [map ?domains ~init ~f n] computes [|f s 0; f s 1; ...; f s (n-1)|]
    where each worker domain gets its own scratch [s = init ()]. Items are
    distributed dynamically (shared counter), but the result array is
    indexed by item, so the outcome is independent of scheduling. With
    [domains = 1] (the default) this is a plain serial loop on the calling
    domain. *)
val map : ?domains:int -> init:(unit -> 's) -> f:('s -> int -> 'a) -> int -> 'a array

(** {1 Detached tasks}

    Long-lived work — e.g. the serving tier's reader loops — does not fit
    the barrier-style {!map}: it should occupy one worker until told to
    stop, while the calling domain keeps doing its own (writer) work.
    {!submit} hands a thunk to the first free pool worker; {!await} blocks
    until it finishes and re-raises its exception, if any.

    Caveats (by design, to keep the pool simple):
    - A barrier job ({!map} with [domains > 1]) counts {e every}
      worker, so it will wait for long-running submitted tasks to finish
      before returning. Don't mix a multi-domain {!map} with long-lived
      tasks in flight.
    - Don't {!await} from inside a pool task: with every worker occupied
      the awaited task may never be scheduled.
    - Stop long-lived task loops (via your own flag) before calling
      {!shutdown}; shutdown joins workers, which waits for running tasks
      to return. *)

type task

exception Stopped
(** Raised by {!await} when the task was discarded because the pool shut
    down before a worker picked it up. *)

(** [submit fn] enqueues [fn] for the first free pool worker (spawning the
    pool if needed) and returns immediately. *)
val submit : (unit -> unit) -> task

(** [await t] blocks until [t] finishes; re-raises the task's exception if
    it failed, raises {!Stopped} if the pool shut down before running it. *)
val await : task -> unit

(** Number of pool worker domains ([max 2 (available ()) - 1], so always
    ≥ 1): the concurrency ceiling for submitted tasks. *)
val pool_size : unit -> int

(** {1 The work-ticket protocol}

    The lock-free core of a barrier job, factored out so the fg_race
    interleaving checker can drive it over traced atomics: a ticket
    counter gating which workers participate, an item counter dealing
    out indices, and a first-exception CAS cell. {!map} runs on the
    production instantiation below. *)

module Ticket : sig
  module Make (A : Atomic_intf.S) : sig
    type t

    (** [create ~participants] hands out [participants] tickets (the
        calling domain participates ticket-free on top). *)
    val create : participants:int -> t

    (** Worker-side: take a ticket; [false] means sit this job out. *)
    val join : t -> bool

    (** Deal the next work index; [None] once [limit] is exhausted.
        Every index in [0, limit) is dealt to exactly one caller. *)
    val next_index : t -> limit:int -> int option

    (** Record a participant's exception; the first one wins. *)
    val fail : t -> exn -> unit

    val failure : t -> exn option
  end

  include module type of Make (Atomic)
end
