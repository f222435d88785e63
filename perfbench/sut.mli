(** The system under test, as the benchmark sees it.

    This is the only module of the benchmark that calls library entry
    points. Every call into a library layer is wrapped in a span named
    [layer.function] (recorded only while {!Spans.enabled}), so the
    traced run can attribute time to layers without instrumenting the
    library itself. *)

(** {1 Graphs} *)

type graph

val barabasi_albert : seed:int -> n:int -> m:int -> graph

(** Node ids, ascending. *)
val nodes : graph -> int array

val degree : graph -> int -> int

(** The undirected edge list as sorted [(min lsl 31) lor max] keys. *)
val edge_keys : graph -> int array

(** {1 The engine} *)

type t

val of_graph : graph -> t
val delete : t -> int -> unit

(** {!delete} through the delta entry point: returns how many adjacency
    rows the event changed ([Delta.touched]). *)
val delete_touched : t -> int -> int

val insert : t -> int -> int list -> unit
val delete_batch : t -> int list -> unit

(** Brings the snapshot store up to the current generation. *)
val publish : t -> unit

val generation : t -> int

(** Live node ids, ascending. *)
val live_nodes : t -> int array

(** [ceil (log2 n)] over the nodes ever seen. *)
val stretch_bound : t -> int

(** {!edge_keys} of the healed graph [G] and of [G']. *)
val healed_edge_keys : t -> int array * int array

(** [Snapshot_store.stats]: retired snapshots reclaimed so far, and the
    worst reclamation lag seen after a publish. *)
type store_stats = { reclaimed : int; max_lag : int }

val store_stats : t -> store_stats

(** {1 Guarantee checks} *)

(** Live nodes whose degree exceeds 4 x their [G'] degree. *)
val degree_violations : t -> int

(** Live pairs connected in [G'] but not in [G] (as reported). *)
val connectivity_violations : t -> int

type stretch_report = { max_stretch : float; disconnected : int }

(** [Stretch.sampled] over [k] seeded sources of the live nodes, on the
    published snapshots. *)
val stretch_sampled : t -> seed:int -> k:int -> domains:int -> stretch_report

(** {1 Serving} *)

type query = Fg_serve.Serve.query =
  | Distance of int * int
  | Path of int * int
  | Stretch_sample of { seed : int; pairs : int }
  | Degree_check of int

type answer = Fg_serve.Serve.answer =
  | Dist of int option
  | Route of int list option
  | Stretch of { max_stretch : float; pairs : int }
  | Degree of { degree : int; bound : int; ok : bool }

type result = Fg_serve.Serve.result = { gen : int; answer : answer }

val class_of : query -> string

(** A reader's registration with the snapshot store (one per domain). *)
type reader

val reader : t -> reader

(** Per-domain query scratch (one per reader domain). *)
type worker

val worker : unit -> worker

(** [serve w r q] is [Serve.serve_timed]; returns the result and the
    wall latency in nanoseconds. *)
val serve : worker -> reader -> query -> result * int

(** [serve_checked w r ~corrupt q] pins a snapshot, answers [q] on it
    with [Serve.answer], and re-checks the answer against an independent
    BFS on the same pinned generation before unpinning. Returns the
    result, the answer's latency in nanoseconds (the check excluded) and
    the verdict. [corrupt] perturbs the oracle's expectation, so every
    check fails: the benchmark's negative test. *)
val serve_checked : worker -> reader -> corrupt:bool -> query -> result * int * bool

(** {1 Domains} *)

val pool_size : unit -> int

(** Domains a request for [d] resolves to. *)
val resolve_domains : int -> int

val warm_pool : unit -> unit

type task

val submit : (unit -> unit) -> task
val await : task -> unit

(** {1 Library telemetry} *)

(** [Metrics.set_recording]: switches the heal-path profiler on or off. *)
val set_recording : bool -> unit

(** Per-phase sums of the [Profile] histograms, in nanoseconds, since
    the last [profile_reset]. *)
val profile_sums : unit -> (string * int) list

val profile_reset : unit -> unit
