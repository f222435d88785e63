(** Closed-loop load generator: queries-per-second at tail latency
    {e while the adversary deletes} — the serving tier's headline
    experiment.

    [run] spawns [readers] worker domains (via {!Fg_graph.Parallel}'s
    detached-task API) that issue a weighted mix of {!Serve.query}
    classes against pinned snapshots as fast as they are answered
    (closed loop: one outstanding query per reader). Meanwhile the
    calling domain — the single writer — plays the oblivious adversary
    of the paper's model at a fixed rate: pick a live node uniformly,
    {!Fg_core.Forgiving_graph.delete} it (which heals), publish the next
    snapshot generation. Readers observe generations strictly through
    the store, so a heal never waits on a query and a query never reads
    a half-healed graph.

    The report carries per-class and overall latency histograms (merged
    from per-reader, always-on {!Fg_obs.Hdr} instances — recording is
    alloc-free and unshared, so the measurement does not perturb the
    measured), plus the store's reclamation accounting: [max_lag] is the
    measured answer to "how many dead generations can a slow reader pin
    live?". *)

type config = {
  readers : int;  (** clamped to {!Fg_graph.Parallel.pool_size} *)
  duration : float;  (** seconds of load *)
  churn_rate : float;  (** deletions per second (0 = no churn) *)
  mix : (string * int) list;
      (** query-class weights over ["distance"; "path"; "stretch";
          ["degree"]]; unknown classes are rejected, missing ones get
          weight 0 *)
  sample_pairs : int;  (** sources per [Stretch_sample] query *)
  min_live : int;  (** churn stops when [num_live] reaches this floor *)
  seed : int;  (** derives every reader's and the adversary's streams *)
}

val default_mix : (string * int) list

(** [distance=6,path=1,stretch=1,degree=2] parser for the CLI; returns
    [Error] on unknown class names or malformed entries. *)
val mix_of_string : string -> ((string * int) list, string) result

type report = {
  wall_s : float;
  queries : int;
  qps : float;
  deletes : int;
  generations : int;  (** engine generations when the run ended *)
  readers_used : int;
  store : Fg_graph.Snapshot_store.stats;
  overall : Fg_obs.Hdr.t;  (** all classes merged *)
  classes : (string * Fg_obs.Hdr.t) list;  (** per class, mix order *)
}

(** [run fg config] drives the load and blocks until [duration] elapses
    and every reader has drained. The engine must not be mutated by
    anyone else for the duration (single-writer discipline). Raises
    [Invalid_argument] on an invalid mix or non-positive duration. *)
val run : Fg_core.Forgiving_graph.t -> config -> report

val pp_report : Format.formatter -> report -> unit
