(** Stretch: the paper's central quality metric (Section 2, success
    metric 2).

    [stretch(x, y) = dist(x, y, G) / dist(x, y, G')] over live pairs,
    where [G] is the healed network and [G'] the insert-only reference
    (which may route through dead nodes). Theorem 1.2 bounds the maximum
    by [ceil(log2 n)].

    Implementation: each entry point snapshots both graphs once
    ({!Fg_graph.Csr}) and batches sources into multi-source BFS sweeps
    ({!Fg_graph.Bfs_kernel.ms_run}, up to 63 sources per pass over the
    off-heap rows), fanned across [?domains] domains
    ({!Fg_graph.Parallel}; default: the process-wide setting, 1 unless
    raised via [--domains]). Batch boundaries are a pure function of the
    source list, and per-source results are reduced in source order, so
    the report — including float fields and the witness — is
    byte-identical for any domain count. Sources with no live neighbor
    in [graph] consume no BFS slot: their broken pairs are read off
    run-length-compressed reference component labels
    ({!Fg_graph.Interval_map}).

    Each call emits a [metrics.stretch] span (attributes [csr_build_ms],
    [bfs_sources], [bfs_batches], [domains]; counter [metrics.bfs_runs]
    — sweeps, two per batch) when an {!Fg_obs} sink is installed, and
    bumps the [metrics.bfs_runs] global counter when recording. *)

module Node_id := Fg_graph.Node_id

type report = {
  max_stretch : float;
  witness : (Node_id.t * Node_id.t) option;  (** pair attaining the max *)
  mean_stretch : float;
  pairs : int;  (** connected live pairs measured *)
  disconnected : int;  (** pairs connected in G' but not in G (0 if the
                           healer preserves connectivity) *)
}

(** Every entry point accepts optional prebuilt snapshots [?graph_csr] /
    [?reference_csr] (e.g. {!Fg_core.Forgiving_graph.csr} /
    [gprime_csr], which are cached per engine generation): when given, the
    corresponding [Csr.of_adjacency] build is skipped and the snapshot is
    trusted to match the graph. Reports are identical either way. *)

(** [measure ~graph ~reference ~sources targets] measures every
    (source, target) pair with [source <> target], counting each ordered
    occurrence — the building block of {!exact} and {!sampled}. (The
    target/node list is positional so that [?domains] can be erased.) *)
val measure :
  ?domains:int ->
  ?graph_csr:Fg_graph.Csr.t ->
  ?reference_csr:Fg_graph.Csr.t ->
  graph:Fg_graph.Adjacency.t ->
  reference:Fg_graph.Adjacency.t ->
  sources:Node_id.t list ->
  Node_id.t list ->
  report

(** [exact ~graph ~reference nodes] measures every unordered pair of
    [nodes] (one BFS per node on each graph). *)
val exact :
  ?domains:int ->
  ?graph_csr:Fg_graph.Csr.t ->
  ?reference_csr:Fg_graph.Csr.t ->
  graph:Fg_graph.Adjacency.t ->
  reference:Fg_graph.Adjacency.t ->
  Node_id.t list ->
  report

(** [sampled rng ~k ~graph ~reference nodes] measures BFS from [k] sampled
    sources against all of [nodes] — an unbiased under-estimate of the max,
    for large sweeps. *)
val sampled :
  ?domains:int ->
  ?graph_csr:Fg_graph.Csr.t ->
  ?reference_csr:Fg_graph.Csr.t ->
  Fg_graph.Rng.t ->
  k:int ->
  graph:Fg_graph.Adjacency.t ->
  reference:Fg_graph.Adjacency.t ->
  Node_id.t list ->
  report

(** {!exact} on the per-source sweep kernel (one {!Fg_graph.Csr.bfs}
    pair per source — the pre-batching fast path). Kept callable as the
    baseline the bench suite measures the ms-BFS amortization against,
    and as a second oracle: the report agrees exactly with {!exact},
    including float fields (same partial stream, same merge). *)
val exact_sweep :
  ?domains:int ->
  ?graph_csr:Fg_graph.Csr.t ->
  ?reference_csr:Fg_graph.Csr.t ->
  graph:Fg_graph.Adjacency.t ->
  reference:Fg_graph.Adjacency.t ->
  Node_id.t list ->
  report

val pp_report : Format.formatter -> report -> unit
