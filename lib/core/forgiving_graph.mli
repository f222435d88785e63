(** The Forgiving Graph: self-healing overlay under adversarial attack.

    Usage mirrors the model of Section 2: start from an arbitrary connected
    graph ({!of_graph}), then apply an arbitrary interleaving of {!insert}
    and {!delete}. After every deletion the structure heals itself by adding
    edges only, maintaining (Theorem 1):

    - [degree v (graph t) <= 3 * degree v (gprime t)] for every live [v];
    - [dist (graph t) x y <= ceil(log2 n) * dist (gprime t) x y] for live
      [x, y], where [n] is the number of nodes ever seen and [gprime] is
      the insert-only graph (no deletions, no healing edges);
    - connectivity of [graph t] wherever [gprime t] connects live nodes.

    This is the centralized reference implementation: it executes the same
    Strip/Merge/representative mechanism as the distributed protocol
    ({!Fg_sim}) but in one address space. The distributed engine is tested
    against it. *)

module Node_id := Fg_graph.Node_id

type t

(** [create ()] is the empty network. [policy] selects the simulator
    choice at RT merges (default {!Rt.Paper}; see {!Rt.policy}). *)
val create : ?policy:Rt.policy -> unit -> t

(** [of_graph g] adopts [g] as the initial graph [G_0]: all nodes live, all
    edges counted as insertions in [G']. *)
val of_graph : ?policy:Rt.policy -> Fg_graph.Adjacency.t -> t

(** [insert t v nbrs] is an adversarial insertion: new node [v] joins with
    edges to the live nodes [nbrs]. Raises [Invalid_argument] if [v] was
    seen before or some neighbour is not live. Duplicate neighbours are
    collapsed. *)
val insert : t -> Node_id.t -> Node_id.t list -> unit

(** [delete t v] is an adversarial deletion followed by the healing repair.
    Raises [Invalid_argument] if [v] is not live. *)
val delete : t -> Node_id.t -> unit

(** [delete_batch t victims] deletes a set of nodes {e simultaneously} —
    an extension beyond the paper's one-per-round adversary. Victims are
    partitioned into independent repair groups (two victims interact iff
    G'-adjacent or sharing a reconstruction tree) and each group heals
    with one combined Strip/Merge, so unrelated failures heal exactly as
    under sequential deletion. All Theorem 1 invariants hold afterwards;
    grouped repair does no more work than the equivalent deletion
    sequence. Duplicates are collapsed; raises [Invalid_argument] if any
    victim is not live. [delete t v] is [delete_batch t [v]]. *)
val delete_batch : t -> Node_id.t list -> unit

(** [apply t event] is the recorded form of the three entry points above:
    [Inserted] is {!insert}, [Deleted] is {!delete_batch} (same checks,
    same heal). It returns the event's {!Delta.t} — replayed from [G_0],
    the delta stream reproduces [graph t]/[gprime t] exactly — and one
    repair trace per independent group (none for an insertion; [groups]
    in the delta is their count). The traces carry the fragment and merge
    structure the distributed simulator converts into message/round/bit
    costs (Lemma 4).

    The plain entry points only build a delta when something consumes it —
    a live churn ledger feeding {!publish} or an enabled trace sink;
    otherwise the event runs with no recorder installed and the delta
    machinery costs nothing. *)
val apply : t -> Delta.event -> Delta.t * Rt.heal_trace list

(** [delete_delta t v] is [apply t (Deleted {victims = [v]})]. *)
val delete_delta : t -> Node_id.t -> Delta.t * Rt.heal_trace list

(** [graph t] is the current actual network (healed). The returned graph is
    live state — treat as read-only; copy before mutating. *)
val graph : t -> Fg_graph.Adjacency.t

(** [gprime t] is [G']: every node and edge ever inserted, deletions
    ignored. Read-only. *)
val gprime : t -> Fg_graph.Adjacency.t

(** [generation t] counts the events ([insert]/[delete]/[delete_batch])
    applied since creation; each event's delta carries the generation it
    produced. [of_graph] starts at 0. *)
val generation : t -> int

(** {2 Snapshots}

    The engine no longer caches CSR views internally: it {e publishes}
    them into a {!Fg_graph.Snapshot_store} — an atomic generation-tagged
    cell with epoch-based reclamation — and every former cache consumer is
    a view over that store. The store is what makes the paper's
    repair-vs-usage concurrency real: reader domains pin a published
    generation and answer queries against it while this (single-writer)
    engine keeps healing and publishing (see {!Fg_serve}). *)

(** One published unit: CSR views of [graph t] {e and} [gprime t] built
    from the same generation, so cross-graph metrics (stretch = distance
    ratio) never mix generations. *)
type snapshot = { csr : Fg_graph.Csr.t; gprime_csr : Fg_graph.Csr.t }

(** [publish t] brings the store's snapshot up to the current generation
    and returns it: the first call after an event refreshes the previous
    snapshot via {!Fg_graph.Csr.apply_delta} with the accumulated churn
    (O(n + Δ) array work, and a view with no churn — G' under deletions —
    is reused as is) instead of rebuilding; repeated calls within a
    generation are free. The result is structurally identical to
    [Csr.of_adjacency] of the live graphs — reports are byte-identical
    either way. If an underlying graph was mutated externally (see
    {!Fg_graph.Adjacency.version}), the publish notices and rebuilds from
    scratch. {b Writer-side only}: call from the domain that mutates [t];
    concurrent readers go through {!snapshot_store} pins. *)
val publish : t -> snapshot

(** The store [publish] feeds. Readers on other domains register a
    {!Fg_graph.Snapshot_store.reader} and pin/unpin around queries; the
    writer retires superseded snapshots only once every reader epoch has
    advanced past them. *)
val snapshot_store : t -> snapshot Fg_graph.Snapshot_store.t

(** [csr t] is [(publish t).csr] — the historical accessor, now a thin
    view over the store. Writer-side only, like {!publish}. *)
val csr : t -> Fg_graph.Csr.t

(** [gprime_csr t] is [(publish t).gprime_csr]. *)
val gprime_csr : t -> Fg_graph.Csr.t

val is_alive : t -> Node_id.t -> bool
val live_nodes : t -> Node_id.t list
val num_live : t -> int

(** [num_seen t] is [n], the number of nodes in [G']. *)
val num_seen : t -> int

(** [stretch_bound t] is [ceil(log2 (num_seen t))], the multiplicative
    stretch guarantee of Theorem 1.2 (0 when fewer than 2 nodes seen). *)
val stretch_bound : t -> int

(** [degree_bound t v] is [3 * degree v (gprime t)] (Theorem 1.1). *)
val degree_bound : t -> Node_id.t -> int

(** Number of helper vnodes processor [v] currently simulates. *)
val helper_load : t -> Node_id.t -> int

(** The underlying virtual-graph context, for invariant checks and tests. *)
val ctx : t -> Rt.ctx
