(** One event's complete effect on the system, as a typed record.

    Repairs in the paper "only add and remove edges, never nodes"
    (Theorem 1): structurally, every insert or delete-and-heal is an {e edge
    delta} plus bookkeeping. This module reifies that observation. The
    engine ({!Rt}, via {!Forgiving_graph.apply}) builds exactly one
    [Delta.t] per event at the image-maintenance choke point —
    the refcounted [img_inc]/[img_dec] pair through which {e all} actual
    network mutations already flow — and downstream layers consume the
    stream instead of re-deriving state: {!Fg_graph.Csr.apply_delta}
    refreshes snapshots incrementally, {!Invariants.check_delta} verifies
    each event in O(Δ), [Dist_engine.verify] cross-checks the distributed
    run per repair, and the delta is emitted as an [fg.delta] trace point.

    Edge lists are sorted ([Edge.compare]) and net: an image edge removed
    and re-added within one heal does not appear. All replays and
    comparisons are therefore deterministic. *)

module Node_id := Fg_graph.Node_id

type event =
  | Inserted of { node : Node_id.t; nbrs : Node_id.t list }
      (** a node joined with edges to existing live nodes *)
  | Deleted of { victims : Node_id.t list }
      (** processors deleted by the adversary and healed (singleton for
          [delete], the whole batch for [delete_batch]) *)

type t = {
  gen : int;  (** the engine generation this delta produced *)
  event : event;
  nodes_added : Node_id.t list;  (** nodes that joined the actual network *)
  nodes_removed : Node_id.t list;  (** victims dropped from the network *)
  g_added : Edge.t list;  (** net actual-network edges added, sorted *)
  g_removed : Edge.t list;  (** net actual-network edges removed, sorted *)
  gp_added : Edge.t list;  (** G' edges added (inserts only; G' never shrinks) *)
  vnodes_created : int;  (** leaves + helpers instantiated by the heal *)
  vnodes_discarded : int;
  groups : int;  (** independent repair groups healed (1 unless batched) *)
}

(** {1 Building} — used by the engine; one builder per event. *)

type builder

val builder : event -> builder

(** Record an actual-network edge flip. Calls for one edge must alternate
    (which the refcounted image guarantees); the net effect is kept. *)
val record_g_add : builder -> Node_id.t -> Node_id.t -> unit

val record_g_remove : builder -> Node_id.t -> Node_id.t -> unit
val record_gp_add : builder -> Edge.t -> unit
val record_node_add : builder -> Node_id.t -> unit
val record_node_remove : builder -> Node_id.t -> unit
val record_vnode_created : builder -> unit
val record_vnode_discarded : builder -> unit

(** [record_groups b n] sets the repair-group count (default 1). *)
val record_groups : builder -> int -> unit

val build : gen:int -> builder -> t

(** {1 Replay} *)

(** [apply ?gprime g d] replays [d] onto the mutable graph [g] (the actual
    network) and, when given, onto [gprime] (the insert-only graph).
    Replaying the recorded stream from [G_0] reproduces
    [Forgiving_graph.graph]/[gprime] exactly (property-tested). *)
val apply : ?gprime:Fg_graph.Adjacency.t -> Fg_graph.Adjacency.t -> t -> unit

(** {1 Derived views} *)

(** [touched d] lists every node whose adjacency row changed: endpoints of
    added/removed edges plus added nodes (deduplicated, unspecified order).
    Exactly the [~touched] argument {!Fg_graph.Csr.apply_delta} wants. *)
val touched : t -> Node_id.t list

(** [removed d] is [d.nodes_removed]. *)
val removed : t -> Node_id.t list

(** {1 Observability} *)

(** Attributes for the [fg.delta] trace point: generation, event, the three
    edge lists (as ["u-v u-v ..."] strings), vnode churn, group count. *)
val to_attrs : t -> (string * Fg_obs.Event.value) list

val pp : Format.formatter -> t -> unit
