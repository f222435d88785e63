(** Reconstruction trees (RTs) and the virtual-graph context.

    The virtual graph of the paper consists of the live real nodes plus, for
    every deleted node, internal "helper" vnodes arranged in half-full trees
    whose leaves are the surviving endpoints of the deleted node's G'-edges.
    Each vnode is scoped to a half-edge [(proc, edge)]:

    - a {e leaf} vnode [(p, e)] exists iff [e]'s other endpoint is dead; it
      is processor [p]'s attachment point into the RT that absorbed that
      neighbour;
    - a {e helper} vnode [(p, e)] is an internal RT node simulated by [p],
      created by the representative mechanism; at most one exists per
      half-edge (Lemma 3.1).

    The context [ctx] owns the vnode tables and incrementally maintains the
    {e image}: the actual network, i.e. the homomorphic image of the virtual
    graph mapping every vnode to its processor (self-loops dropped, parallel
    virtual edges collapsed via reference counts).

    This module implements the heart of the healing step: given the marked
    vnodes of a deleted processor and the fresh leaves of its live
    neighbours, it fragments the affected RTs (Strip), discards broken
    helpers, and merges the surviving complete subtrees into a single new
    haft with the representative mechanism (Merge / ComputeHaft). *)

module Node_id := Fg_graph.Node_id

type kind = Leaf | Helper

type vnode = {
  id : int;  (** unique; used for hashing and deterministic tie-breaks *)
  kind : kind;
  half : Edge.Half.t;  (** owning processor and G'-edge scope *)
  mutable parent : vnode option;
  mutable left : vnode option;
  mutable right : vnode option;
  mutable leaves : int;  (** leaf descendants (1 for a leaf) *)
  mutable height : int;
  mutable rep : vnode;  (** representative: free leaf of this subtree *)
  mutable live : bool;  (** false once discarded *)
}

type ctx

(** Simulator-choice policy at RT merges (A.9). [Paper] consumes the
    designated side's representative exactly as the pseudocode specifies;
    [Degree_balanced] consumes whichever side's representative currently
    has the smaller image degree (the rep-inheritance invariant holds
    either way). Used by the E10 ablation probing the Theorem 1.1
    constant (DESIGN.md §6). *)
type policy = Paper | Degree_balanced

val create_ctx : ?policy:policy -> unit -> ctx

(** [set_recorder ctx (Some b)] makes every subsequent actual-network edge
    flip and vnode create/discard record itself into [b] — the delta choke
    point ({!Delta}). The engine installs a recorder around each event;
    [None] (the default) costs one load-and-branch per flip. *)
val set_recorder : ctx -> Delta.builder option -> unit

(** The incrementally maintained actual network. Direct (live-live) G'-edge
    contributions are injected by {!add_direct} / {!remove_direct}; RT tree
    edges are maintained internally. *)
val image : ctx -> Fg_graph.Adjacency.t

(** [add_image_node ctx p] ensures processor [p] exists in the image. *)
val add_image_node : ctx -> Node_id.t -> unit

(** [drop_image_node ctx p] removes an (isolated) processor from the image.
    Raises [Invalid_argument] if it still has incident edges. *)
val drop_image_node : ctx -> Node_id.t -> unit

val add_direct : ctx -> Node_id.t -> Node_id.t -> unit
val remove_direct : ctx -> Node_id.t -> Node_id.t -> unit

(** [find_leaf ctx half] is the leaf vnode for [half], if its RT exists. *)
val find_leaf : ctx -> Edge.Half.t -> vnode option

(** [find_helper ctx half] is the helper simulated by [half.proc] for
    [half.edge], if any. *)
val find_helper : ctx -> Edge.Half.t -> vnode option

(** One pairwise RT merge inside the bottom-up BT_v reduction (Fig. 7).
    Field sizes are leaf counts of the primary roots on each side; heights
    bound the probe walks of the Strip phase. *)
type merge_event = {
  me_left_sizes : int list;
  me_right_sizes : int list;
  me_left_height : int;
  me_right_height : int;
  me_created : int;  (** helper vnodes instantiated by this merge *)
  me_discarded : int;  (** red helpers removed when re-stripping inputs *)
}

(** Record of one healing step, consumed by the distributed cost model
    ({!Fg_sim}): how many fragments anchored BT_v, how many virtual
    neighbours were notified, and the merge events level by level. *)
type heal_trace = {
  ht_anchors : int;  (** BT_v size: fragments + fresh singleton leaves *)
  ht_notified : int;  (** virtual neighbours informed of the deletion *)
  ht_initial_discarded : int;  (** helpers removed while fragmenting *)
  ht_levels : merge_event list list;  (** merges, innermost = one level *)
  ht_root : vnode option;
      (** the merged RT's root ([None] if nothing survived) — lets callers
          identify the repair's leaf class, e.g. for cross-checking the
          distributed protocol per repair *)
}

(** [heal ctx ~marked ~fresh] performs the repair step for one deletion:
    [marked] are the deleted processor's vnodes (its leaf occurrences and
    helpers); [fresh] are half-edges of the live direct neighbours, for
    which new singleton leaves are created. Fragments all affected RTs
    (Strip), then merges fragments pairwise bottom-up as in the BT_v
    reduction of Fig. 7 until a single haft remains. Returns the new RT
    root ([None] if nothing survives) and the trace.

    [~events:false] skips building the per-level {!merge_event} records
    ([ht_levels] comes back [[]]), saving their allocation when the caller
    will drop the trace unseen; the healed RT is identical. The flag is
    overridden back to [true] while a delta recorder, tracing, or metrics
    recording is active, so observability never sees a truncated trace. *)
val heal :
  ?events:bool ->
  ctx -> marked:vnode list -> fresh:Edge.Half.t list -> vnode option * heal_trace

(** [root_of v] follows parent pointers. *)
val root_of : vnode -> vnode

(** [rt_roots ctx] lists the roots of all current RTs (deduplicated),
    in increasing [id] order. *)
val rt_roots : ctx -> vnode list

(** [iter_tree f root] applies [f] to every vnode of the tree. *)
val iter_tree : (vnode -> unit) -> vnode -> unit

(** [leaves_of root] lists leaf vnodes left-to-right. *)
val leaves_of : vnode -> vnode list

(** [to_haft root] converts to the pure specification tree (leaf payload =
    half-edge), for shape cross-checks against {!Fg_haft.Haft}. *)
val to_haft : vnode -> Edge.Half.t Fg_haft.Haft.t

(** [helper_count ctx p] is the number of helpers currently simulated by
    processor [p]. *)
val helper_count : ctx -> Node_id.t -> int

(** All current leaf vnodes (arbitrary order). *)
val all_leaves : ctx -> vnode list

(** All current helper vnodes (arbitrary order). *)
val all_helpers : ctx -> vnode list

val pp_vnode : Format.formatter -> vnode -> unit
