(** Deep structural invariant checks over a {!Forgiving_graph.t}.

    These verify, by recomputation from first principles, every invariant
    the algorithm relies on (Section 6 of DESIGN.md). They are deliberately
    slow — used by tests and by the harness in paranoid mode, never by the
    algorithm itself. *)

(** A violated invariant, as a human-readable description. *)
type violation = string

(** [check t] runs every check below and returns all violations ([] = ok). *)
val check : Forgiving_graph.t -> violation list

(** Individual checks, each returning violations found: *)

(** every RT is a well-formed haft with consistent cached counts. *)
val check_hafts : Forgiving_graph.t -> violation list

(** leaf vnodes exist exactly for (live proc, dead other-endpoint) edges. *)
val check_leaves : Forgiving_graph.t -> violation list

(** helpers: at most one per half-edge, simulator's leaf is a strict
    descendant (Lemma 3.1 and the descendant property). *)
val check_helpers : Forgiving_graph.t -> violation list

(** every vnode's representative is a leaf of its subtree whose helper (if
    any) lies outside that subtree. *)
val check_representatives : Forgiving_graph.t -> violation list

(** the incrementally-maintained image equals the image recomputed from the
    virtual graph. *)
val check_image : Forgiving_graph.t -> violation list

(** deg(v, G) <= 4 deg(v, G') for every live v — the tight bound for the
    construction. Theorem 1.1 states factor 3, but its proof counts only
    the helper edges and omits the real node's rerouted edge; for a fresh
    RT over >= 16 leaves some simulator provably reaches 3d'+1 under any
    descendant-respecting representative assignment (see DESIGN.md §6). *)
val check_degree_bound : Forgiving_graph.t -> violation list

(** Violations of the paper's {e stated} factor-3 bound (Theorem 1.1),
    reported separately so experiments can quantify how often the stated
    bound is exceeded (it is, rarely, by exactly one edge). *)
val paper_degree_violations : Forgiving_graph.t -> violation list

(** live nodes connected in G' are connected in G. *)
val check_connectivity : Forgiving_graph.t -> violation list

(** Theorem 1.2 on all live pairs: {!Fg_metrics.Stretch.exact} over one
    {!Forgiving_graph.publish} pair, fanned across [?domains] domains
    (default the process-wide {!Fg_graph.Parallel} setting; the result is
    the same for any domain count). At most two violations: the witness
    pair and its stretch when the maximum exceeds
    {!Forgiving_graph.stretch_bound}, and the count of live pairs
    connected in G' but not in G. Exposed separately from {!check}. *)
val check_stretch_bound : ?domains:int -> Forgiving_graph.t -> violation list

(** [check_delta t d] audits one state transition in O(Δ): after applying
    the event that produced [d], the added/removed nodes and edges must be
    reflected in [graph t]/[gprime t] exactly, the event shape must be
    legal (inserts never remove, deletes never extend G', repairs only add
    edges — a removed image edge between two survivors cannot be a direct
    G' edge), and every touched endpoint must respect the 4x degree bound.
    Cheap enough to run after {e every} event ([fg_cli attack --paranoid]);
    the whole-state checks above remain the periodic deep audit. *)
val check_delta : Forgiving_graph.t -> Delta.t -> violation list
