module Node_id = Fg_graph.Node_id
module Adjacency = Fg_graph.Adjacency
module Csr = Fg_graph.Csr
module Store = Fg_graph.Snapshot_store

(* The published unit: both CSR views of the same generation, so a reader
   pinning once gets a {e consistent} (G, G') pair — stretch is a ratio of
   distances across the two, and mixing generations would let a healed
   path be compared against a newer G'. *)
type snapshot = { csr : Csr.t; gprime_csr : Csr.t }

(* Writer-side churn ledger for the currently published snapshot pair:
   which Adjacency versions the pair (plus the pending lists) accounts
   for, and the node churn accumulated since it was published. As long as
   the live versions still match, the next publish is one
   [Csr.apply_delta] per view; on a mismatch someone mutated a graph
   behind the engine's back and we rebuild from scratch. *)
type track = {
  mutable vg : int;  (* Adjacency.version of [graph t] accounted for *)
  mutable vgp : int;  (* Adjacency.version of [gprime t] accounted for *)
  mutable touched : Node_id.t list;
  mutable removed : Node_id.t list;
  mutable gp_touched : Node_id.t list;  (* G' only ever adds *)
  mutable pending : int;
  mutable gp_pending : int;
}

type t = {
  gprime : Adjacency.t;
  alive : unit Node_id.Tbl.t;
  rt : Rt.ctx;
  mutable generation : int;  (* events applied since creation *)
  store : snapshot Store.t;
  mutable track : track option;
}

let create ?policy () =
  {
    gprime = Adjacency.create ();
    alive = Node_id.Tbl.create 64;
    rt = Rt.create_ctx ?policy ();
    generation = 0;
    store = Store.create ();
    track = None;
  }

let is_alive t v = Node_id.Tbl.mem t.alive v
let generation t = t.generation
let snapshot_store t = t.store

(* ---- snapshot publication ---- *)

(* Accumulating churn without a publish in between is capped; past the cap
   the ledger is dropped (next publish rebuilds) rather than grown without
   bound. *)
let max_pending = 4096

let note_track t ~v0g ~v1g ~v0p ~v1p ~touched ~removed ~gp_touched =
  match t.track with
  | None -> ()
  | Some tr ->
    if tr.vg <> v0g || tr.vgp <> v0p || tr.pending > max_pending || tr.gp_pending > max_pending
    then t.track <- None
    else begin
      tr.touched <- List.rev_append touched tr.touched;
      tr.removed <- List.rev_append removed tr.removed;
      tr.pending <- tr.pending + List.length touched + List.length removed;
      tr.gp_touched <- List.rev_append gp_touched tr.gp_touched;
      tr.gp_pending <- tr.gp_pending + List.length gp_touched;
      tr.vg <- v1g;
      tr.vgp <- v1p
    end

(* Refresh-and-publish: the single writer's path from live state to an
   immutable snapshot in the store. Incremental ([Csr.apply_delta] per
   view, skipped entirely for a view with no churn — deletions never touch
   G') when the ledger covers the live versions; full rebuild otherwise.
   Re-publishing after an external mutation reuses the current generation
   number, which the store permits (non-strict monotonicity). *)
let publish t =
  let img = Rt.image t.rt in
  let vg = Adjacency.version img and vgp = Adjacency.version t.gprime in
  match (t.track, Store.peek t.store) with
  | Some tr, Some s when tr.vg = vg && tr.vgp = vgp ->
    let prev = s.Store.value in
    if s.Store.gen = t.generation && tr.pending = 0 && tr.gp_pending = 0 then prev
    else begin
      let t_apply = Fg_obs.Profile.start () in
      let csr =
        if tr.pending = 0 then prev.csr
        else Csr.apply_delta prev.csr ~touched:tr.touched ~removed:tr.removed img
      in
      let gprime_csr =
        if tr.gp_pending = 0 then prev.gprime_csr
        else Csr.apply_delta prev.gprime_csr ~touched:tr.gp_touched ~removed:[] t.gprime
      in
      Fg_obs.Profile.stamp Fg_obs.Profile.Csr_apply t_apply;
      tr.touched <- [];
      tr.removed <- [];
      tr.gp_touched <- [];
      tr.pending <- 0;
      tr.gp_pending <- 0;
      let snap = { csr; gprime_csr } in
      Store.publish t.store ~gen:t.generation snap;
      snap
    end
  | _ ->
    let t_rebuild = Fg_obs.Profile.start () in
    let csr = Csr.of_adjacency img in
    let gprime_csr = Csr.of_adjacency t.gprime in
    Fg_obs.Profile.stamp Fg_obs.Profile.Csr_rebuild t_rebuild;
    let snap = { csr; gprime_csr } in
    Store.publish t.store ~gen:t.generation snap;
    t.track <-
      Some
        {
          vg;
          vgp;
          touched = [];
          removed = [];
          gp_touched = [];
          pending = 0;
          gp_pending = 0;
        };
    snap

let csr t = (publish t).csr
let gprime_csr t = (publish t).gprime_csr

(* ---- the delta choke point ----

   The recorded entry point [apply] runs inside [with_event]: a Delta.builder is
   installed as the Rt recorder (so refcounted image flips and vnode churn
   record themselves), the event body runs, and the finished delta advances
   the generation, feeds both snapshot caches, and is emitted as an
   [fg.delta] trace point.

   The plain [insert]/[delete]/[delete_batch] wrappers instead go through
   [run_event]: when nothing would consume the delta — no churn ledger
   live and tracing off — the event body runs with no recorder at all,
   so the delta machinery (builder tables, net edge lists, sorts) costs
   nothing on the undecorated heal path. *)

let gp_touched (d : Delta.t) =
  let tbl = Node_id.Tbl.create 8 in
  let add v = Node_id.Tbl.replace tbl v () in
  List.iter add d.nodes_added;
  List.iter
    (fun (e : Edge.t) ->
      add e.a;
      add e.b)
    d.gp_added;
  Node_id.Tbl.fold (fun v () acc -> v :: acc) tbl []

let with_event t event f =
  let img = Rt.image t.rt in
  let v0g = Adjacency.version img and v0p = Adjacency.version t.gprime in
  let b = Delta.builder event in
  Rt.set_recorder t.rt (Some b);
  let result =
    try f (Some b)
    with e ->
      Rt.set_recorder t.rt None;
      (* drop the ledger, keep the store: the published snapshot is still a
         faithful image of its own generation *)
      t.track <- None;
      raise e
  in
  Rt.set_recorder t.rt None;
  t.generation <- t.generation + 1;
  let d = Delta.build ~gen:t.generation b in
  if Option.is_some t.track then
    note_track t ~v0g ~v1g:(Adjacency.version img) ~v0p ~v1p:(Adjacency.version t.gprime)
      ~touched:(Delta.touched d) ~removed:(Delta.removed d) ~gp_touched:(gp_touched d);
  if Fg_obs.Trace.enabled () then
    Fg_obs.Trace.point "fg.delta" ~attrs:(Delta.to_attrs d);
  (d, result)

let run_event t event f =
  if Option.is_some t.track || Fg_obs.Trace.enabled () then
    ignore (with_event t event f : Delta.t * _)
  else begin
    (* no recorder: Rt's choke points see [None] and record nothing *)
    (try ignore (f None)
     with e ->
       t.track <- None;
       raise e);
    t.generation <- t.generation + 1
  end

(* ---- mutations ---- *)

let of_graph ?policy g =
  let t = create ?policy () in
  let nodes = List.sort Node_id.compare (Adjacency.nodes g) in
  let add v =
    Adjacency.add_node t.gprime v;
    Node_id.Tbl.replace t.alive v ();
    Rt.add_image_node t.rt v
  in
  List.iter add nodes;
  Adjacency.iter_edges
    (fun u v ->
      Adjacency.add_edge t.gprime u v;
      Rt.add_direct t.rt u v)
    g;
  t

(* Reject bad input before anything mutates, and normalise: neighbour and
   victim lists come back sorted and deduplicated. *)
let validate t = function
  | Delta.Inserted { node; nbrs } ->
    if Adjacency.mem_node t.gprime node then
      invalid_arg "Forgiving_graph.insert: node id was already seen";
    let nbrs = List.sort_uniq Node_id.compare nbrs in
    let check u =
      if not (is_alive t u) then
        invalid_arg "Forgiving_graph.insert: neighbour is not live"
    in
    List.iter check nbrs;
    Delta.Inserted { node; nbrs }
  | Delta.Deleted { victims } ->
    let victims = List.sort_uniq Node_id.compare victims in
    let check v =
      if not (is_alive t v) then invalid_arg "Forgiving_graph.delete: node is not live"
    in
    List.iter check victims;
    Delta.Deleted { victims }

let insert_body t v nbrs b =
  Adjacency.add_node t.gprime v;
  Node_id.Tbl.replace t.alive v ();
  Rt.add_image_node t.rt v;
  (match b with None -> () | Some b -> Delta.record_node_add b v);
  let connect u =
    Adjacency.add_edge t.gprime v u;
    (match b with None -> () | Some b -> Delta.record_gp_add b (Edge.make v u));
    Rt.add_direct t.rt v u
  in
  List.iter connect nbrs

(* One victim's repair input, both lists in ascending neighbour order; the
   heal takes each one reversed, the order it has always used. *)
type collected = { victim : Node_id.t; marked : Rt.vnode list; fresh : Edge.Half.t list }

(* DeleteFix (A.3) classification of [v]'s G' neighbours. [dead] is the
   whole victim set, already removed from [alive]. *)
let collect t dead v =
  let marked = ref [] and fresh = ref [] in
  let classify x =
    let e = Edge.make v x in
    if Node_id.Set.mem x dead then begin
      (* co-victim edge: both were live until now, so it was a direct
         edge with no attachments; drop it from the image exactly once *)
      if v < x then Rt.remove_direct t.rt v x
    end
    else if is_alive t x then begin
      (* live neighbour: drop the direct edge, give x a leaf in the new RT *)
      Rt.remove_direct t.rt v x;
      fresh := Edge.Half.make x e :: !fresh
    end
    else begin
      (* x died earlier: v's attachment into that RT disappears *)
      let mine = Edge.Half.make v e in
      (match Rt.find_leaf t.rt mine with
      | Some leaf -> marked := leaf :: !marked
      | None -> assert false (* a leaf exists for every dead-neighbour edge *));
      match Rt.find_helper t.rt mine with
      | Some h -> marked := h :: !marked
      | None -> ()
    end
  in
  (* descending, so [remove_direct] pops each image edge off the tail of
     [v]'s sorted row instead of shifting it (an O(deg^2) memmove for hubs) *)
  Adjacency.iter_neighbors_rev classify t.gprime v;
  { victim = v; marked = !marked; fresh = !fresh }

(* Independent repair groups: two victims interact iff they are adjacent in
   G' or their attachments live in the same RT. Groups come out in
   ascending union-find representative order, members ascending. *)
let group t dead cs =
  let uf = Fg_graph.Union_find.create () in
  List.iter (fun c -> ignore (Fg_graph.Union_find.find uf c.victim)) cs;
  List.iter
    (fun c ->
      Adjacency.iter_neighbors
        (fun x ->
          if Node_id.Set.mem x dead then ignore (Fg_graph.Union_find.union uf c.victim x))
        t.gprime c.victim)
    cs;
  let root_owner = Hashtbl.create 8 in
  List.iter
    (fun c ->
      List.iter
        (fun (m : Rt.vnode) ->
          let r = (Rt.root_of m).Rt.id in
          match Hashtbl.find_opt root_owner r with
          | None -> Hashtbl.replace root_owner r c.victim
          | Some u -> ignore (Fg_graph.Union_find.union uf u c.victim))
        c.marked)
    cs;
  let module Im = Map.Make (Int) in
  let add c m =
    Im.update (Fg_graph.Union_find.find uf c.victim)
      (fun l -> Some (c :: Option.value l ~default:[]))
      m
  in
  List.map snd (Im.bindings (List.fold_right add cs Im.empty))

(* One combined Strip/Merge for a group; later victims' inputs go first. *)
let heal_group t b members =
  let input f = List.fold_left (fun acc c -> List.rev_append (f c) acc) [] members in
  let _root, trace =
    Rt.heal t.rt ~events:(b <> None)
      ~marked:(input (fun c -> c.marked))
      ~fresh:(input (fun c -> c.fresh))
  in
  trace

(* Deletion of a victim set (a singleton for [delete]). Each independent
   group heals with one Strip/Merge, so unrelated victims heal exactly as
   if deleted one by one; a lone victim skips the grouping walks. *)
let delete_victims t victims b =
  let t_heal = Fg_obs.Profile.start () in
  let traces =
    Fg_obs.Trace.with_span "fg.delete"
      ~attrs:[ ("victims", Fg_obs.Event.Int (List.length victims)) ]
      (fun sp ->
        let dead =
          List.fold_left (fun s v -> Node_id.Set.add v s) Node_id.Set.empty victims
        in
        List.iter (fun v -> Node_id.Tbl.remove t.alive v) victims;
        let t_collect = Fg_obs.Profile.start () in
        let cs =
          Fg_obs.Trace.with_span "fg.collect" (fun _ -> List.map (collect t dead) victims)
        in
        Fg_obs.Profile.stamp Fg_obs.Profile.Collect t_collect;
        let groups = match cs with [ _ ] -> [ cs ] | _ -> group t dead cs in
        let traces = List.map (heal_group t b) groups in
        let t_image = Fg_obs.Profile.start () in
        Fg_obs.Trace.with_span "fg.image" (fun _ ->
            List.iter (Rt.drop_image_node t.rt) victims);
        Fg_obs.Profile.stamp Fg_obs.Profile.Image t_image;
        let n_groups = List.length groups in
        (match b with
        | None -> ()
        | Some b ->
          List.iter (Delta.record_node_remove b) victims;
          Delta.record_groups b n_groups);
        if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
          Fg_obs.Trace.attr sp "groups" (Fg_obs.Event.Int n_groups);
          Fg_obs.Metrics.incr ~n:(List.length victims) "fg.deletions";
          List.iter
            (fun (tr : Rt.heal_trace) ->
              Fg_obs.Metrics.observe "fg.anchors" (float_of_int tr.ht_anchors);
              Fg_obs.Metrics.observe "fg.notified" (float_of_int tr.ht_notified))
            traces
        end;
        traces)
  in
  Fg_obs.Profile.stamp Fg_obs.Profile.Heal t_heal;
  traces

let body t event b =
  match event with
  | Delta.Inserted { node; nbrs } ->
    insert_body t node nbrs b;
    []
  | Delta.Deleted { victims } -> delete_victims t victims b

let apply t event =
  let event = validate t event in
  with_event t event (body t event)

let run t event =
  let event = validate t event in
  run_event t event (body t event)

let insert t v nbrs = run t (Delta.Inserted { node = v; nbrs })
let delete t v = run t (Delta.Deleted { victims = [ v ] })
let delete_batch t victims = run t (Delta.Deleted { victims })
let delete_delta t v = apply t (Delta.Deleted { victims = [ v ] })

let graph t = Rt.image t.rt
let gprime t = t.gprime
let live_nodes t = Node_id.Tbl.fold (fun v () acc -> v :: acc) t.alive []
let num_live t = Node_id.Tbl.length t.alive
let num_seen t = Adjacency.num_nodes t.gprime

let stretch_bound t =
  let n = num_seen t in
  if n <= 1 then 0
  else begin
    let rec go p d = if p >= n then d else go (2 * p) (d + 1) in
    go 1 0
  end

let degree_bound t v = 3 * Adjacency.degree t.gprime v
let helper_load t v = Rt.helper_count t.rt v
let ctx t = t.rt
