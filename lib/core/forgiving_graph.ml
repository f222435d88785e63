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

   Delta-returning entry points run inside [with_event]: a Delta.builder is
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

let insert_checked t v nbrs =
  if Adjacency.mem_node t.gprime v then
    invalid_arg "Forgiving_graph.insert: node id was already seen";
  let nbrs = List.sort_uniq Node_id.compare nbrs in
  let check u =
    if not (is_alive t u) then
      invalid_arg "Forgiving_graph.insert: neighbour is not live"
  in
  List.iter check nbrs;
  nbrs

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

let insert_delta t v nbrs =
  let nbrs = insert_checked t v nbrs in
  fst (with_event t (Delta.Inserted { node = v; nbrs }) (insert_body t v nbrs))

let insert t v nbrs =
  let nbrs = insert_checked t v nbrs in
  run_event t (Delta.Inserted { node = v; nbrs }) (insert_body t v nbrs)

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

let delete_body t v b =
  let t_heal = Fg_obs.Profile.start () in
  let degree = Adjacency.degree t.gprime v in
  let trace =
    Fg_obs.Trace.with_span "fg.delete"
      ~attrs:[ ("node", Fg_obs.Event.Int v); ("degree", Fg_obs.Event.Int degree) ]
      (fun sp ->
      Node_id.Tbl.remove t.alive v;
      let marked = ref [] and fresh = ref [] in
      let classify x =
        let e = Edge.make v x in
        if is_alive t x then begin
          (* live neighbour: drop the direct edge, give x a leaf in the new RT *)
          Rt.remove_direct t.rt v x;
          fresh := Edge.Half.make x e :: !fresh
        end
        else begin
          (* dead neighbour: v's attachment into that RT disappears *)
          let mine = Edge.Half.make v e in
          (match Rt.find_leaf t.rt mine with
          | Some leaf -> marked := leaf :: !marked
          | None -> assert false (* a leaf exists for every dead-neighbour edge *));
          match Rt.find_helper t.rt mine with
          | Some h -> marked := h :: !marked
          | None -> ()
        end
      in
      let t_collect = Fg_obs.Profile.start () in
      Fg_obs.Trace.with_span "fg.collect" (fun _ ->
          (* descending, so [remove_direct] pops each image edge off the tail
             of [v]'s sorted row instead of shifting it (an O(deg^2) memmove
             for hubs); the [List.rev]s restore exactly the order the
             ascending walk used to produce, keeping heal byte-identical *)
          Adjacency.iter_neighbors_rev classify t.gprime v);
      Fg_obs.Profile.stamp Fg_obs.Profile.Collect t_collect;
      let _root, trace =
        Rt.heal t.rt ~events:(b <> None) ~marked:(List.rev !marked)
          ~fresh:(List.rev !fresh)
      in
      let t_image = Fg_obs.Profile.start () in
      Fg_obs.Trace.with_span "fg.image" (fun _ -> Rt.drop_image_node t.rt v);
      Fg_obs.Profile.stamp Fg_obs.Profile.Image t_image;
      (match b with None -> () | Some b -> Delta.record_node_remove b v);
      if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
        Fg_obs.Trace.attr sp "anchors" (Fg_obs.Event.Int trace.Rt.ht_anchors);
        Fg_obs.Trace.attr sp "notified" (Fg_obs.Event.Int trace.Rt.ht_notified);
        Fg_obs.Metrics.incr "fg.deletions";
        Fg_obs.Metrics.observe "fg.anchors" (float_of_int trace.Rt.ht_anchors);
        Fg_obs.Metrics.observe "fg.notified" (float_of_int trace.Rt.ht_notified)
      end;
      trace)
  in
  Fg_obs.Profile.stamp Fg_obs.Profile.Heal t_heal;
  trace

let delete_delta t v =
  if not (is_alive t v) then invalid_arg "Forgiving_graph.delete: node is not live";
  with_event t (Delta.Deleted { victims = [ v ] }) (delete_body t v)

let delete_traced t v = snd (delete_delta t v)

let delete t v =
  if not (is_alive t v) then invalid_arg "Forgiving_graph.delete: node is not live";
  run_event t (Delta.Deleted { victims = [ v ] }) (delete_body t v)

(* Simultaneous deletion of a victim set. Victims are partitioned into
   independent repair groups — two victims interact iff they are adjacent
   in G' or their attachments live in the same RT — and each group heals
   with one combined Strip/Merge. Unrelated victims therefore do not get
   spliced into a common reconstruction tree (matching what the sequential
   algorithm would produce for them). *)
let delete_batch_checked t victims =
  let victims = List.sort_uniq Node_id.compare victims in
  List.iter
    (fun v ->
      if not (is_alive t v) then
        invalid_arg "Forgiving_graph.delete_batch: node is not live")
    victims;
  victims

let delete_batch_body t victims b =
  let t_heal = Fg_obs.Profile.start () in
  let traces =
    Fg_obs.Trace.with_span "fg.delete_batch"
      ~attrs:[ ("victims", Fg_obs.Event.Int (List.length victims)) ]
      (fun sp ->
  let dead = List.fold_left (fun s v -> Node_id.Set.add v s) Node_id.Set.empty victims in
  List.iter (fun v -> Node_id.Tbl.remove t.alive v) victims;
  (* per-victim marked vnodes and fresh half-edges *)
  let marked = Node_id.Tbl.create 8 and fresh = Node_id.Tbl.create 8 in
  let push tbl v x = Node_id.Tbl.replace tbl v (x :: Option.value (Node_id.Tbl.find_opt tbl v) ~default:[]) in
  let classify v x =
    let e = Edge.make v x in
    if Node_id.Set.mem x dead then begin
      (* victim-victim edge: both were live until now, so it was a direct
         edge with no attachments; drop it from the image exactly once *)
      if v < x then Rt.remove_direct t.rt v x
    end
    else if is_alive t x then begin
      Rt.remove_direct t.rt v x;
      push fresh v (Edge.Half.make x e)
    end
    else begin
      (* x died in an earlier round: v has a leaf (and maybe a helper) *)
      let mine = Edge.Half.make v e in
      (match Rt.find_leaf t.rt mine with
      | Some leaf -> push marked v leaf
      | None -> assert false);
      match Rt.find_helper t.rt mine with
      | Some h -> push marked v h
      | None -> ()
    end
  in
  let t_collect = Fg_obs.Profile.start () in
  Fg_obs.Trace.with_span "fg.collect" (fun _ ->
      (* descending for the same tail-pop reason as [delete_body]; the
         per-victim lists come out ascending and are reversed in [collect] *)
      List.iter (fun v -> Adjacency.iter_neighbors_rev (classify v) t.gprime v) victims);
  Fg_obs.Profile.stamp Fg_obs.Profile.Collect t_collect;
  (* group victims: G'-adjacency within the batch, or a shared RT *)
  let uf = Fg_graph.Union_find.create () in
  List.iter (fun v -> ignore (Fg_graph.Union_find.find uf v)) victims;
  List.iter
    (fun v ->
      Adjacency.iter_neighbors
        (fun x -> if Node_id.Set.mem x dead then ignore (Fg_graph.Union_find.union uf v x))
        t.gprime v)
    victims;
  let root_owner = Hashtbl.create 8 in
  List.iter
    (fun v ->
      List.iter
        (fun (m : Rt.vnode) ->
          let r = (Rt.root_of m).Rt.id in
          match Hashtbl.find_opt root_owner r with
          | None -> Hashtbl.replace root_owner r v
          | Some u -> ignore (Fg_graph.Union_find.union uf u v))
        (Option.value (Node_id.Tbl.find_opt marked v) ~default:[]))
    victims;
  let module Im = Map.Make (Int) in
  let groups =
    List.fold_left
      (fun m v ->
        let r = Fg_graph.Union_find.find uf v in
        Im.update r (fun l -> Some (v :: Option.value l ~default:[])) m)
      Im.empty victims
  in
  let heal_group members =
    let collect tbl =
      List.concat_map
        (fun v -> List.rev (Option.value (Node_id.Tbl.find_opt tbl v) ~default:[]))
        members
    in
    let _root, trace =
      Rt.heal t.rt ~events:(b <> None) ~marked:(collect marked) ~fresh:(collect fresh)
    in
    trace
  in
  let traces = Im.fold (fun _ members acc -> heal_group members :: acc) groups [] in
  let t_image = Fg_obs.Profile.start () in
  Fg_obs.Trace.with_span "fg.image" (fun _ ->
      List.iter (fun v -> Rt.drop_image_node t.rt v) victims);
  Fg_obs.Profile.stamp Fg_obs.Profile.Image t_image;
  (match b with
  | None -> ()
  | Some b ->
    List.iter (fun v -> Delta.record_node_remove b v) victims;
    Delta.record_groups b (Im.cardinal groups));
  if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
    Fg_obs.Trace.attr sp "groups" (Fg_obs.Event.Int (Im.cardinal groups));
    Fg_obs.Metrics.incr "fg.batch_deletions";
    Fg_obs.Metrics.incr ~n:(List.length victims) "fg.deletions"
  end;
  List.rev traces)
  in
  Fg_obs.Profile.stamp Fg_obs.Profile.Heal t_heal;
  traces

let delete_batch_delta t victims =
  let victims = delete_batch_checked t victims in
  with_event t (Delta.Deleted { victims }) (delete_batch_body t victims)

let delete_batch_traced t victims = snd (delete_batch_delta t victims)

let delete_batch t victims =
  let victims = delete_batch_checked t victims in
  run_event t (Delta.Deleted { victims }) (delete_batch_body t victims)

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
