module Node_id = Fg_graph.Node_id
module Adjacency = Fg_graph.Adjacency

type event =
  | Inserted of { node : Node_id.t; nbrs : Node_id.t list }
  | Deleted of { victims : Node_id.t list }

type t = {
  gen : int;
  event : event;
  nodes_added : Node_id.t list;
  nodes_removed : Node_id.t list;
  g_added : Edge.t list;
  g_removed : Edge.t list;
  gp_added : Edge.t list;
  vnodes_created : int;
  vnodes_discarded : int;
  groups : int;
}

(* ---- builder ----

   The builder nets out image-edge churn as it happens: a heal can remove an
   image edge and re-add it (or vice versa) while restructuring RTs, and the
   delta records only the net effect. Since the engine records an edge only
   when the refcounted image actually flips, consecutive recorded operations
   on one edge alternate add/remove, so the net count stays in {-1, 0, +1}. *)

type builder = {
  b_event : event;
  net : int Edge.Tbl.t;
  mutable b_gp : Edge.t list;
  mutable b_nodes_added : Node_id.t list;
  mutable b_nodes_removed : Node_id.t list;
  mutable b_created : int;
  mutable b_discarded : int;
  mutable b_groups : int;
}

let builder event =
  {
    b_event = event;
    net = Edge.Tbl.create 16;
    b_gp = [];
    b_nodes_added = [];
    b_nodes_removed = [];
    b_created = 0;
    b_discarded = 0;
    b_groups = 1;
  }

let bump b e k =
  let c = Option.value (Edge.Tbl.find_opt b.net e) ~default:0 in
  Edge.Tbl.replace b.net e (c + k)

let record_g_add b u v = bump b (Edge.make u v) 1
let record_g_remove b u v = bump b (Edge.make u v) (-1)
let record_gp_add b e = b.b_gp <- e :: b.b_gp
let record_node_add b v = b.b_nodes_added <- v :: b.b_nodes_added
let record_node_remove b v = b.b_nodes_removed <- v :: b.b_nodes_removed
let record_vnode_created b = b.b_created <- b.b_created + 1
let record_vnode_discarded b = b.b_discarded <- b.b_discarded + 1
let record_groups b n = b.b_groups <- n

let build ~gen b =
  let added = ref [] and removed = ref [] in
  Edge.Tbl.iter
    (fun e c ->
      if c > 0 then added := e :: !added else if c < 0 then removed := e :: !removed)
    b.net;
  {
    gen;
    event = b.b_event;
    nodes_added = List.sort Node_id.compare b.b_nodes_added;
    nodes_removed = List.sort Node_id.compare b.b_nodes_removed;
    g_added = List.sort Edge.compare !added;
    g_removed = List.sort Edge.compare !removed;
    gp_added = List.sort Edge.compare b.b_gp;
    vnodes_created = b.b_created;
    vnodes_discarded = b.b_discarded;
    groups = b.b_groups;
  }

(* ---- replay ---- *)

let apply ?gprime g t =
  List.iter (fun v -> Adjacency.add_node g v) t.nodes_added;
  List.iter (fun (e : Edge.t) -> Adjacency.add_edge g e.a e.b) t.g_added;
  List.iter (fun (e : Edge.t) -> Adjacency.remove_edge g e.a e.b) t.g_removed;
  List.iter (fun v -> Adjacency.remove_node g v) t.nodes_removed;
  match gprime with
  | None -> ()
  | Some gp ->
    List.iter (fun v -> Adjacency.add_node gp v) t.nodes_added;
    List.iter (fun (e : Edge.t) -> Adjacency.add_edge gp e.a e.b) t.gp_added

(* ---- derived views ---- *)

let touched t =
  let tbl = Node_id.Tbl.create 16 in
  let add v = Node_id.Tbl.replace tbl v () in
  List.iter add t.nodes_added;
  List.iter
    (fun (e : Edge.t) ->
      add e.a;
      add e.b)
    t.g_added;
  List.iter
    (fun (e : Edge.t) ->
      add e.a;
      add e.b)
    t.g_removed;
  Node_id.Tbl.fold (fun v () acc -> v :: acc) tbl []

let removed t = t.nodes_removed

(* ---- printing / observability ---- *)

let edges_str es =
  String.concat " " (List.map (fun (e : Edge.t) -> Printf.sprintf "%d-%d" e.a e.b) es)

let event_str = function
  | Inserted { node; _ } -> Printf.sprintf "insert %d" node
  | Deleted { victims } ->
    "delete " ^ String.concat "," (List.map string_of_int victims)

let to_attrs t =
  let open Fg_obs.Event in
  [
    ("gen", Int t.gen);
    ("event", Str (event_str t.event));
    ("g_added", Str (edges_str t.g_added));
    ("g_removed", Str (edges_str t.g_removed));
    ("gp_added", Str (edges_str t.gp_added));
    ("vnodes_created", Int t.vnodes_created);
    ("vnodes_discarded", Int t.vnodes_discarded);
    ("groups", Int t.groups);
  ]

let pp ppf t =
  Format.fprintf ppf
    "@[<v>delta gen=%d (%s)@,+G [%s]@,-G [%s]@,+G' [%s]@,vnodes +%d/-%d groups=%d@]"
    t.gen (event_str t.event) (edges_str t.g_added) (edges_str t.g_removed)
    (edges_str t.gp_added) t.vnodes_created t.vnodes_discarded t.groups
