module Node_id = Fg_graph.Node_id
module Adjacency = Fg_graph.Adjacency
module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Edge = Fg_core.Edge
module Delta = Fg_core.Delta

(* Per-event check recorded at mutation time and audited by [verify].
   Facts that stay true forever (a victim stays dead, an inserted node
   stays present) are re-checked lazily; the repair-class comparison is
   done eagerly inside [delete] because a later repair may legitimately
   merge the class away. *)
type event_check =
  | Ins of Node_id.t * Node_id.t list
  | Del of { victim : Node_id.t; touched : Node_id.t list }

type t = {
  st : Dist_state.t;
  fg : Fg.t;
  mutable events : event_check list; (* newest first, drained by [verify] *)
  mutable repair_errs : string list; (* eager class mismatches, newest first *)
}

let create g0 =
  let st = Dist_state.create () in
  Adjacency.iter_nodes (fun v -> Dist_state.add_processor st v) g0;
  Adjacency.iter_edges (fun u v -> Dist_state.add_edge st u v) g0;
  { st; fg = Fg.of_graph g0; events = []; repair_errs = [] }

let insert t v nbrs =
  Fg.insert t.fg v nbrs;
  Dist_state.add_processor t.st v;
  let nbrs = List.sort_uniq Node_id.compare nbrs in
  List.iter (fun u -> Dist_state.add_edge t.st v u) nbrs;
  t.events <- Ins (v, nbrs) :: t.events

let stats_attrs (s : Netsim.stats) =
  [
    ("rounds", Fg_obs.Event.Int s.Netsim.rounds);
    ("messages", Fg_obs.Event.Int s.Netsim.messages);
    ("total_bits", Fg_obs.Event.Int s.Netsim.total_bits);
    ("max_message_bits", Fg_obs.Event.Int s.Netsim.max_message_bits);
    ("max_agent_bits", Fg_obs.Event.Int s.Netsim.max_agent_bits);
    ("max_agent_messages", Fg_obs.Event.Int s.Netsim.max_agent_messages);
  ]

let class_of_root root =
  Rt.leaves_of root
  |> List.map (fun (l : Rt.vnode) ->
         (l.Rt.half.Fg_core.Edge.Half.proc, l.Rt.half.Fg_core.Edge.Half.edge))
  |> List.sort compare

(* The one structural fact a single repair establishes: the merged RT's
   leaf class. The class is determined by the merge sets alone (not the
   tie-breaks), so distributed and centralized must agree exactly — but
   only *now*, before a later deletion merges it into a bigger haft, so
   the comparison cannot be deferred to [verify]. *)
let check_repair_class t (trace : Rt.heal_trace) =
  match trace.Rt.ht_root with
  | None -> ()
  | Some root -> (
    match class_of_root root with
    | [] -> ()
    | (p, e) :: _ as ref_cls -> (
      match Dist_state.class_of_leaf t.st p e with
      | None ->
        t.repair_errs <-
          Printf.sprintf "repair class: no distributed leaf at proc %d" p
          :: t.repair_errs
      | Some dist_cls ->
        if dist_cls <> ref_cls then
          t.repair_errs <-
            Printf.sprintf
              "repair class mismatch at proc %d: %d distributed leaves vs %d centralized"
              p (List.length dist_cls) (List.length ref_cls)
          :: t.repair_errs))

let delete t v =
  Fg_obs.Trace.with_span "dist.delete" ~attrs:[ ("node", Fg_obs.Event.Int v) ]
    (fun sp ->
      let n_seen = Fg.num_seen t.fg in
      let stats = Dist_protocol.delete t.st v ~n_seen in
      if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
        List.iter (fun (k, a) -> Fg_obs.Trace.attr sp k a) (stats_attrs stats);
        Fg_obs.Metrics.observe "dist.rounds" (float_of_int stats.Netsim.rounds);
        Fg_obs.Metrics.observe "dist.messages" (float_of_int stats.Netsim.messages);
        Fg_obs.Metrics.observe "dist.bits" (float_of_int stats.Netsim.total_bits)
      end;
      let delta, traces = Fg.apply t.fg (Delta.Deleted { victims = [ v ] }) in
      List.iter (check_repair_class t) traces;
      t.events <- Del { victim = v; touched = Delta.touched delta } :: t.events;
      stats)

let graph t = Dist_state.derived_graph t.st
let state t = t.st
let reference t = t.fg

let leaf_partition_of_fg fg =
  let ctx = Fg.ctx fg in
  List.sort compare (List.map class_of_root (Rt.rt_roots ctx))

let verify t =
  let errs = ref [] in
  let say fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* class mismatches caught eagerly at repair time *)
  List.iter (fun e -> errs := e :: !errs) t.repair_errs;
  let g = lazy (graph t) in
  let gp = Fg.gprime t.fg in
  let check_degree v =
    if Dist_state.is_alive t.st v then begin
      let d = Adjacency.degree (Lazy.force g) v and d' = Adjacency.degree gp v in
      if d > 4 * d' then say "degree: node %d has %d > 4*%d" v d d'
    end
  in
  List.iter
    (function
      | Ins (v, nbrs) ->
        if not (Dist_state.is_alive t.st v) then
          say "insert: node %d not alive distributed" v;
        List.iter
          (fun u ->
            if Dist_state.find t.st v (Edge.make v u) = None then
              say "insert: node %d lacks a row for edge to %d" v u)
          nbrs;
        check_degree v
      | Del { victim; touched } ->
        if Dist_state.is_alive t.st victim then
          say "delete: node %d still alive distributed" victim;
        List.iter check_degree touched)
    (List.rev t.events);
  t.events <- [];
  t.repair_errs <- [];
  List.rev !errs

let verify_full t =
  let errs = ref [] in
  let say fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (* distributed structural validity *)
  List.iter (fun e -> say "dist: %s" e) (Dist_state.check t.st);
  (* leaf partitions agree with the centralized reference *)
  let dist_part = List.sort compare (Dist_state.leaf_partition t.st) in
  let ref_part = leaf_partition_of_fg t.fg in
  if dist_part <> ref_part then
    say "leaf partition differs: %d distributed classes vs %d centralized"
      (List.length dist_part) (List.length ref_part);
  (* bounds on the derived network *)
  let g = graph t in
  let gp = Fg.gprime t.fg in
  List.iter
    (fun v ->
      let d = Adjacency.degree g v and d' = Adjacency.degree gp v in
      if d > 4 * d' then say "degree: node %d has %d > 4*%d" v d d')
    (Fg.live_nodes t.fg);
  (* connectivity mirrors the centralized image *)
  let ref_g = Fg.graph t.fg in
  let ref_comp = List.length (Fg_graph.Connectivity.components ref_g) in
  let dist_comp = List.length (Fg_graph.Connectivity.components g) in
  if ref_comp <> dist_comp then
    say "connectivity: %d components distributed vs %d centralized" dist_comp ref_comp;
  List.rev !errs
