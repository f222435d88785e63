(* Table-1 completeness: the union of per-processor local states determines
   the entire virtual forest, after any attack history.

   The centralised engine is projected into [Dist_state] rows (the fields
   the distributed protocol keeps), then [Dist_state.check] recomputes
   every cached height, count and representative from the rows alone, and
   the tree edges rebuilt from the rows must equal the [Rt] forest. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Edge = Fg_core.Edge
module Dist_state = Fg_sim.Dist_state
module Vref = Fg_sim.Vref

let vref_opt = Option.map Vref.of_vnode

(* every live processor's rows, one per incident G'-edge, filled from the
   leaf and helper vnodes the engine keeps for that half-edge *)
let project fg =
  let t = Dist_state.create () in
  let ctx = Fg.ctx fg in
  let fill owner other =
    let edge = Edge.make owner other in
    let other_dead = not (Fg.is_alive fg other) in
    let f = Dist_state.ensure_row t owner edge ~other_dead in
    let half = Edge.Half.make owner edge in
    if other_dead then
      f.endpoint <- Option.bind (Rt.find_leaf ctx half) (fun leaf -> vref_opt leaf.Rt.parent);
    match Rt.find_helper ctx half with
    | None -> ()
    | Some h ->
      f.has_helper <- true;
      f.h_parent <- vref_opt h.Rt.parent;
      f.h_left <- vref_opt h.Rt.left;
      f.h_right <- vref_opt h.Rt.right;
      f.h_height <- h.Rt.height;
      f.h_count <- h.Rt.leaves;
      f.h_rep <- Some (Vref.of_vnode h.Rt.rep)
  in
  List.iter
    (fun p ->
      Dist_state.add_processor t p;
      Adjacency.iter_neighbors (fill p) (Fg.gprime fg) p)
    (Fg.live_nodes fg);
  t

module Link = Set.Make (struct
  type t = Vref.t * Vref.t

  let compare (p1, c1) (p2, c2) =
    let c = Vref.compare p1 p2 in
    if c <> 0 then c else Vref.compare c1 c2
end)

(* (parent, child) tree links named by the rows: a dead-endpoint row's
   leaf names its parent, a helper names its parent and its children *)
let row_links t =
  let visit acc (f : Dist_state.fields) =
    let up child = function Some p -> Link.add (p, child) acc | None -> acc in
    let acc = if f.other_dead then up (Vref.real f.owner f.edge) f.endpoint else acc in
    if not f.has_helper then acc
    else
      let h = Vref.helper f.owner f.edge in
      let down acc = function Some c -> Link.add (h, c) acc | None -> acc in
      down (down (up h f.h_parent) f.h_left) f.h_right
  in
  List.fold_left
    (fun acc p -> List.fold_left visit acc (Dist_state.rows t p))
    Link.empty (Dist_state.live_procs t)

let forest_links fg =
  let acc = ref Link.empty in
  let visit (v : Rt.vnode) =
    let link c = acc := Link.add (Vref.of_vnode v, Vref.of_vnode c) !acc in
    Option.iter link v.Rt.left;
    Option.iter link v.Rt.right
  in
  List.iter (Rt.iter_tree visit) (Rt.rt_roots (Fg.ctx fg));
  !acc

(* [] iff the projected rows pass [Dist_state.check] and rebuild exactly
   the engine's virtual forest *)
let violations fg =
  let t = project fg in
  let from_rows = row_links t and actual = forest_links fg in
  let report what links =
    List.map
      (fun (p, c) -> Format.asprintf "rows %s edge %a>%a" what Vref.pp p Vref.pp c)
      (Link.elements links)
  in
  Dist_state.check t
  @ report "name extra" (Link.diff from_rows actual)
  @ report "miss" (Link.diff actual from_rows)

let check fg label =
  match violations fg with
  | [] -> ()
  | e :: _ as errs ->
    Alcotest.failf "%s: %d Table-1 violations, first: %s" label (List.length errs) e

let test_fresh_graph () =
  let fg = Fg.of_graph (Generators.ring 8) in
  check fg "fresh ring";
  (* every row of a fresh graph points at the live real endpoint *)
  List.iter
    (fun (f : Dist_state.fields) ->
      match f.endpoint with
      | Some { Vref.kind = Vref.Real; proc; _ } ->
        Alcotest.(check bool) "endpoint alive" true (Fg.is_alive fg proc);
        Alcotest.(check bool) "no helper" false f.has_helper
      | _ -> Alcotest.fail "expected a live real endpoint")
    (Dist_state.rows (project fg) 0)

let healed_star_17 () =
  let fg = Fg.of_graph (Generators.star 17) in
  Fg.delete fg 0;
  fg

let test_star_heal () =
  let fg = healed_star_17 () in
  check fg "star heal";
  let t = project fg in
  (* 16 leaves + 15 helpers -> 30 tree edges *)
  Alcotest.(check int) "tree edges" 30 (Link.cardinal (row_links t));
  (* every satellite's single row now points into the RT *)
  List.iter
    (fun v ->
      match Dist_state.rows t v with
      | [ f ] -> (
        match f.endpoint with
        | Some { Vref.kind = Vref.Helper; _ } -> ()
        | Some { Vref.kind = Vref.Real; _ } -> Alcotest.fail "should point at a helper"
        | None -> Alcotest.fail "missing endpoint")
      | rows -> Alcotest.failf "satellite %d has %d rows" v (List.length rows))
    [ 1; 5; 16 ]

(* A corrupted cache in the engine must show up in the projection: each
   mutation hits the root's left helper of a fresh heal. *)
let test_star_heal_mutations () =
  let mutated f =
    let fg = healed_star_17 () in
    f (Option.get (List.hd (Rt.rt_roots (Fg.ctx fg))).Rt.left);
    List.length (violations fg)
  in
  Alcotest.(check int) "height + 1" 1 (mutated (fun h -> h.Rt.height <- h.Rt.height + 1));
  Alcotest.(check int) "leaves - 1" 1 (mutated (fun h -> h.Rt.leaves <- h.Rt.leaves - 1));
  Alcotest.(check bool) "dropped parent pointer" true
    (mutated (fun h -> h.Rt.parent <- None) > 0)

let test_after_churn () =
  let rng = Rng.create 31 in
  let g = Generators.erdos_renyi rng 32 0.15 in
  let fg = Fg.of_graph g in
  let next = ref 32 in
  for step = 1 to 40 do
    let live = Fg.live_nodes fg in
    if Rng.bool rng && List.length live > 3 then Fg.delete fg (Rng.pick rng live)
    else begin
      let k = 1 + Rng.int rng 3 in
      Fg.insert fg !next (Array.to_list (Rng.sample rng k (Array.of_list live)));
      incr next
    end;
    check fg (Printf.sprintf "churn step %d" step)
  done

let test_degree_one_rt () =
  (* deleting a leaf leaves its neighbour's edge dangling: endpoint None *)
  let fg = Fg.of_graph (Generators.path 2) in
  Fg.delete fg 1;
  check fg "dangling edge";
  match Dist_state.rows (project fg) 0 with
  | [ f ] -> Alcotest.(check bool) "no endpoint" true (f.endpoint = None)
  | _ -> Alcotest.fail "expected one row"

let test_balanced_policy_table1 () =
  let fg = Fg.of_graph ~policy:Fg_core.Rt.Degree_balanced (Generators.star 33) in
  Fg.delete fg 0;
  check fg "balanced policy"

let suite =
  [
    Alcotest.test_case "table1: fresh graph" `Quick test_fresh_graph;
    Alcotest.test_case "table1: star heal" `Quick test_star_heal;
    Alcotest.test_case "table1: star heal cache mutations" `Quick test_star_heal_mutations;
    Alcotest.test_case "table1: complete after churn" `Quick test_after_churn;
    Alcotest.test_case "table1: dangling edge" `Quick test_degree_one_rt;
    Alcotest.test_case "table1: balanced policy" `Quick test_balanced_policy_table1;
  ]
