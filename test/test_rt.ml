(* White-box tests of the reconstruction-tree engine: traces, fragments,
   merge mechanics, policies. *)

open Fg_graph
open Fg_core

(* the repair trace of deleting [v] alone: one victim, one group *)
let heal_trace fg v =
  List.hd (snd (Forgiving_graph.apply fg (Delta.Deleted { victims = [ v ] })))

let star_fg ?policy n =
  let fg = Forgiving_graph.of_graph ?policy (Generators.star n) in
  fg

let test_trace_star () =
  let fg = star_fg 9 in
  let trace = heal_trace fg 0 in
  (* every satellite is its own fresh anchor *)
  Alcotest.(check int) "anchors" 8 trace.Rt.ht_anchors;
  Alcotest.(check int) "notified = live neighbours" 8 trace.Rt.ht_notified;
  Alcotest.(check int) "nothing discarded" 0 trace.Rt.ht_initial_discarded;
  (* 8 singletons -> 3 merge levels (4, 2, 1 merges) *)
  Alcotest.(check (list int)) "level widths" [ 4; 2; 1 ]
    (List.map List.length trace.Rt.ht_levels);
  (* total helpers created across all levels = 7 (internal nodes of haft(8)) *)
  let created =
    List.fold_left
      (fun acc evs ->
        List.fold_left (fun a (e : Rt.merge_event) -> a + e.Rt.me_created) acc evs)
      0 trace.Rt.ht_levels
  in
  Alcotest.(check int) "7 helpers" 7 created

let test_trace_isolated () =
  let g = Adjacency.create () in
  Adjacency.add_node g 0;
  Adjacency.add_node g 1;
  let fg = Forgiving_graph.of_graph g in
  let trace = heal_trace fg 0 in
  Alcotest.(check int) "no anchors" 0 trace.Rt.ht_anchors;
  Alcotest.(check (list (list unit))) "no levels" []
    (List.map (List.map ignore) trace.Rt.ht_levels)

let test_trace_degree_one () =
  let fg = Forgiving_graph.of_graph (Generators.path 2) in
  let trace = heal_trace fg 1 in
  Alcotest.(check int) "one anchor" 1 trace.Rt.ht_anchors;
  (* single fresh singleton: one self-merge event with no helper creation *)
  match trace.Rt.ht_levels with
  | [ [ ev ] ] ->
    Alcotest.(check int) "no helpers" 0 ev.Rt.me_created;
    Alcotest.(check (list int)) "one leaf" [ 1 ] ev.Rt.me_left_sizes
  | _ -> Alcotest.fail "expected a single self-merge"

let test_anchors_at_most_3d () =
  (* Lemma 4: |BT_v| <= 3d. Stress with repeated adjacent deletions. *)
  let rng = Rng.create 33 in
  let g = Generators.erdos_renyi rng 48 0.15 in
  let fg = Forgiving_graph.of_graph g in
  for v = 0 to 23 do
    let d = Adjacency.degree (Forgiving_graph.gprime fg) v in
    let trace = heal_trace fg v in
    Alcotest.(check bool)
      (Printf.sprintf "delete %d: anchors %d <= 3*%d" v trace.Rt.ht_anchors d)
      true
      (trace.Rt.ht_anchors <= max 1 (3 * d))
  done

let test_rt_root_unique_after_star () =
  let fg = star_fg 17 in
  Forgiving_graph.delete fg 0;
  match Rt.rt_roots (Forgiving_graph.ctx fg) with
  | [ root ] ->
    Alcotest.(check int) "leaves" 16 root.Rt.leaves;
    Alcotest.(check int) "height" 4 root.Rt.height;
    Alcotest.(check bool) "haft" true (Fg_haft.Haft.is_haft (Rt.to_haft root))
  | roots -> Alcotest.failf "expected one RT, got %d" (List.length roots)

let test_leaf_helper_tables () =
  let fg = star_fg 9 in
  Forgiving_graph.delete fg 0;
  let ctx = Forgiving_graph.ctx fg in
  Alcotest.(check int) "8 leaves" 8 (List.length (Rt.all_leaves ctx));
  Alcotest.(check int) "7 helpers" 7 (List.length (Rt.all_helpers ctx));
  (* each satellite simulates at most one helper (it has G'-degree 1) *)
  for v = 1 to 8 do
    Alcotest.(check bool)
      (Printf.sprintf "helper load of %d" v)
      true
      (Rt.helper_count ctx v <= 1)
  done

let test_shape_is_unique_haft () =
  (* the healed RT shape must equal the spec haft over the same leaf count,
     regardless of merge order (Lemma 1 uniqueness) *)
  let check n =
    let fg = star_fg n in
    Forgiving_graph.delete fg 0;
    match Rt.rt_roots (Forgiving_graph.ctx fg) with
    | [ root ] ->
      let spec = Fg_haft.Haft.of_list (List.init (n - 1) Fun.id) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d" n)
        true
        (Fg_haft.Haft.equal_shape (Rt.to_haft root) spec)
    | _ -> Alcotest.fail "expected one RT"
  in
  List.iter check [ 4; 6; 9; 12; 14; 23; 33 ]

let test_balanced_policy_invariants () =
  (* the Degree_balanced policy must preserve every invariant *)
  let rng = Rng.create 9 in
  let g = Generators.erdos_renyi rng 32 0.15 in
  let fg = Forgiving_graph.of_graph ~policy:Rt.Degree_balanced g in
  for v = 0 to 15 do
    Forgiving_graph.delete fg v;
    match Invariants.check fg with
    | [] -> ()
    | e :: _ -> Alcotest.failf "balanced policy, after deleting %d: %s" v e
  done

let test_balanced_policy_star_shape () =
  let fg = star_fg ~policy:Rt.Degree_balanced 17 in
  Forgiving_graph.delete fg 0;
  match Rt.rt_roots (Forgiving_graph.ctx fg) with
  | [ root ] -> Alcotest.(check int) "complete haft" 16 root.Rt.leaves
  | _ -> Alcotest.fail "expected one RT"

let test_image_no_dead_nodes () =
  let fg = star_fg 9 in
  Forgiving_graph.delete fg 0;
  Alcotest.(check bool) "0 gone from image" false
    (Adjacency.mem_node (Forgiving_graph.graph fg) 0)

let test_insert_into_healed_region () =
  (* inserting next to a node that participates in an RT must not disturb
     the RT bookkeeping *)
  let fg = star_fg 9 in
  Forgiving_graph.delete fg 0;
  Forgiving_graph.insert fg 100 [ 1; 2; 3 ];
  Alcotest.(check (list string)) "invariants" [] (Invariants.check fg);
  Forgiving_graph.delete fg 1;
  Alcotest.(check (list string)) "invariants after" [] (Invariants.check fg)

let suite =
  [
    Alcotest.test_case "trace: star deletion" `Quick test_trace_star;
    Alcotest.test_case "trace: isolated node" `Quick test_trace_isolated;
    Alcotest.test_case "trace: degree one" `Quick test_trace_degree_one;
    Alcotest.test_case "trace: anchors <= 3d" `Quick test_anchors_at_most_3d;
    Alcotest.test_case "rt: unique root after star heal" `Quick
      test_rt_root_unique_after_star;
    Alcotest.test_case "rt: leaf/helper table sizes" `Quick test_leaf_helper_tables;
    Alcotest.test_case "rt: healed shape = unique haft" `Quick test_shape_is_unique_haft;
    Alcotest.test_case "policy: balanced keeps invariants" `Quick
      test_balanced_policy_invariants;
    Alcotest.test_case "policy: balanced star shape" `Quick
      test_balanced_policy_star_shape;
    Alcotest.test_case "image: dead node dropped" `Quick test_image_no_dead_nodes;
    Alcotest.test_case "insert into healed region" `Quick test_insert_into_healed_region;
  ]
