open Fg_haft

type summary = {
  fig3_strip_sizes : int list;
  fig5_total_leaves : int;
  fig5_is_complete : bool;
  fig2_rt_depth : int;
  fig2_invariants_ok : bool;
  fig7_anchors : int;
  fig7_levels : int list;
  fig7_invariants_ok : bool;
}

let rec ints a b = if a > b then [] else a :: ints (a + 1) b

(* render a haft as an indented ASCII tree *)
let ascii_tree pp_leaf t =
  let buf = Buffer.create 256 in
  let rec go prefix ~root is_last t =
    let connector = if root then "" else if is_last then "`-- " else "|-- " in
    match t with
    | Haft.Leaf x -> Buffer.add_string buf (prefix ^ connector ^ pp_leaf x ^ "\n")
    | Haft.Node { left; right; leaves; _ } ->
      Buffer.add_string buf (Printf.sprintf "%s%s(+) [%d leaves]\n" prefix connector leaves);
      let child_prefix =
        if root then "" else prefix ^ if is_last then "    " else "|   "
      in
      go child_prefix ~root:false false left;
      go child_prefix ~root:false true right
  in
  go "" ~root:true true t;
  Buffer.contents buf

let run ?(verbose = true) () =
  (* Fig. 3(a) *)
  let h7 = Haft.of_list (ints 1 7) in
  let strip_sizes = List.map Haft.leaf_count (Haft.strip h7) in
  (* Fig. 5 *)
  let h5 = Haft.of_list (ints 1 5) in
  let h2 = Haft.of_list [ 6; 7 ] in
  let h1 = Haft.of_list [ 8 ] in
  let merged = Haft.merge [ h5; h2; h1 ] in
  (* Fig. 2: deleted node replaced by its reconstruction tree *)
  let star = Fg_graph.Generators.star 9 in
  let fg = Fg_core.Forgiving_graph.of_graph star in
  Fg_core.Forgiving_graph.delete fg 0;
  let rt_depth =
    match Fg_core.Rt.rt_roots (Fg_core.Forgiving_graph.ctx fg) with
    | [ root ] -> root.Fg_core.Rt.height
    | _ -> -1
  in
  let inv_ok = Fg_core.Invariants.check fg = [] in
  (* Figs. 4/7/8: delete a node that is a leaf of the existing RT, so the
     RT breaks into fragments which re-merge with fresh leaves via BT_v *)
  let fg78 = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.complete 9) in
  Fg_core.Forgiving_graph.delete fg78 0;
  let fig7_trace =
    List.hd (snd (Fg_core.Forgiving_graph.apply fg78 (Deleted { victims = [ 1 ] })))
  in
  let fig7_levels =
    List.map List.length fig7_trace.Fg_core.Rt.ht_levels
  in
  let fig7_ok = Fg_core.Invariants.check fg78 = [] in
  if verbose then begin
    print_newline ();
    print_endline "E2 - Figures 2, 3(a) and 5 regenerated";
    print_endline "======================================";
    print_endline "Fig 3(a): haft(7) - strip removes the square nodes, leaving 4+2+1:";
    print_string (ascii_tree string_of_int h7);
    Printf.printf "strip sizes: [%s]\n"
      (String.concat "; " (List.map string_of_int strip_sizes));
    print_endline "";
    print_endline "Fig 5: merge 0101 + 0010 + 0001 = 1000:";
    print_string (ascii_tree string_of_int merged);
    Printf.printf "merged: %d leaves, complete=%b, height=%d\n"
      (Haft.leaf_count merged) (Haft.is_complete merged) (Haft.height merged);
    print_endline "";
    print_endline "Fig 2: K_{1,8} centre deleted; satellites now joined by RT:";
    Printf.printf "RT depth %d (= ceil(log2 8)), invariants ok: %b\n" rt_depth inv_ok;
    print_string
      (Fg_graph.Graph_io.to_edge_list (Fg_core.Forgiving_graph.graph fg));
    print_endline "";
    print_endline
      "Figs 4/7/8: K9, delete 0 (makes an RT), then delete 1 (an RT leaf):";
    Printf.printf
      "the RT fragments; BT_v has %d anchors (fragments + fresh leaves),\n\
       merges per level (bottom-up): [%s], invariants ok: %b\n"
      fig7_trace.Fg_core.Rt.ht_anchors
      (String.concat "; " (List.map string_of_int fig7_levels))
      fig7_ok
  end;
  {
    fig3_strip_sizes = strip_sizes;
    fig5_total_leaves = Haft.leaf_count merged;
    fig5_is_complete = Haft.is_complete merged;
    fig2_rt_depth = rt_depth;
    fig2_invariants_ok = inv_ok;
    fig7_anchors = fig7_trace.Fg_core.Rt.ht_anchors;
    fig7_levels;
    fig7_invariants_ok = fig7_ok;
  }
