(* Batch (simultaneous) deletions: the extension beyond the one-per-round
   adversary. All invariants must hold after a single combined repair. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph

let check_ok label fg =
  match Fg_core.Invariants.check fg with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %s" label (List.hd errs)

let test_batch_pair_adjacent () =
  let fg = Fg.of_graph (Generators.path 5) in
  Fg.delete_batch fg [ 1; 2 ];
  check_ok "adjacent pair" fg;
  let g = Fg.graph fg in
  Alcotest.(check int) "three survivors" 3 (Adjacency.num_nodes g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g)

let test_batch_whole_clique_core () =
  (* kill a complete subgraph at once *)
  let fg = Fg.of_graph (Generators.complete 10) in
  Fg.delete_batch fg [ 0; 1; 2; 3; 4 ];
  check_ok "clique core" fg;
  Alcotest.(check bool) "connected" true (Connectivity.is_connected (Fg.graph fg))

let test_batch_star_core () =
  (* centre + some satellites at once *)
  let fg = Fg.of_graph (Generators.star 12) in
  Fg.delete_batch fg [ 0; 3; 7 ];
  check_ok "star core" fg;
  let g = Fg.graph fg in
  Alcotest.(check int) "nine left" 9 (Adjacency.num_nodes g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g)

let test_batch_disconnecting_is_honest () =
  (* killing all of a path's interior leaves two components in G' too *)
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (2, 3) ] in
  let fg = Fg.of_graph g in
  Fg.delete_batch fg [ 1; 2 ];
  check_ok "interior kill" fg;
  (* 0 and 3 stay connected through the RT (G' connects them via 1,2) *)
  Alcotest.(check bool) "healed across" true
    (Connectivity.is_connected (Fg.graph fg))

let test_batch_equals_sequence_invariants () =
  let rng = Rng.create 55 in
  let g = Generators.erdos_renyi rng 40 0.12 in
  let fg_batch = Fg.of_graph (Adjacency.copy g) in
  let fg_seq = Fg.of_graph (Adjacency.copy g) in
  let victims = [ 3; 9; 14; 15; 27 ] in
  Fg.delete_batch fg_batch victims;
  List.iter (Fg.delete fg_seq) victims;
  check_ok "batch" fg_batch;
  check_ok "sequential" fg_seq;
  (* same survivors, same G'; topologies may differ but both stay bounded *)
  Alcotest.(check bool) "same gprime" true
    (Adjacency.equal (Fg.gprime fg_batch) (Fg.gprime fg_seq));
  Alcotest.(check (list int)) "same survivors"
    (List.sort compare (Fg.live_nodes fg_batch))
    (List.sort compare (Fg.live_nodes fg_seq))

let test_batch_cheaper_than_sequence () =
  (* one repair over the union beats k repairs (in anchors and helpers) *)
  let g = Generators.complete 16 in
  let fg_batch = Fg.of_graph (Adjacency.copy g) in
  let _, traces = Fg.apply fg_batch (Deleted { victims = [ 0; 1; 2; 3 ] }) in
  let helpers_of (tr : Fg_core.Rt.heal_trace) =
    List.fold_left
      (fun acc evs ->
        List.fold_left (fun a (e : Fg_core.Rt.merge_event) -> a + e.Fg_core.Rt.me_created) acc evs)
      0 tr.Fg_core.Rt.ht_levels
  in
  let batch_created = List.fold_left (fun a t -> a + helpers_of t) 0 traces in
  let fg_seq = Fg.of_graph (Adjacency.copy g) in
  let seq_created =
    List.fold_left
      (fun acc v ->
        let _, traces = Fg.apply fg_seq (Deleted { victims = [ v ] }) in
        List.fold_left (fun a t -> a + helpers_of t) acc traces)
      0 [ 0; 1; 2; 3 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "batch %d <= sequential %d" batch_created seq_created)
    true (batch_created <= seq_created)

let test_batch_rejects_dead () =
  let fg = Fg.of_graph (Generators.ring 6) in
  Fg.delete fg 2;
  Alcotest.(check bool) "raises" true
    (try
       Fg.delete_batch fg [ 1; 2 ];
       false
     with Invalid_argument _ -> true)

let test_batch_duplicates_collapse () =
  let fg = Fg.of_graph (Generators.ring 6) in
  Fg.delete_batch fg [ 2; 2; 2 ];
  check_ok "dup" fg;
  Alcotest.(check int) "one deleted" 5 (Fg.num_live fg)

let test_batch_after_history () =
  (* batches interleaved with singles and inserts *)
  let rng = Rng.create 8 in
  let fg = Fg.of_graph (Generators.erdos_renyi rng 48 0.1) in
  Fg.delete fg 0;
  Fg.delete_batch fg [ 5; 6; 7 ];
  Fg.insert fg 100 [ 10; 20 ];
  Fg.delete_batch fg [ 10; 30; 31; 32 ];
  check_ok "mixed history" fg;
  Alcotest.(check (list string)) "table1 complete" [] (Test_table1.violations fg)

let prop_batch_invariants =
  QCheck2.Test.make ~name:"random batches keep all invariants" ~count:30
    QCheck2.Gen.(tup3 (int_range 0 9999) (int_range 10 32) (int_range 2 6))
    (fun (seed, n, k) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      let fg = Fg.of_graph g in
      let ok = ref true in
      for _ = 1 to 3 do
        let live = Fg.live_nodes fg in
        if List.length live > k + 2 then begin
          let batch = Array.to_list (Rng.sample rng k (Array.of_list live)) in
          Fg.delete_batch fg batch;
          if Fg_core.Invariants.check fg <> [] then ok := false
        end
      done;
      !ok)

(* Independence oracle: when every victim of a batch is its own repair
   group, the batch heal must leave exactly the graph that deleting the
   victims one at a time, ascending, leaves on a twin engine. Batches that
   do group are applied to the twin as the same batch, keeping the twins
   in step for the next round. *)
let prop_independent_batch_equals_sequence =
  QCheck2.Test.make ~name:"independent batch = ascending one-by-one deletion" ~count:60
    QCheck2.Gen.(tup4 (int_range 0 99999) bool (int_range 16 48) (int_range 2 5))
    (fun (seed, er, n, k) ->
      let rng = Rng.create seed in
      let g =
        if er then Generators.erdos_renyi rng n (4.0 /. float_of_int n)
        else Generators.barabasi_albert rng n 2
      in
      let fg = Fg.of_graph (Adjacency.copy g) and twin = Fg.of_graph (Adjacency.copy g) in
      let live () = Array.of_list (List.sort Node_id.compare (Fg.live_nodes fg)) in
      (* pre-churn, identical on both engines *)
      for i = 1 to n / 4 do
        if i mod 3 = 0 then begin
          let nbrs = Array.to_list (Rng.sample rng 2 (live ())) in
          List.iter (fun e -> Fg.insert e (1000 + i) nbrs) [ fg; twin ]
        end
        else begin
          let v = Rng.pick_array rng (live ()) in
          List.iter (fun e -> Fg.delete e v) [ fg; twin ]
        end
      done;
      let ok = ref true in
      for _ = 1 to 3 do
        let live = live () in
        if Array.length live > k + 2 then begin
          let victims = Array.to_list (Rng.sample rng k live) in
          let d, traces = Fg.apply fg (Fg_core.Delta.Deleted { victims }) in
          if d.groups <> List.length traces then ok := false;
          if d.groups = k then List.iter (Fg.delete twin) (List.sort Node_id.compare victims)
          else Fg.delete_batch twin victims;
          if not (Adjacency.equal (Fg.graph fg) (Fg.graph twin)) then ok := false
        end
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_batch_invariants; prop_independent_batch_equals_sequence ]

let suite =
  [
    Alcotest.test_case "batch: adjacent pair" `Quick test_batch_pair_adjacent;
    Alcotest.test_case "batch: clique core" `Quick test_batch_whole_clique_core;
    Alcotest.test_case "batch: star core" `Quick test_batch_star_core;
    Alcotest.test_case "batch: heals across interior kill" `Quick
      test_batch_disconnecting_is_honest;
    Alcotest.test_case "batch: same bounds as sequence" `Quick
      test_batch_equals_sequence_invariants;
    Alcotest.test_case "batch: cheaper than sequence" `Quick
      test_batch_cheaper_than_sequence;
    Alcotest.test_case "batch: rejects dead victims" `Quick test_batch_rejects_dead;
    Alcotest.test_case "batch: duplicates collapse" `Quick test_batch_duplicates_collapse;
    Alcotest.test_case "batch: mixed history + table1" `Quick test_batch_after_history;
  ]
  @ props
