(* Larger-scale soak tests (marked Slow): thousands of nodes, long attack
   histories, invariants checked at the end and sampled along the way. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph

let test_soak_ba_2048 () =
  let rng = Rng.create 2048 in
  let g = Generators.barabasi_albert rng 2048 3 in
  let fg = Fg.of_graph g in
  (* delete half the network, highest current degree first *)
  for step = 1 to 1024 do
    let live = Fg.live_nodes fg in
    let gcur = Fg.graph fg in
    let best =
      List.fold_left
        (fun acc v ->
          match acc with
          | None -> Some v
          | Some b -> if Adjacency.degree gcur v > Adjacency.degree gcur b then Some v else acc)
        None live
    in
    Option.iter (Fg.delete fg) best;
    (* cheap invariants frequently, full ones occasionally *)
    if step mod 256 = 0 then begin
      match Fg_core.Invariants.check fg with
      | [] -> ()
      | e :: _ -> Alcotest.failf "step %d: %s" step e
    end
  done;
  Alcotest.(check int) "1024 survivors" 1024 (Fg.num_live fg);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected (Fg.graph fg));
  (* sampled stretch against the bound *)
  let stretch =
    Fg_metrics.Stretch.sampled (Rng.create 1) ~k:24 ~graph:(Fg.graph fg)
      ~reference:(Fg.gprime fg) (Fg.live_nodes fg)
  in
  Alcotest.(check bool) "stretch within bound" true
    (stretch.Fg_metrics.Stretch.max_stretch <= float_of_int (Fg.stretch_bound fg));
  Alcotest.(check int) "no disconnections" 0 stretch.Fg_metrics.Stretch.disconnected

let test_soak_insert_delete_interleave () =
  let rng = Rng.create 77 in
  let fg = Fg.of_graph (Generators.erdos_renyi rng 256 (4.0 /. 256.)) in
  let next = ref 256 in
  for _ = 1 to 1500 do
    let live = Fg.live_nodes fg in
    if Rng.float rng 1.0 < 0.5 && List.length live > 8 then
      Fg.delete fg (Rng.pick rng live)
    else begin
      let k = 1 + Rng.int rng 4 in
      Fg.insert fg !next (Array.to_list (Rng.sample rng k (Array.of_list live)));
      incr next
    end
  done;
  (match Fg_core.Invariants.check fg with
  | [] -> ()
  | e :: _ -> Alcotest.fail e);
  (* Table-1 completeness still holds at scale *)
  Alcotest.(check (list string)) "table1" [] (Test_table1.violations fg)

let test_soak_sim_costs_bounded () =
  (* every repair in a 512-node ER half-kill stays within Lemma 4 *)
  let rng = Rng.create 3 in
  let n = 512 in
  let eng = Fg_sim.Engine.create (Generators.erdos_renyi rng n (6.0 /. float_of_int n)) in
  let lg = log (float_of_int n) /. log 2. in
  for _ = 1 to n / 2 do
    let live = Fg.live_nodes (Fg_sim.Engine.fg eng) in
    if List.length live > 2 then begin
      let c = Fg_sim.Engine.delete eng (Rng.pick rng live) in
      let d = float_of_int (max 2 c.Fg_sim.Engine.deleted_degree) in
      if float_of_int c.Fg_sim.Engine.messages > 40. *. d *. lg +. 40. then
        Alcotest.failf "deletion of %d (d'=%d): %d messages exceeds 40 d log n"
          c.Fg_sim.Engine.deleted c.Fg_sim.Engine.deleted_degree
          c.Fg_sim.Engine.messages
    end
  done

let test_soak_dist_er_256 () =
  (* the full distributed protocol through a 100-deletion ER sequence,
     verified against the centralized engine every 10 steps *)
  let rng = Rng.create 44 in
  let eng = Fg_sim.Dist_engine.create (Generators.erdos_renyi rng 256 (5.0 /. 256.)) in
  for step = 1 to 100 do
    let live = Fg.live_nodes (Fg_sim.Dist_engine.reference eng) in
    if List.length live > 3 then begin
      ignore (Fg_sim.Dist_engine.delete eng (Rng.pick rng live));
      if step mod 10 = 0 then
        match Fg_sim.Dist_engine.verify eng with
        | [] -> ()
        | e :: _ -> Alcotest.failf "step %d: %s" step e
    end
  done

let test_route_after_batch () =
  (* routing stitches across batch-healed regions too: grouped victims
     merge into one RT, so maximal dead runs stay within a single tree *)
  let rng = Rng.create 5 in
  let g = Generators.erdos_renyi rng 36 0.12 in
  let fg = Fg.of_graph g in
  Fg.delete_batch fg [ 1; 2; 3 ];
  Fg.delete_batch fg [ 10; 11 ];
  Fg.delete fg 20;
  (match Fg_core.Invariants.check fg with [] -> () | e :: _ -> Alcotest.fail e);
  let live = List.sort compare (Fg.live_nodes fg) in
  let img = Fg.graph fg in
  let check x y =
    if x < y then
      match Fg_core.Routing.route fg x y with
      | None -> ()
      | Some walk ->
        let rec valid = function
          | a :: (b :: _ as rest) -> Adjacency.mem_edge img a b && valid rest
          | _ -> true
        in
        Alcotest.(check bool) (Printf.sprintf "walk %d->%d" x y) true (valid walk)
  in
  List.iter (fun x -> List.iter (check x) live) live

let prop_route_valid_after_random_attack =
  QCheck2.Test.make ~name:"routes are valid walks within the bound" ~count:20
    QCheck2.Gen.(tup2 (int_range 0 99999) (int_range 10 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.5 /. float_of_int n) in
      let fg = Fg.of_graph g in
      for _ = 1 to n / 3 do
        let live = Fg.live_nodes fg in
        if List.length live > 3 then Fg.delete fg (Rng.pick rng live)
      done;
      let live = List.sort compare (Fg.live_nodes fg) in
      let img = Fg.graph fg in
      let ok = ref true in
      let check x y =
        if x < y then
          match Fg_core.Routing.route fg x y with
          | None -> ()
          | Some walk ->
            let rec valid = function
              | a :: (b :: _ as rest) -> Adjacency.mem_edge img a b && valid rest
              | _ -> true
            in
            let d' =
              Option.value (Bfs.distance (Fg.gprime fg) x y) ~default:max_int
            in
            if
              (not (valid walk))
              || List.hd walk <> x
              || List.nth walk (List.length walk - 1) <> y
              || List.length walk - 1 > max 1 (Fg_core.Routing.length_bound fg d')
            then ok := false
      in
      List.iter (fun x -> List.iter (check x) live) live;
      !ok)

let prop_table1_complete =
  QCheck2.Test.make ~name:"table 1 reconstructs the forest" ~count:20
    QCheck2.Gen.(tup2 (int_range 0 99999) (int_range 8 32))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      let fg = Fg.of_graph g in
      for _ = 1 to n / 2 do
        let live = Fg.live_nodes fg in
        if List.length live > 3 then Fg.delete fg (Rng.pick rng live)
      done;
      Test_table1.violations fg = [])

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_route_valid_after_random_attack; prop_table1_complete ]

let suite =
  [
    Alcotest.test_case "soak: BA 2048, 50% hub kill" `Slow test_soak_ba_2048;
    Alcotest.test_case "soak: 1500-step churn" `Slow test_soak_insert_delete_interleave;
    Alcotest.test_case "soak: sim costs bounded (ER 512)" `Slow
      test_soak_sim_costs_bounded;
    Alcotest.test_case "soak: distributed protocol (ER 256)" `Slow
      test_soak_dist_er_256;
    Alcotest.test_case "routing after batch heals" `Quick test_route_after_batch;
  ]
  @ props
