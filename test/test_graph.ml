(* Unit and property tests for the fg_graph substrate. *)

open Fg_graph

let rec ints a b = if a > b then [] else a :: ints (a + 1) b

(* ---- adjacency ---- *)

let test_adjacency_basics () =
  let g = Adjacency.create () in
  Alcotest.(check int) "empty nodes" 0 (Adjacency.num_nodes g);
  Adjacency.add_edge g 1 2;
  Adjacency.add_edge g 2 3;
  Alcotest.(check int) "nodes" 3 (Adjacency.num_nodes g);
  Alcotest.(check int) "edges" 2 (Adjacency.num_edges g);
  Alcotest.(check bool) "mem" true (Adjacency.mem_edge g 1 2);
  Alcotest.(check bool) "sym" true (Adjacency.mem_edge g 2 1);
  Alcotest.(check int) "deg 2" 2 (Adjacency.degree g 2);
  Adjacency.remove_edge g 1 2;
  Alcotest.(check bool) "removed" false (Adjacency.mem_edge g 1 2);
  Alcotest.(check int) "node kept" 3 (Adjacency.num_nodes g)

let test_adjacency_no_self_loop () =
  let g = Adjacency.create () in
  Adjacency.add_edge g 5 5;
  Alcotest.(check int) "no loop edge" 0 (Adjacency.num_edges g)

let test_adjacency_duplicate_edge () =
  let g = Adjacency.create () in
  Adjacency.add_edge g 1 2;
  Adjacency.add_edge g 2 1;
  Alcotest.(check int) "collapsed" 1 (Adjacency.num_edges g)

let test_adjacency_remove_node () =
  let g = Generators.star 5 in
  Adjacency.remove_node g 0;
  Alcotest.(check int) "nodes" 4 (Adjacency.num_nodes g);
  Alcotest.(check int) "edges" 0 (Adjacency.num_edges g);
  List.iter
    (fun v -> Alcotest.(check int) "deg" 0 (Adjacency.degree g v))
    (Adjacency.nodes g)

let test_adjacency_copy_independent () =
  let g = Generators.ring 5 in
  let h = Adjacency.copy g in
  Adjacency.remove_edge h 0 1;
  Alcotest.(check bool) "original intact" true (Adjacency.mem_edge g 0 1);
  Alcotest.(check bool) "copy changed" false (Adjacency.mem_edge h 0 1)

let test_adjacency_equal () =
  let g = Generators.ring 6 and h = Generators.ring 6 in
  Alcotest.(check bool) "equal" true (Adjacency.equal g h);
  Adjacency.add_edge h 0 3;
  Alcotest.(check bool) "not equal" false (Adjacency.equal g h)

let test_adjacency_subgraph () =
  let g = Generators.complete 6 in
  let h = Adjacency.subgraph g (fun v -> v < 3) in
  Alcotest.(check int) "nodes" 3 (Adjacency.num_nodes h);
  Alcotest.(check int) "edges" 3 (Adjacency.num_edges h)

let test_of_edges_roundtrip () =
  let pairs = [ (1, 2); (3, 4); (2, 3) ] in
  let g = Adjacency.of_edges pairs in
  Alcotest.(check int) "edges" 3 (Adjacency.num_edges g);
  Alcotest.(check (list (pair int int)))
    "sorted edges"
    [ (1, 2); (2, 3); (3, 4) ]
    (List.sort compare (Adjacency.edges g))

(* ---- bfs ---- *)

let test_bfs_distances_ring () =
  let g = Generators.ring 8 in
  let d = Bfs.distances g 0 in
  Alcotest.(check (option int)) "self" (Some 0) (Node_id.Tbl.find_opt d 0);
  Alcotest.(check (option int)) "one" (Some 1) (Node_id.Tbl.find_opt d 1);
  Alcotest.(check (option int)) "antipode" (Some 4) (Node_id.Tbl.find_opt d 4);
  Alcotest.(check (option int)) "wrap" (Some 1) (Node_id.Tbl.find_opt d 7)

let test_bfs_unreachable () =
  let g = Adjacency.create () in
  Adjacency.add_edge g 0 1;
  Adjacency.add_node g 9;
  Alcotest.(check (option int)) "none" None (Bfs.distance g 0 9);
  Alcotest.(check (option int)) "absent" None (Bfs.distance g 0 77)

let test_bfs_shortest_path () =
  let g = Generators.grid 3 3 in
  match Bfs.shortest_path g 0 8 with
  | None -> Alcotest.fail "path expected"
  | Some p ->
    Alcotest.(check int) "length" 5 (List.length p);
    Alcotest.(check int) "starts" 0 (List.hd p);
    Alcotest.(check int) "ends" 8 (List.nth p 4);
    (* consecutive hops are edges *)
    let rec ok = function
      | a :: (b :: _ as rest) -> Adjacency.mem_edge g a b && ok rest
      | _ -> true
    in
    Alcotest.(check bool) "valid walk" true (ok p)

let test_bfs_multi_source () =
  let g = Generators.path 10 in
  let d = Bfs.multi_source_distances g [ 0; 9 ] in
  Alcotest.(check (option int)) "middle" (Some 4) (Node_id.Tbl.find_opt d 4);
  Alcotest.(check (option int)) "near end" (Some 1) (Node_id.Tbl.find_opt d 8)

let test_bfs_eccentricity () =
  let g = Generators.path 7 in
  Alcotest.(check int) "end" 6 (Bfs.eccentricity g 0);
  Alcotest.(check int) "middle" 3 (Bfs.eccentricity g 3)

(* ---- union-find ---- *)

let test_union_find () =
  let uf = Union_find.create () in
  Alcotest.(check bool) "fresh union" true (Union_find.union uf 1 2);
  Alcotest.(check bool) "again" false (Union_find.union uf 2 1);
  Alcotest.(check bool) "same" true (Union_find.same uf 1 2);
  Alcotest.(check bool) "diff" false (Union_find.same uf 1 3);
  ignore (Union_find.union uf 3 4);
  ignore (Union_find.union uf 1 4);
  Alcotest.(check bool) "linked" true (Union_find.same uf 2 3);
  Alcotest.(check int) "one set" 1 (Union_find.count_sets uf)

(* ---- connectivity ---- *)

let test_components () =
  let g = Adjacency.create () in
  Adjacency.add_edge g 0 1;
  Adjacency.add_edge g 2 3;
  Adjacency.add_node g 4;
  Alcotest.(check int) "three comps" 3 (Connectivity.num_components g);
  Alcotest.(check bool) "not connected" false (Connectivity.is_connected g);
  Alcotest.(check int) "largest" 2 (Connectivity.largest_component_size g);
  Alcotest.(check (list int)) "component of 2" [ 2; 3 ]
    (List.sort compare (Connectivity.component_of g 2))

let test_articulation_path () =
  (* every interior node of a path is a cut vertex *)
  let g = Generators.path 5 in
  let cuts = Connectivity.articulation_points g in
  Alcotest.(check (list int)) "interior" [ 1; 2; 3 ] (Node_id.Set.elements cuts)

let test_articulation_ring () =
  let g = Generators.ring 6 in
  Alcotest.(check int) "none in a cycle" 0
    (Node_id.Set.cardinal (Connectivity.articulation_points g))

let test_articulation_star () =
  let g = Generators.star 6 in
  Alcotest.(check (list int)) "centre" [ 0 ]
    (Node_id.Set.elements (Connectivity.articulation_points g))

let test_articulation_barbell () =
  (* two triangles joined by a bridge 2-3 *)
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ] in
  let cuts = Connectivity.articulation_points g in
  Alcotest.(check (list int)) "bridge ends" [ 2; 3 ] (Node_id.Set.elements cuts);
  Alcotest.(check (list (pair int int))) "bridge" [ (2, 3) ] (Connectivity.bridges g)

let test_bridges_tree () =
  (* in a tree every edge is a bridge *)
  let g = Generators.binary_tree 7 in
  Alcotest.(check int) "all edges" 6 (List.length (Connectivity.bridges g))

(* brute-force cross-check of articulation points on random graphs *)
let brute_articulation g =
  let base = Connectivity.num_components g in
  List.filter
    (fun v ->
      let h = Adjacency.copy g in
      Adjacency.remove_node h v;
      Connectivity.num_components h > base - (if Adjacency.degree g v = 0 then 1 else 0))
    (List.sort compare (Adjacency.nodes g))

let prop_articulation_matches_bruteforce =
  QCheck2.Test.make ~name:"articulation = brute force" ~count:60
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 4 24))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi_raw rng n (2.5 /. float_of_int n) in
      let fast = Node_id.Set.elements (Connectivity.articulation_points g) in
      let slow = brute_articulation g in
      fast = slow)

(* ---- diameter ---- *)

let test_diameter_exact () =
  Alcotest.(check int) "path" 6 (Diameter.exact (Generators.path 7));
  Alcotest.(check int) "ring" 4 (Diameter.exact (Generators.ring 8));
  Alcotest.(check int) "star" 2 (Diameter.exact (Generators.star 5));
  Alcotest.(check int) "complete" 1 (Diameter.exact (Generators.complete 5));
  Alcotest.(check int) "grid 3x4" 5 (Diameter.exact (Generators.grid 3 4))

let test_diameter_two_sweep_tree_exact () =
  let rng = Rng.create 3 in
  List.iter
    (fun n ->
      let g = Generators.random_tree rng n in
      Alcotest.(check int)
        (Printf.sprintf "tree n=%d" n)
        (Diameter.exact g) (Diameter.two_sweep g))
    [ 5; 9; 17; 33 ]

let test_radius () =
  Alcotest.(check int) "path 7" 3 (Diameter.radius (Generators.path 7));
  Alcotest.(check int) "star" 1 (Diameter.radius (Generators.star 9))

let test_average_path_length () =
  (* path 0-1-2: pairs (0,1)=1 (1,2)=1 (0,2)=2 -> mean 4/3 *)
  let apl = Diameter.average_path_length (Generators.path 3) in
  Alcotest.(check (float 1e-9)) "path3" (4. /. 3.) apl

(* ---- generators ---- *)

let test_generator_shapes () =
  Alcotest.(check int) "ring edges" 8 (Adjacency.num_edges (Generators.ring 8));
  Alcotest.(check int) "path edges" 7 (Adjacency.num_edges (Generators.path 8));
  Alcotest.(check int) "star edges" 7 (Adjacency.num_edges (Generators.star 8));
  Alcotest.(check int) "complete edges" 28 (Adjacency.num_edges (Generators.complete 8));
  Alcotest.(check int) "grid 3x3 edges" 12 (Adjacency.num_edges (Generators.grid 3 3));
  Alcotest.(check int) "hypercube 3 edges" 12 (Adjacency.num_edges (Generators.hypercube 3));
  Alcotest.(check int) "btree edges" 7 (Adjacency.num_edges (Generators.binary_tree 8))

let test_generator_tree_connected_acyclic () =
  let rng = Rng.create 9 in
  let g = Generators.random_tree rng 50 in
  Alcotest.(check int) "n-1 edges" 49 (Adjacency.num_edges g);
  Alcotest.(check bool) "connected" true (Connectivity.is_connected g)

let test_generator_connectivity_patched () =
  let rng = Rng.create 5 in
  List.iter
    (fun name ->
      let g = Generators.by_name name (Rng.split rng) 60 in
      Alcotest.(check bool) (name ^ " connected") true (Connectivity.is_connected g))
    [ "er"; "ba"; "ws"; "regular"; "caveman"; "rtree" ]

let test_generator_ba_min_degree () =
  let rng = Rng.create 1 in
  let g = Generators.barabasi_albert rng 100 3 in
  Alcotest.(check bool) "every newcomer has >= 3 edges" true
    (List.for_all (fun v -> Adjacency.degree g v >= 3) (Adjacency.nodes g))

let test_generator_determinism () =
  let g1 = Generators.erdos_renyi (Rng.create 77) 40 0.1 in
  let g2 = Generators.erdos_renyi (Rng.create 77) 40 0.1 in
  Alcotest.(check bool) "same seed same graph" true (Adjacency.equal g1 g2)

let test_generator_by_name_unknown () =
  Alcotest.check_raises "unknown" Not_found (fun () ->
      ignore (Generators.by_name "nope" (Rng.create 1) 8))

(* ---- centrality ---- *)

let test_betweenness_path () =
  (* path 0-1-2-3-4: bc(2) = pairs crossing = (0,3)(0,4)(1,3)(1,4)(0,2..) ...
     exact: node 2 lies on shortest paths for pairs {0,1}x{3,4} and is
     interior for (0,2)? endpoints excluded. bc(2) = |{(0,3),(0,4),(1,3),(1,4)}| = 4 *)
  let g = Generators.path 5 in
  let bc = Centrality.betweenness g in
  Alcotest.(check (float 1e-9)) "end" 0. (Node_id.Tbl.find bc 0);
  Alcotest.(check (float 1e-9)) "bc(1)" 3. (Node_id.Tbl.find bc 1);
  Alcotest.(check (float 1e-9)) "bc(2)" 4. (Node_id.Tbl.find bc 2)

let test_betweenness_star () =
  let g = Generators.star 6 in
  let bc = Centrality.betweenness g in
  (* centre carries all C(5,2) = 10 satellite pairs *)
  Alcotest.(check (float 1e-9)) "centre" 10. (Node_id.Tbl.find bc 0);
  Alcotest.(check (float 1e-9)) "leaf" 0. (Node_id.Tbl.find bc 3)

let test_betweenness_split_paths () =
  (* a 4-cycle: two equal shortest paths between opposite corners, each
     middle node gets credit 1/2 per opposite pair *)
  let g = Generators.ring 4 in
  let bc = Centrality.betweenness g in
  List.iter
    (fun v ->
      Alcotest.(check (float 1e-9)) (Printf.sprintf "node %d" v) 0.5
        (Node_id.Tbl.find bc v))
    [ 0; 1; 2; 3 ]

let test_top_k () =
  let g = Generators.star 6 in
  let top = Centrality.top_k (Centrality.degree_centrality g) 2 ~compare:Int.compare in
  Alcotest.(check (list int)) "centre first" [ 0; 1 ] top

(* ---- clustering ---- *)

let test_clustering_triangle () =
  let g = Generators.complete 3 in
  Alcotest.(check int) "one triangle" 1 (Clustering.triangles g);
  Alcotest.(check (float 1e-9)) "local 1.0" 1.0 (Clustering.local_coefficient g 0);
  Alcotest.(check (float 1e-9)) "avg 1.0" 1.0 (Clustering.average_coefficient g);
  Alcotest.(check (float 1e-9)) "global 1.0" 1.0 (Clustering.global_coefficient g)

let test_clustering_complete () =
  (* K5: C(5,3) = 10 triangles, all coefficients 1 *)
  let g = Generators.complete 5 in
  Alcotest.(check int) "triangles" 10 (Clustering.triangles g);
  Alcotest.(check (float 1e-9)) "transitivity" 1.0 (Clustering.global_coefficient g)

let test_clustering_triangle_free () =
  List.iter
    (fun g -> Alcotest.(check int) "no triangles" 0 (Clustering.triangles g))
    [ Generators.ring 8; Generators.star 8; Generators.grid 3 3; Generators.binary_tree 7 ]

let test_clustering_caveman_high () =
  let g = Generators.caveman (Rng.create 2) 4 5 in
  Alcotest.(check bool) "cliquish" true (Clustering.average_coefficient g > 0.5)

let test_clustering_paw () =
  (* triangle 0-1-2 plus pendant 3 attached to 0 *)
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (0, 2); (0, 3) ] in
  Alcotest.(check int) "one triangle" 1 (Clustering.triangles g);
  (* node 0: deg 3, one edge among neighbours -> 2*1/(3*2) = 1/3 *)
  Alcotest.(check (float 1e-9)) "local of hub" (1. /. 3.) (Clustering.local_coefficient g 0);
  (* wedges: deg0=3->3, deg1=2->1, deg2=2->1, deg3=1->0: total 5 *)
  Alcotest.(check (float 1e-9)) "global 3/5" 0.6 (Clustering.global_coefficient g)

(* ---- io ---- *)

let test_edge_list_roundtrip () =
  let g = Generators.grid 3 3 in
  Adjacency.add_node g 100;
  let text = Graph_io.to_edge_list g in
  let g' = Graph_io.of_edge_list text in
  Alcotest.(check bool) "roundtrip" true (Adjacency.equal g g')

let test_edge_list_comments () =
  let g = Graph_io.of_edge_list "# comment\n1 2\n\nnode 5\n" in
  Alcotest.(check int) "nodes" 3 (Adjacency.num_nodes g);
  Alcotest.(check int) "edges" 1 (Adjacency.num_edges g)

let test_dot_output () =
  let g = Generators.path 3 in
  let dot = Graph_io.to_dot ~highlight:(Node_id.Set.singleton 1) g in
  Alcotest.(check bool) "graph kw" true (String.length dot > 0 && String.sub dot 0 5 = "graph");
  Alcotest.(check bool) "highlight" true
    (String.split_on_char '\n' dot
    |> List.exists (fun l -> l = "  1 [style=filled, fillcolor=red];"))

(* ---- rng ---- *)

let test_rng_determinism () =
  let a = Rng.create 5 and b = Rng.create 5 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let a = Rng.create 8 in
  let arr = Array.of_list (ints 1 30) in
  let sh = Rng.shuffle a arr in
  Alcotest.(check (list int)) "same multiset" (ints 1 30)
    (List.sort compare (Array.to_list sh));
  Alcotest.(check (list int)) "original untouched" (ints 1 30) (Array.to_list arr)

let test_rng_sample_distinct () =
  let a = Rng.create 8 in
  let s = Rng.sample a 10 (Array.of_list (ints 1 50)) in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = List.sort_uniq compare (Array.to_list s) in
  Alcotest.(check int) "distinct" 10 (List.length sorted)

let test_rng_bounds () =
  let a = Rng.create 3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Rng.int a 0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "pick empty" true
    (try
       ignore (Rng.pick a []);
       false
     with Invalid_argument _ -> true)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_articulation_matches_bruteforce ]

let suite =
  [
    Alcotest.test_case "adjacency: basics" `Quick test_adjacency_basics;
    Alcotest.test_case "adjacency: no self-loops" `Quick test_adjacency_no_self_loop;
    Alcotest.test_case "adjacency: duplicate edges collapse" `Quick
      test_adjacency_duplicate_edge;
    Alcotest.test_case "adjacency: remove node" `Quick test_adjacency_remove_node;
    Alcotest.test_case "adjacency: copy is independent" `Quick
      test_adjacency_copy_independent;
    Alcotest.test_case "adjacency: equal" `Quick test_adjacency_equal;
    Alcotest.test_case "adjacency: subgraph" `Quick test_adjacency_subgraph;
    Alcotest.test_case "adjacency: of_edges" `Quick test_of_edges_roundtrip;
    Alcotest.test_case "bfs: ring distances" `Quick test_bfs_distances_ring;
    Alcotest.test_case "bfs: unreachable" `Quick test_bfs_unreachable;
    Alcotest.test_case "bfs: shortest path on grid" `Quick test_bfs_shortest_path;
    Alcotest.test_case "bfs: multi-source" `Quick test_bfs_multi_source;
    Alcotest.test_case "bfs: eccentricity" `Quick test_bfs_eccentricity;
    Alcotest.test_case "union-find" `Quick test_union_find;
    Alcotest.test_case "connectivity: components" `Quick test_components;
    Alcotest.test_case "articulation: path" `Quick test_articulation_path;
    Alcotest.test_case "articulation: ring has none" `Quick test_articulation_ring;
    Alcotest.test_case "articulation: star centre" `Quick test_articulation_star;
    Alcotest.test_case "articulation: barbell bridge" `Quick test_articulation_barbell;
    Alcotest.test_case "bridges: tree edges" `Quick test_bridges_tree;
    Alcotest.test_case "diameter: exact on known shapes" `Quick test_diameter_exact;
    Alcotest.test_case "diameter: two-sweep exact on trees" `Quick
      test_diameter_two_sweep_tree_exact;
    Alcotest.test_case "radius" `Quick test_radius;
    Alcotest.test_case "average path length" `Quick test_average_path_length;
    Alcotest.test_case "generators: shapes" `Quick test_generator_shapes;
    Alcotest.test_case "generators: random tree" `Quick
      test_generator_tree_connected_acyclic;
    Alcotest.test_case "generators: connectivity patch" `Quick
      test_generator_connectivity_patched;
    Alcotest.test_case "generators: BA min degree" `Quick test_generator_ba_min_degree;
    Alcotest.test_case "generators: determinism" `Quick test_generator_determinism;
    Alcotest.test_case "generators: unknown name" `Quick test_generator_by_name_unknown;
    Alcotest.test_case "betweenness: path" `Quick test_betweenness_path;
    Alcotest.test_case "betweenness: star" `Quick test_betweenness_star;
    Alcotest.test_case "betweenness: split shortest paths" `Quick
      test_betweenness_split_paths;
    Alcotest.test_case "centrality: top_k" `Quick test_top_k;
    Alcotest.test_case "clustering: triangle" `Quick test_clustering_triangle;
    Alcotest.test_case "clustering: K5" `Quick test_clustering_complete;
    Alcotest.test_case "clustering: triangle-free families" `Quick
      test_clustering_triangle_free;
    Alcotest.test_case "clustering: caveman is cliquish" `Quick
      test_clustering_caveman_high;
    Alcotest.test_case "clustering: paw graph" `Quick test_clustering_paw;
    Alcotest.test_case "io: edge-list roundtrip" `Quick test_edge_list_roundtrip;
    Alcotest.test_case "io: comments and isolated nodes" `Quick test_edge_list_comments;
    Alcotest.test_case "io: dot output" `Quick test_dot_output;
    Alcotest.test_case "rng: determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng: split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng: shuffle is a permutation" `Quick
      test_rng_shuffle_permutation;
    Alcotest.test_case "rng: sample distinct" `Quick test_rng_sample_distinct;
    Alcotest.test_case "rng: bounds" `Quick test_rng_bounds;
  ]
  @ props
