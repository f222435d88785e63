(* Tests for the CSR snapshot kernel and the multicore metric pipeline:
   - CSR BFS distances = Bfs.distances (hashtable oracle) on random
     ER/BA/star graphs, including post-heal graphs with RT edges;
   - Stretch.exact (CSR kernel) = Stretch_oracle.exact_tbl (pre-CSR oracle);
   - reports/violations byte-identical across domain counts 1/2/4;
   - Parallel.map determinism and clamping. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph
module Stretch = Fg_metrics.Stretch

(* ---- helpers ---- *)

let sorted_bindings tbl =
  List.sort compare (Node_id.Tbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let check_distances_match g =
  let csr = Csr.of_adjacency g in
  Adjacency.iter_nodes
    (fun v ->
      let expected = sorted_bindings (Bfs.distances g v) in
      let actual = sorted_bindings (Csr.distances csr v) in
      if expected <> actual then
        Alcotest.failf "BFS mismatch from %d (%d vs %d reachable)" v
          (List.length expected) (List.length actual))
    g

let healed_pair seed n =
  let rng = Rng.create seed in
  let g0 = Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let fg = Fg.of_graph g0 in
  let victims = ref 0 in
  while !victims < n / 3 && List.length (Fg.live_nodes fg) > 2 do
    Fg.delete fg (Rng.pick rng (Fg.live_nodes fg));
    incr victims
  done;
  fg

(* ---- CSR structure ---- *)

let test_csr_shape () =
  let g = Generators.star 6 in
  let csr = Csr.of_adjacency g in
  Alcotest.(check int) "nodes" 6 (Csr.num_nodes csr);
  Alcotest.(check int) "edges" 5 (Csr.num_edges csr);
  (* dense order = sorted id order *)
  Alcotest.(check int) "id 0" 0 (Csr.id csr 0);
  Alcotest.(check (option int)) "index of id 5" (Some 5) (Csr.index csr 5);
  Alcotest.(check (option int)) "absent id" None (Csr.index csr 42);
  Alcotest.(check int) "centre degree" 5 (Csr.degree csr 0);
  let row = ref [] in
  Csr.iter_row (fun i -> row := i :: !row) csr 0;
  Alcotest.(check (list int)) "row ascending" [ 1; 2; 3; 4; 5 ] (List.rev !row)

let test_csr_empty_and_isolated () =
  let g = Adjacency.create () in
  let csr = Csr.of_adjacency g in
  Alcotest.(check int) "empty nodes" 0 (Csr.num_nodes csr);
  Adjacency.add_node g 7;
  Adjacency.add_node g 3;
  let csr = Csr.of_adjacency g in
  Alcotest.(check int) "two isolated" 2 (Csr.num_nodes csr);
  let s = Csr.scratch csr in
  let dist = Csr.bfs csr s 0 in
  Alcotest.(check int) "self distance" 0 dist.(0);
  Alcotest.(check int) "other unreachable" (-1) dist.(1);
  Alcotest.(check int) "visited just source" 1 (Csr.visited_count s);
  Alcotest.(check int) "eccentricity 0" 0 (Csr.max_dist s)

let test_components () =
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (5, 6) ] in
  Adjacency.add_node g 9;
  let csr = Csr.of_adjacency g in
  let comp, count = Csr.components csr in
  Alcotest.(check int) "three components" 3 count;
  let c v = comp.(Option.get (Csr.index csr v)) in
  Alcotest.(check bool) "0~2" true (c 0 = c 2);
  Alcotest.(check bool) "5~6" true (c 5 = c 6);
  Alcotest.(check bool) "0!~5" true (c 0 <> c 5);
  Alcotest.(check bool) "9 alone" true (c 9 <> c 0 && c 9 <> c 5)

let test_scratch_reuse () =
  (* scratch reset only undoes the previous run: alternate sources on a
     disconnected graph and verify no stale distances leak *)
  let g = Adjacency.of_edges [ (0, 1); (2, 3); (3, 4) ] in
  let csr = Csr.of_adjacency g in
  let s = Csr.scratch csr in
  let i v = Option.get (Csr.index csr v) in
  let d1 = Csr.bfs csr s (i 0) in
  Alcotest.(check int) "0->1" 1 d1.(i 1);
  Alcotest.(check int) "0-/->4" (-1) d1.(i 4);
  let d2 = Csr.bfs csr s (i 2) in
  Alcotest.(check int) "2->4" 2 d2.(i 4);
  Alcotest.(check int) "2-/->1 (no stale 0-run state)" (-1) d2.(i 1);
  let d3 = Csr.bfs csr s (i 0) in
  Alcotest.(check int) "0->1 again" 1 d3.(i 1);
  Alcotest.(check int) "0-/->3" (-1) d3.(i 3)

(* ---- BFS kernel vs hashtable oracle ---- *)

let prop_bfs_matches_er =
  QCheck2.Test.make ~name:"CSR BFS = Bfs.distances on ER" ~count:40
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      check_distances_match g;
      true)

let prop_bfs_matches_ba =
  QCheck2.Test.make ~name:"CSR BFS = Bfs.distances on BA" ~count:25
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 4 36))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.barabasi_albert rng n 2 in
      check_distances_match g;
      true)

let test_bfs_matches_star () =
  check_distances_match (Generators.star 17)

let prop_bfs_matches_healed =
  QCheck2.Test.make ~name:"CSR BFS = Bfs.distances on post-heal graphs" ~count:15
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 10 28))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      check_distances_match (Fg.graph fg);
      check_distances_match (Fg.gprime fg);
      true)

(* ---- Bfs_kernel: direction-optimizing BFS vs Csr.bfs ---- *)

(* Forced modes pin both directions against the plain top-down oracle:
   [~alpha:0] never leaves top-down, [~alpha:max_int ~beta:max_int] goes
   bottom-up at the first level and stays there. *)
let check_dirop_distances g =
  let csr = Csr.of_adjacency g in
  let n = Csr.num_nodes csr in
  let s = Csr.scratch csr in
  let ks = Bfs_kernel.create csr in
  for src = 0 to n - 1 do
    let expected = Array.copy (Csr.bfs csr s src) in
    let reachable = Array.fold_left (fun a d -> if d >= 0 then a + 1 else a) 0 expected in
    let check name actual =
      if actual <> expected then
        Alcotest.failf "dirop(%s) mismatch from dense %d" name src
    in
    check "auto" (Bfs_kernel.bfs csr ks src);
    Alcotest.(check int) "visited_count" reachable (Bfs_kernel.visited_count ks);
    check "top-down" (Bfs_kernel.bfs csr ks ~alpha:0 src);
    check "bottom-up" (Bfs_kernel.bfs csr ks ~alpha:max_int ~beta:max_int src)
  done

let prop_dirop_matches_er =
  QCheck2.Test.make ~name:"dirop BFS = Csr.bfs on ER" ~count:30
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      check_dirop_distances (Generators.erdos_renyi rng n (3.0 /. float_of_int n));
      true)

let prop_dirop_matches_ba =
  QCheck2.Test.make ~name:"dirop BFS = Csr.bfs on BA" ~count:20
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 4 36))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      check_dirop_distances (Generators.barabasi_albert rng n 2);
      true)

let prop_dirop_matches_healed =
  QCheck2.Test.make ~name:"dirop BFS = Csr.bfs on post-heal graphs" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 10 28))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      check_dirop_distances (Fg.graph fg);
      check_dirop_distances (Fg.gprime fg);
      true)

let test_dirop_star_and_disconnected () =
  check_dirop_distances (Generators.star 17);
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (5, 6) ] in
  Adjacency.add_node g 9;
  check_dirop_distances g

(* ---- Bfs_kernel: batched multi-source BFS vs Csr.bfs ---- *)

let check_msbfs ?(off = 0) g =
  let csr = Csr.of_adjacency g in
  let n = Csr.num_nodes csr in
  if n > 0 then begin
    let s = Csr.scratch csr in
    let ms = Bfs_kernel.ms_create () in
    let k = min n Bfs_kernel.word_bits in
    (* spread sources; [off] junk entries up front exercise the window *)
    let sources =
      Array.init (off + k) (fun i -> if i < off then -1 else (i - off) * n / k)
    in
    Bfs_kernel.ms_run csr ms ~sources ~off ~len:k;
    for slot = 0 to k - 1 do
      let expected = Csr.bfs csr s sources.(off + slot) in
      for v = 0 to n - 1 do
        let got = Bfs_kernel.ms_dist ms ~slot ~v in
        if got <> expected.(v) then
          Alcotest.failf "msbfs mismatch slot %d node %d: %d vs %d" slot v got
            expected.(v);
        let bit = Bfs_kernel.ms_reached ms ~v land (1 lsl slot) <> 0 in
        if bit <> (expected.(v) >= 0) then
          Alcotest.failf "msbfs reached-bit mismatch slot %d node %d" slot v
      done
    done
  end

let prop_msbfs_matches_er =
  QCheck2.Test.make ~name:"msbfs = Csr.bfs on ER" ~count:25
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 2 90))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      check_msbfs (Generators.erdos_renyi rng n (3.0 /. float_of_int n));
      true)

let prop_msbfs_matches_healed =
  QCheck2.Test.make ~name:"msbfs = Csr.bfs on post-heal graphs" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 10 28))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      check_msbfs (Fg.graph fg);
      check_msbfs ~off:2 (Fg.gprime fg);
      true)

let prop_msbfs_matches_fragmented =
  QCheck2.Test.make ~name:"msbfs = Csr.bfs on fragmented graphs" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 6 60))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      let victims = Rng.sample rng (n / 3) (Array.of_list (Adjacency.nodes g)) in
      Array.iter (fun v -> Adjacency.remove_node g v) victims;
      if Adjacency.num_nodes g > 0 then check_msbfs g;
      true)

let test_msbfs_duplicates_and_star () =
  check_msbfs (Generators.star 17);
  (* duplicate sources share a wave; each slot still reads correctly *)
  let csr = Csr.of_adjacency (Generators.ring 8) in
  let ms = Bfs_kernel.ms_create () in
  let sources = [| 3; 3; 0; 3 |] in
  Bfs_kernel.ms_run csr ms ~sources ~off:0 ~len:4;
  let s = Csr.scratch csr in
  List.iter
    (fun slot ->
      let expected = Csr.bfs csr s sources.(slot) in
      for v = 0 to 7 do
        Alcotest.(check int)
          (Printf.sprintf "slot %d node %d" slot v)
          expected.(v)
          (Bfs_kernel.ms_dist ms ~slot ~v)
      done)
    [ 0; 1; 2; 3 ]

(* ---- Parallel ---- *)

let test_parallel_map_deterministic () =
  let f _scratch i = (i * i) + 1 in
  let serial = Parallel.map ~domains:1 ~init:(fun () -> ()) ~f 100 in
  let par = Parallel.map ~domains:2 ~init:(fun () -> ()) ~f 100 in
  Alcotest.(check bool) "same array" true (serial = par);
  Alcotest.(check int) "indexed" 26 serial.(5)

let test_parallel_clamps () =
  Alcotest.(check bool) "default starts serial" true (Parallel.default () = 1);
  Alcotest.(check bool) "resolve None = default" true (Parallel.resolve None = 1);
  Alcotest.(check bool) "huge request clamped" true (Parallel.resolve (Some 10_000) <= 128);
  Alcotest.(check int) "zero floors to 1" 1 (Parallel.resolve (Some 0));
  Alcotest.(check int) "empty input" 0 (Array.length (Parallel.map ~domains:4 ~init:(fun () -> ()) ~f:(fun _ i -> i) 0))

let test_parallel_propagates_exception () =
  let raised =
    try
      ignore
        (Parallel.map ~domains:2
           ~init:(fun () -> ())
           ~f:(fun _ i -> if i = 17 then failwith "boom" else i)
           64);
      false
    with Failure _ -> true
  in
  Alcotest.(check bool) "exception surfaces" true raised

(* ---- Stretch: CSR kernel vs oracle, domain independence ---- *)

let reports_equal_modulo_mean r1 r2 =
  r1.Stretch.max_stretch = r2.Stretch.max_stretch
  && r1.Stretch.witness = r2.Stretch.witness
  && r1.Stretch.pairs = r2.Stretch.pairs
  && r1.Stretch.disconnected = r2.Stretch.disconnected
  && Float.abs (r1.Stretch.mean_stretch -. r2.Stretch.mean_stretch) < 1e-9

let prop_stretch_matches_oracle =
  QCheck2.Test.make ~name:"Stretch.exact = exact_tbl oracle (healed)" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 8 26))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      let graph = Fg.graph fg and reference = Fg.gprime fg in
      let nodes = Fg.live_nodes fg in
      let fast = Stretch.exact ~graph ~reference nodes in
      let oracle = Stretch_oracle.exact_tbl ~graph ~reference nodes in
      reports_equal_modulo_mean fast oracle)

let prop_stretch_matches_oracle_fragmented =
  (* no healer: deletions fragment the graph, exercising both the
     disconnected-pair accounting and the no-BFS component fallback *)
  QCheck2.Test.make ~name:"Stretch.exact = exact_tbl oracle (fragmented)" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 6 24))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let reference = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      let graph = Adjacency.copy reference in
      let victims = Rng.sample rng (n / 3) (Array.of_list (Adjacency.nodes graph)) in
      Array.iter (fun v -> Adjacency.remove_node graph v) victims;
      (* measured nodes: survivors only, as the harness does *)
      let nodes = Adjacency.nodes graph in
      let fast = Stretch.exact ~graph ~reference nodes in
      let oracle = Stretch_oracle.exact_tbl ~graph ~reference nodes in
      reports_equal_modulo_mean fast oracle)

let test_stretch_isolated_source_skip () =
  (* source 0 is isolated in graph but connected in reference: its pairs
     must all count as disconnected, via the component-label path *)
  let reference = Generators.ring 6 in
  let graph = Adjacency.copy reference in
  Adjacency.remove_edge graph 0 1;
  Adjacency.remove_edge graph 5 0;
  let r = Stretch.exact ~graph ~reference (Adjacency.nodes reference) in
  let oracle = Stretch_oracle.exact_tbl ~graph ~reference (Adjacency.nodes reference) in
  Alcotest.(check int) "disconnected = oracle" oracle.Stretch.disconnected
    r.Stretch.disconnected;
  Alcotest.(check int) "5 broken pairs" 5 r.Stretch.disconnected;
  Alcotest.(check int) "pairs = oracle" oracle.Stretch.pairs r.Stretch.pairs

let prop_stretch_batched_equals_sweep =
  (* the batched ms-BFS path must reproduce the per-source sweep kernel
     byte-for-byte, float fields included: same partial stream, same
     merge *)
  QCheck2.Test.make ~name:"Stretch.exact = exact_sweep (byte-identical)" ~count:12
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 8 40))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      let graph = Fg.graph fg and reference = Fg.gprime fg in
      let nodes = Fg.live_nodes fg in
      let batched = Stretch.exact ~graph ~reference nodes in
      let sweep = Stretch.exact_sweep ~graph ~reference nodes in
      batched = sweep)

let prop_stretch_domain_independent =
  QCheck2.Test.make ~name:"Stretch.exact byte-identical for domains 1/2/4" ~count:10
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 8 26))
    (fun (seed, n) ->
      let fg = healed_pair seed n in
      let graph = Fg.graph fg and reference = Fg.gprime fg in
      let nodes = Fg.live_nodes fg in
      let r1 = Stretch.exact ~domains:1 ~graph ~reference nodes in
      let r2 = Stretch.exact ~domains:2 ~graph ~reference nodes in
      let r4 = Stretch.exact ~domains:4 ~graph ~reference nodes in
      r1 = r2 && r2 = r4)

let test_sampled_measure_domain_independent () =
  let fg = healed_pair 77 24 in
  let graph = Fg.graph fg and reference = Fg.gprime fg in
  let nodes = Fg.live_nodes fg in
  let s1 = Stretch.sampled ~domains:1 (Rng.create 5) ~k:8 ~graph ~reference nodes in
  let s2 = Stretch.sampled ~domains:2 (Rng.create 5) ~k:8 ~graph ~reference nodes in
  Alcotest.(check bool) "sampled identical" true (s1 = s2);
  let m1 = Stretch.measure ~domains:1 ~graph ~reference ~sources:nodes nodes in
  let m2 = Stretch.measure ~domains:2 ~graph ~reference ~sources:nodes nodes in
  Alcotest.(check bool) "measure identical" true (m1 = m2)

let test_invariant_stretch_domain_independent () =
  let fg = healed_pair 3 24 in
  let v1 = Fg_core.Invariants.check_stretch_bound ~domains:1 fg in
  let v2 = Fg_core.Invariants.check_stretch_bound ~domains:2 fg in
  Alcotest.(check (list string)) "same violations" v1 v2;
  Alcotest.(check (list string)) "bound holds" [] v1

(* ---- apply_delta determinism ---- *)

(* The delta-apply path is deterministic: applying the identical delta
   twice from the same base yields two structurally equal snapshots, both
   equal to a from-scratch rebuild. PR 8 leans on this — the snapshot
   store may publish, discard, and re-derive a generation (e.g. after an
   aborted heal) and readers must never be able to tell which copy they
   pinned. *)
let test_apply_delta_twice_synthetic () =
  let g = Adjacency.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0); (2, 4); (4, 5) ] in
  let base = Csr.of_adjacency g in
  Adjacency.remove_node g 4;
  Adjacency.add_edge g 3 5;
  let touched = [ 2; 3; 5 ] and removed = [ 4 ] in
  let a = Csr.apply_delta base ~touched ~removed g in
  let b = Csr.apply_delta base ~touched ~removed g in
  let rebuilt = Csr.of_adjacency g in
  Alcotest.(check bool) "first apply = rebuild" true (Csr.equal a rebuilt);
  Alcotest.(check bool) "second apply = rebuild" true (Csr.equal b rebuilt);
  Alcotest.(check bool) "applies agree with each other" true (Csr.equal a b);
  (* the base snapshot was not mutated by either apply *)
  Alcotest.(check int) "base node count intact" 6 (Csr.num_nodes base);
  Alcotest.(check int) "base edge count intact" 6 (Csr.num_edges base)

let prop_apply_delta_twice_engine =
  QCheck2.Test.make ~name:"Csr.apply_delta twice from same base = rebuild" ~count:25
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 8 40))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g0 = Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
      let fg = Fg.of_graph g0 in
      let base = Csr.of_adjacency (Fg.graph fg) in
      let victims = [ Rng.pick rng (Fg.live_nodes fg) ] in
      let d, _healed = Fg.apply fg (Deleted { victims }) in
      let touched = Fg_core.Delta.touched d and removed = Fg_core.Delta.removed d in
      let g = Fg.graph fg in
      let a = Csr.apply_delta base ~touched ~removed g in
      let b = Csr.apply_delta base ~touched ~removed g in
      let rebuilt = Csr.of_adjacency g in
      Csr.equal a rebuilt && Csr.equal b rebuilt && Csr.equal a b)

(* ---- Diameter / centrality over CSR ---- *)

let test_diameter_domain_independent () =
  let rng = Rng.create 11 in
  let g = Generators.erdos_renyi rng 40 0.08 in
  Alcotest.(check int) "exact" (Diameter.exact ~domains:1 g) (Diameter.exact ~domains:2 g);
  Alcotest.(check int) "radius" (Diameter.radius ~domains:1 g) (Diameter.radius ~domains:2 g);
  Alcotest.(check (float 0.)) "apl byte-identical"
    (Diameter.average_path_length ~domains:1 g)
    (Diameter.average_path_length ~domains:2 g)

let prop_diameter_matches_oracle =
  QCheck2.Test.make ~name:"Diameter.exact = max eccentricity oracle" ~count:25
    QCheck2.Gen.(tup2 (int_range 0 9999) (int_range 2 30))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let g = Generators.erdos_renyi rng n (3.0 /. float_of_int n) in
      let oracle = Adjacency.fold_nodes (fun v acc -> max acc (Bfs.eccentricity g v)) g 0 in
      Diameter.exact g = oracle)

let suite =
  [
    Alcotest.test_case "csr: shape + dense order" `Quick test_csr_shape;
    Alcotest.test_case "csr: empty and isolated nodes" `Quick test_csr_empty_and_isolated;
    Alcotest.test_case "csr: components" `Quick test_components;
    Alcotest.test_case "csr: scratch reuse across sources" `Quick test_scratch_reuse;
    Alcotest.test_case "csr: BFS matches oracle on star" `Quick test_bfs_matches_star;
    Alcotest.test_case "dirop: star + disconnected" `Quick test_dirop_star_and_disconnected;
    Alcotest.test_case "msbfs: duplicates + star" `Quick test_msbfs_duplicates_and_star;
    Alcotest.test_case "parallel: map deterministic" `Quick test_parallel_map_deterministic;
    Alcotest.test_case "parallel: clamps + empty" `Quick test_parallel_clamps;
    Alcotest.test_case "parallel: exceptions surface" `Quick
      test_parallel_propagates_exception;
    Alcotest.test_case "stretch: isolated source via components" `Quick
      test_stretch_isolated_source_skip;
    Alcotest.test_case "stretch: sampled/measure domain-independent" `Quick
      test_sampled_measure_domain_independent;
    Alcotest.test_case "invariants: stretch bound domain-independent" `Quick
      test_invariant_stretch_domain_independent;
    Alcotest.test_case "diameter: domain-independent" `Quick
      test_diameter_domain_independent;
    Alcotest.test_case "csr: apply_delta twice = rebuild (synthetic)" `Quick
      test_apply_delta_twice_synthetic;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_bfs_matches_er;
        prop_bfs_matches_ba;
        prop_bfs_matches_healed;
        prop_dirop_matches_er;
        prop_dirop_matches_ba;
        prop_dirop_matches_healed;
        prop_msbfs_matches_er;
        prop_msbfs_matches_healed;
        prop_msbfs_matches_fragmented;
        prop_stretch_matches_oracle;
        prop_stretch_matches_oracle_fragmented;
        prop_stretch_batched_equals_sweep;
        prop_stretch_domain_independent;
        prop_diameter_matches_oracle;
        prop_apply_delta_twice_engine;
      ]
