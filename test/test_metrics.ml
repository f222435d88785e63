(* Tests for the metrics library: stretch, degree increase, summaries. *)

open Fg_graph
open Fg_metrics
module Summary = Fg_stats.Summary

let test_stretch_identity () =
  let g = Generators.ring 8 in
  let r = Stretch.exact ~graph:g ~reference:g (Adjacency.nodes g) in
  Alcotest.(check (float 1e-9)) "max 1" 1.0 r.Stretch.max_stretch;
  Alcotest.(check (float 1e-9)) "mean 1" 1.0 r.Stretch.mean_stretch;
  Alcotest.(check int) "pairs C(8,2)" 28 r.Stretch.pairs;
  Alcotest.(check int) "none disconnected" 0 r.Stretch.disconnected

let test_stretch_known_value () =
  (* reference: square 0-1-2-3-0; graph: same minus edge 0-3.
     dist_g(0,3) = 3 vs dist_ref = 1 -> stretch 3 *)
  let reference = Generators.ring 4 in
  let graph = Adjacency.copy reference in
  Adjacency.remove_edge graph 3 0;
  let r = Stretch.exact ~graph ~reference [ 0; 1; 2; 3 ] in
  Alcotest.(check (float 1e-9)) "max 3" 3.0 r.Stretch.max_stretch;
  Alcotest.(check (option (pair int int))) "witness" (Some (0, 3)) r.Stretch.witness

let test_stretch_below_one_possible () =
  (* healing can create shortcuts: graph has chord 0-2, reference not *)
  let reference = Generators.path 5 in
  let graph = Adjacency.copy reference in
  Adjacency.add_edge graph 0 4;
  let r = Stretch.exact ~graph ~reference [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "mean < 1" true (r.Stretch.mean_stretch < 1.0)

let test_stretch_disconnected_counted () =
  let reference = Generators.path 4 in
  let graph = Adjacency.copy reference in
  Adjacency.remove_edge graph 1 2;
  let r = Stretch.exact ~graph ~reference [ 0; 1; 2; 3 ] in
  (* pairs (0,2) (0,3) (1,2) (1,3) broken *)
  Alcotest.(check int) "four broken" 4 r.Stretch.disconnected

let test_stretch_sampled_subset () =
  let rng = Rng.create 3 in
  let g = Generators.erdos_renyi rng 60 0.1 in
  let full = Stretch.exact ~graph:g ~reference:g (Adjacency.nodes g) in
  let sampled = Stretch.sampled (Rng.create 1) ~k:10 ~graph:g ~reference:g
      (Adjacency.nodes g) in
  Alcotest.(check bool) "sampled <= exact pairs" true
    (sampled.Stretch.pairs <= full.Stretch.pairs);
  Alcotest.(check (float 1e-9)) "identity still 1" 1.0 sampled.Stretch.max_stretch

let test_degree_report () =
  let gprime = Generators.star 6 in
  let graph = Adjacency.copy gprime in
  (* satellite 1 gains three extra edges: ratio 4 with d'=1 *)
  Adjacency.add_edge graph 1 2;
  Adjacency.add_edge graph 1 3;
  Adjacency.add_edge graph 1 4;
  let r = Degree_metric.measure ~graph ~gprime ~nodes:(Adjacency.nodes gprime) in
  Alcotest.(check (float 1e-9)) "max ratio" 4.0 r.Degree_metric.max_ratio;
  Alcotest.(check (option int)) "witness" (Some 1) r.Degree_metric.witness;
  Alcotest.(check int) "max abs" 3 r.Degree_metric.max_absolute_increase;
  Alcotest.(check int) "over 3x" 1 r.Degree_metric.over_3x;
  Alcotest.(check int) "over 4x" 0 r.Degree_metric.over_4x

let test_degree_skips_zero_gprime () =
  let gprime = Adjacency.create () in
  Adjacency.add_node gprime 1;
  let graph = Adjacency.copy gprime in
  let r = Degree_metric.measure ~graph ~gprime ~nodes:[ 1 ] in
  Alcotest.(check (float 1e-9)) "no ratio" 0.0 r.Degree_metric.max_ratio

let test_summary_stats () =
  let s = Summary.of_floats [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check int) "n" 5 s.Summary.n;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Summary.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Summary.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Summary.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Summary.p50;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.0) s.Summary.stddev

let test_summary_quantile () =
  (* odd count: the median rank is unambiguous *)
  let xs = List.init 99 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Summary.quantile 0.5 xs);
  Alcotest.(check (float 1e-9)) "p95" 94.0 (Summary.quantile 0.95 xs);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Summary.quantile 0.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 99.0 (Summary.quantile 1.0 xs)

let test_summary_rejects_empty () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Summary.of_floats []);
       false
     with Invalid_argument _ -> true)

let test_summary_of_ints () =
  let s = Summary.of_ints [ 2; 4; 6 ] in
  Alcotest.(check (float 1e-9)) "mean" 4.0 s.Summary.mean

let test_summary_opt_variants () =
  Alcotest.(check bool) "of_floats_opt []" true (Summary.of_floats_opt [] = None);
  Alcotest.(check bool) "of_ints_opt []" true (Summary.of_ints_opt [] = None);
  (match Summary.of_floats_opt [ 1.; 3. ] with
  | None -> Alcotest.fail "of_floats_opt non-empty gave None"
  | Some s -> Alcotest.(check (float 1e-9)) "mean" 2.0 s.Summary.mean);
  match Summary.of_ints_opt [ 5 ] with
  | None -> Alcotest.fail "of_ints_opt non-empty gave None"
  | Some s -> Alcotest.(check (float 1e-9)) "max" 5.0 s.Summary.max

let suite =
  [
    Alcotest.test_case "stretch: identity graph" `Quick test_stretch_identity;
    Alcotest.test_case "stretch: known value + witness" `Quick test_stretch_known_value;
    Alcotest.test_case "stretch: shortcuts give < 1" `Quick test_stretch_below_one_possible;
    Alcotest.test_case "stretch: disconnected pairs counted" `Quick
      test_stretch_disconnected_counted;
    Alcotest.test_case "stretch: sampled" `Quick test_stretch_sampled_subset;
    Alcotest.test_case "degree: report fields" `Quick test_degree_report;
    Alcotest.test_case "degree: zero-G'-degree skipped" `Quick
      test_degree_skips_zero_gprime;
    Alcotest.test_case "summary: stats" `Quick test_summary_stats;
    Alcotest.test_case "summary: quantiles" `Quick test_summary_quantile;
    Alcotest.test_case "summary: rejects empty" `Quick test_summary_rejects_empty;
    Alcotest.test_case "summary: of_ints" `Quick test_summary_of_ints;
    Alcotest.test_case "summary: _opt variants" `Quick test_summary_opt_variants;
  ]
