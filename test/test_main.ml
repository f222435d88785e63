let () =
  Alcotest.run "forgiving_graph"
    [
      ("graph", Test_graph.suite);
      ("adjacency-prop", Test_adjacency_prop.suite);
      ("haft", Test_haft.suite);
      ("forgiving", Test_forgiving.suite);
      ("sim", Test_sim.suite);
      ("table1", Test_table1.suite);
      ("dist", Test_dist.suite);
      ("baselines", Test_baselines.suite);
      ("will-tree", Test_will_tree.suite);
      ("adversary", Test_adversary.suite);
      ("metrics", Test_metrics.suite);
      ("csr", Test_csr.suite);
      ("interval-map", Test_interval_map.suite);
      ("obs", Test_obs.suite);
      ("hdr", Test_hdr.suite);
      ("openmetrics", Test_openmetrics.suite);
      ("top", Test_top.suite);
      ("rt", Test_rt.suite);
      ("invariant-detection", Test_invariant_detection.suite);
      ("routing", Test_routing.suite);
      ("delta", Test_delta.suite);
      ("batch", Test_batch.suite);
      ("harness", Test_harness.suite);
      ("parallel", Test_parallel.suite);
      ("serve", Test_serve.suite);
      ("lint", Test_lint.suite);
      ("race", Test_race.suite);
      ("alloc", Test_alloc.suite);
      ("soak", Test_soak.suite);
    ]
