(* Bechamel micro/meso benchmarks: one group per experiment of DESIGN.md §5.

   E1/E2  haft construction, strip, merge
   E3/E4  healing under attack (per-deletion latency, metric computation)
   E5     distributed repair replay
   E6     star-centre heal by size
   E7/E10 healer comparison on identical attacks
   E9     cascade simulation

   Prints one table: name, time per run, minor words per run. *)

open Bechamel
open Toolkit

let rec ints a b = if a > b then [] else a :: ints (a + 1) b

(* ---- E1/E2: hafts ---- *)

let haft_tests =
  let of_list =
    Test.make_indexed ~name:"haft.of_list" ~args:[ 64; 1024; 4096 ] (fun n ->
        let xs = ints 1 n in
        Staged.stage (fun () -> ignore (Fg_haft.Haft.of_list xs)))
  in
  let strip =
    Test.make_indexed ~name:"haft.strip" ~args:[ 63; 1023; 4095 ] (fun n ->
        let t = Fg_haft.Haft.of_list (ints 1 n) in
        Staged.stage (fun () -> ignore (Fg_haft.Haft.strip t)))
  in
  let merge =
    Test.make_indexed ~name:"haft.merge" ~args:[ 8; 64; 512 ] (fun k ->
        let ts = List.map (fun i -> Fg_haft.Haft.of_list (ints 1 (i + 3))) (ints 1 k) in
        Staged.stage (fun () -> ignore (Fg_haft.Haft.merge ts)))
  in
  [ of_list; strip; merge ]

(* ---- E6 + E3: healing ---- *)

let heal_star =
  Test.make_indexed ~name:"heal.star-centre" ~args:[ 64; 256; 1024 ] (fun n ->
      Staged.stage (fun () ->
          let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.star n) in
          Fg_core.Forgiving_graph.delete fg 0))

let heal_er_sequence =
  Test.make_indexed ~name:"heal.er-50pct" ~args:[ 64; 256 ] (fun n ->
      Staged.stage (fun () ->
          let rng = Fg_graph.Rng.create 42 in
          let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
          let fg = Fg_core.Forgiving_graph.of_graph g in
          for v = 0 to (n / 2) - 1 do
            Fg_core.Forgiving_graph.delete fg v
          done))

(* ---- E5: distributed replay ---- *)

let sim_star =
  Test.make_indexed ~name:"sim.star-repair" ~args:[ 64; 256; 1024 ] (fun n ->
      Staged.stage (fun () ->
          let eng = Fg_sim.Engine.create (Fg_graph.Generators.star n) in
          ignore (Fg_sim.Engine.delete eng 0)))

(* E7: the Will-based Forgiving Tree baseline *)
let will_tree_star =
  Test.make_indexed ~name:"ft.star-root" ~args:[ 64; 256 ] (fun n ->
      Staged.stage (fun () ->
          let t = Fg_baselines.Will_tree.create (Fg_graph.Generators.star n) in
          Fg_baselines.Will_tree.delete t 0))

(* E14: the fully distributed protocol *)
let dist_star =
  Test.make_indexed ~name:"dist.star-repair" ~args:[ 64; 256 ] (fun n ->
      Staged.stage (fun () ->
          let eng = Fg_sim.Dist_engine.create (Fg_graph.Generators.star n) in
          ignore (Fg_sim.Dist_engine.delete eng 0)))

(* ---- CSR snapshot kernel (PR 2) ---- *)

(* Shared fixture for the read-path benchmarks: a healed ER graph, the
   shape the metric pipeline actually snapshots. *)
let healed_fixture n =
  let rng = Fg_graph.Rng.create 7 in
  let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let fg = Fg_core.Forgiving_graph.of_graph g in
  for v = 0 to (n / 4) - 1 do
    Fg_core.Forgiving_graph.delete fg v
  done;
  fg

let csr_build =
  Test.make_indexed ~name:"csr.build" ~args:[ 64; 256; 1024 ] (fun n ->
      let fg = healed_fixture n in
      let graph = Fg_core.Forgiving_graph.graph fg in
      Staged.stage (fun () -> ignore (Fg_graph.Csr.of_adjacency graph)))

let bfs_csr_vs_tbl =
  Test.make_grouped ~name:"bfs.csr-vs-tbl"
    [
      Test.make_indexed ~name:"tbl" ~args:[ 64; 256; 1024 ] (fun n ->
          let fg = healed_fixture n in
          let graph = Fg_core.Forgiving_graph.graph fg in
          let src = List.hd (Fg_core.Forgiving_graph.live_nodes fg) in
          Staged.stage (fun () -> ignore (Fg_graph.Bfs.distances graph src)));
      Test.make_indexed ~name:"csr" ~args:[ 64; 256; 1024 ] (fun n ->
          let fg = healed_fixture n in
          let graph = Fg_core.Forgiving_graph.graph fg in
          let csr = Fg_graph.Csr.of_adjacency graph in
          let scratch = Fg_graph.Csr.scratch csr in
          let src = List.hd (Fg_core.Forgiving_graph.live_nodes fg) in
          let src = Option.get (Fg_graph.Csr.index csr src) in
          Staged.stage (fun () -> ignore (Fg_graph.Csr.bfs csr scratch src)));
    ]

(* One more deletion on a churned BA graph, captured as a delta: the
   incremental snapshot refresh vs a from-scratch rebuild (PR 3 — the
   [Forgiving_graph.csr] cache takes the apply-delta path). *)
let delta_fixture n =
  let rng = Fg_graph.Rng.create 7 in
  let g = Fg_graph.Generators.barabasi_albert rng n 3 in
  let fg = Fg_core.Forgiving_graph.of_graph g in
  for v = 0 to (n / 4) - 1 do
    Fg_core.Forgiving_graph.delete fg v
  done;
  let before = Fg_graph.Csr.of_adjacency (Fg_core.Forgiving_graph.graph fg) in
  let d, _ = Fg_core.Forgiving_graph.apply fg (Deleted { victims = [ n / 4 ] }) in
  let after = Fg_core.Forgiving_graph.graph fg in
  (before, Fg_core.Delta.touched d, Fg_core.Delta.removed d, after)

let csr_apply_delta =
  Test.make_grouped ~name:"csr.apply-delta-vs-rebuild"
    [
      Test.make_indexed ~name:"rebuild" ~args:[ 256; 1024 ] (fun n ->
          let _, _, _, after = delta_fixture n in
          Staged.stage (fun () -> ignore (Fg_graph.Csr.of_adjacency after)));
      Test.make_indexed ~name:"apply-delta" ~args:[ 256; 1024 ] (fun n ->
          let before, touched, removed, after = delta_fixture n in
          Staged.stage (fun () ->
              ignore (Fg_graph.Csr.apply_delta before ~touched ~removed after)));
    ]

let stretch_parallel =
  Test.make_indexed ~name:"stretch.parallel" ~args:[ 1; 2; 4 ] (fun domains ->
      let fg = healed_fixture 256 in
      let graph = Fg_core.Forgiving_graph.graph fg in
      let gp = Fg_core.Forgiving_graph.gprime fg in
      let nodes = Fg_core.Forgiving_graph.live_nodes fg in
      (* The first multi-domain run spawns the persistent pool; every later
         iteration reuses it, so the fitted slope measures pool reuse. The
         suite runs each top-level group through its own [Benchmark.all]
         and calls [Parallel.shutdown] in between, so the pool spawned here
         never parks behind another group's allocation-heavy runs (parked
         workers tax every stop-the-world minor GC by 20-40%). *)
      Staged.stage (fun () ->
          ignore (Fg_metrics.Stretch.exact ~domains ~graph ~reference:gp nodes)))

(* ---- PR 7: read-path kernels ---- *)

(* Direction-optimizing BFS vs the plain top-down kernel, single source.
   Two fixtures: a healed ER graph (bounded degree — the conservative
   alpha = 2 default keeps the kernel at TD speed or slightly better)
   and a BA graph (heavy tail — the dense middle levels are where
   bottom-up wins outright). *)
let bfs_direction_opt =
  let staged_er n =
    let fg = healed_fixture n in
    let csr = Fg_graph.Csr.of_adjacency (Fg_core.Forgiving_graph.graph fg) in
    let src = List.hd (Fg_core.Forgiving_graph.live_nodes fg) in
    (csr, Option.get (Fg_graph.Csr.index csr src))
  in
  let staged_ba n =
    let rng = Fg_graph.Rng.create 7 in
    let csr =
      Fg_graph.Csr.of_adjacency (Fg_graph.Generators.barabasi_albert rng n 3)
    in
    (csr, 0)
  in
  let top_down name staged args =
    Test.make_indexed ~name ~args (fun n ->
        let csr, src = staged n in
        let s = Fg_graph.Csr.scratch csr in
        Staged.stage (fun () -> ignore (Fg_graph.Csr.bfs csr s src)))
  and dirop name staged args =
    Test.make_indexed ~name ~args (fun n ->
        let csr, src = staged n in
        let s = Fg_graph.Bfs_kernel.create csr in
        Staged.stage (fun () -> ignore (Fg_graph.Bfs_kernel.bfs csr s src)))
  in
  Test.make_grouped ~name:"bfs.direction-opt"
    [
      top_down "top-down" staged_er [ 1024; 16384 ];
      dirop "dirop" staged_er [ 1024; 16384 ];
      top_down "top-down-ba" staged_ba [ 16384 ];
      dirop "dirop-ba" staged_ba [ 16384 ];
    ]

(* One 63-source batched sweep vs 63 repeated single-source runs: the
   amortization the stretch pipeline now rides on. Sources are spread
   across the dense index range. *)
let bfs_msbfs =
  let staged_srcs n =
    let fg = healed_fixture n in
    let csr = Fg_graph.Csr.of_adjacency (Fg_core.Forgiving_graph.graph fg) in
    let k = Fg_graph.Bfs_kernel.word_bits in
    let srcs =
      Array.init k (fun i -> i * Fg_graph.Csr.num_nodes csr / k)
    in
    (csr, srcs)
  in
  Test.make_grouped ~name:"bfs.msbfs-vs-repeated"
    [
      Test.make_indexed ~name:"repeated" ~args:[ 4096 ] (fun n ->
          let csr, srcs = staged_srcs n in
          let s = Fg_graph.Csr.scratch csr in
          Staged.stage (fun () ->
              Array.iter (fun src -> ignore (Fg_graph.Csr.bfs csr s src)) srcs));
      Test.make_indexed ~name:"msbfs" ~args:[ 4096 ] (fun n ->
          let csr, srcs = staged_srcs n in
          let ms = Fg_graph.Bfs_kernel.ms_create () in
          Staged.stage (fun () ->
              Fg_graph.Bfs_kernel.ms_run csr ms ~sources:srcs ~off:0
                ~len:(Array.length srcs)));
    ]

(* Snapshot construction at read-path scale: the off-heap rows make this
   a straight bandwidth test (no GC component to the slope). *)
let csr_bigarray_build =
  Test.make_indexed ~name:"csr.bigarray-build" ~args:[ 4096; 32768 ] (fun n ->
      let fg = healed_fixture n in
      let graph = Fg_core.Forgiving_graph.graph fg in
      Staged.stage (fun () -> ignore (Fg_graph.Csr.of_adjacency graph)))

(* ---- E4: metrics ---- *)

let stretch_exact =
  Test.make_indexed ~name:"metrics.stretch-exact" ~args:[ 64; 128 ] (fun n ->
      let rng = Fg_graph.Rng.create 7 in
      let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
      let fg = Fg_core.Forgiving_graph.of_graph g in
      for v = 0 to (n / 4) - 1 do
        Fg_core.Forgiving_graph.delete fg v
      done;
      let graph = Fg_core.Forgiving_graph.graph fg in
      let gp = Fg_core.Forgiving_graph.gprime fg in
      let nodes = Fg_core.Forgiving_graph.live_nodes fg in
      Staged.stage (fun () ->
          ignore (Fg_metrics.Stretch.exact ~graph ~reference:gp nodes)))

(* ---- E7/E10: healer comparison ---- *)

let healer_compare =
  Test.make_grouped ~name:"healer.er128-40pct"
    (List.map
       (fun name ->
         Test.make ~name
           (Staged.stage (fun () ->
                let rng = Fg_graph.Rng.create 42 in
                let g = Fg_graph.Generators.erdos_renyi rng 128 (4.0 /. 128.0) in
                let h = Fg_baselines.Registry.by_name name g in
                ignore
                  (Fg_adversary.Churn.delete_fraction rng h ~fraction:0.4
                     ~del:Fg_adversary.Adversary.Max_degree))))
       [ "fg"; "ft"; "cycle"; "clique"; "none" ])

(* ---- PR 6: telemetry overhead ---- *)

(* The same heal loop with telemetry off vs on (recording flag set, so
   every Profile stamp takes its clock reads and Hdr records, and the
   counter/sample sites allocate). The [off] case is the one the
   regression gate watches: it must stay within noise of the plain
   [heal.er-50pct] numbers, i.e. the disabled path costs branches only.
   The [on] case resets the registry each run so sample lists can't grow
   across iterations and distort the slope. *)
let obs_overhead =
  let heal_loop n () =
    let rng = Fg_graph.Rng.create 42 in
    let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
    let fg = Fg_core.Forgiving_graph.of_graph g in
    for v = 0 to (n / 2) - 1 do
      Fg_core.Forgiving_graph.delete fg v
    done
  in
  Test.make_grouped ~name:"obs.overhead"
    [
      Test.make_indexed ~name:"heal-off" ~args:[ 256 ] (fun n ->
          Staged.stage (heal_loop n));
      Test.make_indexed ~name:"heal-on" ~args:[ 256 ] (fun n ->
          Staged.stage (fun () ->
              Fg_obs.Metrics.set_recording true;
              Fun.protect
                ~finally:(fun () ->
                  Fg_obs.Metrics.set_recording false;
                  Fg_obs.Metrics.reset Fg_obs.Metrics.global)
                (heal_loop n)));
    ]

(* ---- E9: cascade ---- *)

let cascade =
  Test.make ~name:"cascade.ba100-fg"
    (Staged.stage (fun () ->
         let rng = Fg_graph.Rng.create 7 in
         let g = Fg_graph.Generators.barabasi_albert rng 100 2 in
         let attack = Fg_baselines.Cascade.top_degree_attack g 3 in
         ignore
           (Fg_baselines.Cascade.run
              { Fg_baselines.Cascade.tolerance = 0.5; max_waves = 20 }
              ~heal:Fg_baselines.Cascade.Forgiving g ~attack)))

(* Top-level groups, each run through its own [Benchmark.all] with an
   explicit [Parallel.shutdown] in between: a group that spawns the domain
   pool (stretch.parallel, or any metric bench once [--domains] defaults
   change) cannot tax the stop-the-world minor GCs of the groups after it,
   so group order no longer matters. *)
let groups =
  [
    haft_tests;
    [ heal_star; heal_er_sequence ];
    [ sim_star; dist_star; will_tree_star ];
    [ stretch_exact ];
    [ csr_build; csr_bigarray_build; csr_apply_delta ];
    [ bfs_csr_vs_tbl; bfs_direction_opt; bfs_msbfs ];
    [ healer_compare ];
    [ obs_overhead ];
    [ cascade ];
    [ stretch_parallel ];
  ]

let benchmark ~quota () =
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Hashtbl.create 128 in
  List.iter
    (fun tests ->
      let group_raw =
        Benchmark.all cfg instances (Test.make_grouped ~name:"forgiving-graph" tests)
      in
      Hashtbl.iter (Hashtbl.replace raw) group_raw;
      Fg_graph.Parallel.shutdown ())
    groups;
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.map (fun instance -> Analyze.all ols instance raw) instances

(* ---- one-shot scale measurement (--stretch-scale N) ----

   Exact stretch on an N-node healed ER graph, batched ms-BFS kernel vs
   the retained per-source sweep kernel, at equal domain count. Too big
   for bechamel quotas — each side runs once, wall-clocked, and the two
   rows join the JSON run so the speedup is part of the recorded history. *)
let stretch_scale ~n ~domains =
  Printf.printf "\nstretch-scale: n=%d, domains=%d (one shot per kernel)\n%!" n domains;
  let rng = Fg_graph.Rng.create 11 in
  let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let fg = Fg_core.Forgiving_graph.of_graph g in
  for v = 0 to (n / 8) - 1 do
    Fg_core.Forgiving_graph.delete fg v
  done;
  let graph = Fg_core.Forgiving_graph.graph fg in
  let gp = Fg_core.Forgiving_graph.gprime fg in
  let nodes = Fg_core.Forgiving_graph.live_nodes fg in
  let graph_csr = Fg_graph.Csr.of_adjacency graph in
  let reference_csr = Fg_graph.Csr.of_adjacency gp in
  let time name f =
    let w0 = Gc.minor_words () in
    let t0 = Fg_obs.Trace.wall_clock () in
    let r = f () in
    let ns = (Fg_obs.Trace.wall_clock () -. t0) *. 1e9 in
    let words = Gc.minor_words () -. w0 in
    Printf.printf "%-42s  %14.1f  %14.1f\n%!" name ns words;
    (r, (name, ns, words))
  in
  let r_ms, row_ms =
    time
      (Printf.sprintf "forgiving-graph/stretch.exact-scale/msbfs:%d" n)
      (fun () ->
        Fg_metrics.Stretch.exact ~domains ~graph_csr ~reference_csr ~graph
          ~reference:gp nodes)
  in
  let r_sw, row_sw =
    time
      (Printf.sprintf "forgiving-graph/stretch.exact-scale/sweep:%d" n)
      (fun () ->
        Fg_metrics.Stretch.exact_sweep ~domains ~graph_csr ~reference_csr ~graph
          ~reference:gp nodes)
  in
  Fg_graph.Parallel.shutdown ();
  let (_, ms_ns, _) = row_ms and (_, sw_ns, _) = row_sw in
  let show r = Format.asprintf "%a" Fg_metrics.Stretch.pp_report r in
  if r_ms <> r_sw then
    Printf.printf "WARNING: kernels disagree: msbfs %s / sweep %s\n%!" (show r_ms)
      (show r_sw)
  else Printf.printf "kernels agree: %s\n%!" (show r_ms);
  if ms_ns > 0.0 then
    Printf.printf "stretch-exact msbfs speedup over per-source sweep: %.2fx\n%!"
      (sw_ns /. ms_ns);
  [ row_ms; row_sw ]

(* ---- one-shot serving-tier measurement (--serve-bench N) ----

   QPS and tail latency of reader domains querying pinned snapshots while
   the writer deletes at a fixed rate — the paper's repair-vs-usage
   concurrency as recorded perf rows. Closed-loop and wall-clocked rather
   than bechamel-fitted: the interesting numbers are the latency
   quantiles under sustained churn. All three rows are nanoseconds, so
   check_regress's bigger-is-worse direction applies: [ns-per-query] is
   inverse throughput (1e9 / QPS), [p50]/[p99] are the overall query
   latency quantiles. *)
let serve_bench_scale ~n =
  Printf.printf "\nserve-bench: n=%d, 1s of load under 50 deletions/s\n%!" n;
  let rng = Fg_graph.Rng.create 17 in
  let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let fg = Fg_core.Forgiving_graph.of_graph g in
  let cfg =
    {
      Fg_serve.Loadgen.readers = 2;
      duration = 1.0;
      churn_rate = 50.0;
      mix = Fg_serve.Loadgen.default_mix;
      sample_pairs = 4;
      min_live = max 2 (n / 4);
      seed = 17;
    }
  in
  let r = Fg_serve.Loadgen.run fg cfg in
  Fg_graph.Parallel.shutdown ();
  Format.printf "%a@." Fg_serve.Loadgen.pp_report r;
  let q = max 1 r.Fg_serve.Loadgen.queries in
  let row name v =
    let name = Printf.sprintf "forgiving-graph/serve.qps-under-churn/%s:%d" name n in
    Printf.printf "%-42s  %14.1f  %14.1f\n%!" name v 0.0;
    (name, v, 0.0)
  in
  [
    row "ns-per-query" (r.Fg_serve.Loadgen.wall_s *. 1e9 /. float_of_int q);
    row "p50" (float_of_int (Fg_obs.Hdr.p50 r.Fg_serve.Loadgen.overall));
    row "p99" (float_of_int (Fg_obs.Hdr.p99 r.Fg_serve.Loadgen.overall));
  ]

(* Append this run to a JSON history file so perf numbers can be diffed
   across commits: {"runs":[{"label":...,"results":[{"name","ns","minor_words"}]}]}.
   An existing file is read back and extended; a fresh one is created. *)
let append_json_run ~file ~label rows =
  let module J = Fg_obs.Json in
  let previous =
    if Sys.file_exists file then begin
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      match J.of_string text with
      | Ok json -> (
        match J.member "runs" json with Some (J.List rs) -> rs | _ -> [])
      | Error msg ->
        Printf.eprintf "warning: %s: %s — starting fresh\n" file msg;
        []
    end
    else []
  in
  let run =
    J.Obj
      [
        ("label", J.Str label);
        ( "results",
          J.List
            (List.map
               (fun (name, ns, minor) ->
                 J.Obj
                   [
                     ("name", J.Str name);
                     ("ns", J.Float ns);
                     ("minor_words", J.Float minor);
                   ])
               rows) );
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string (J.Obj [ ("runs", J.List (previous @ [ run ])) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote run %S to %s (%d runs total)\n" label file
    (List.length previous + 1)

let () =
  let json_file = ref None
  and label = ref "run"
  and quota = ref 0.25
  and scale = ref None
  and serve_n = ref None
  and scale_domains = ref 1 in
  let rec parse = function
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--label" :: l :: rest ->
      label := l;
      parse rest
    | "--quota" :: q :: rest -> (
      match float_of_string_opt q with
      | Some q when q > 0.0 ->
        quota := q;
        parse rest
      | _ ->
        Printf.eprintf "--quota requires a positive number of seconds\n";
        exit 2)
    | "--stretch-scale" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
        scale := Some n;
        parse rest
      | _ ->
        Printf.eprintf "--stretch-scale requires a positive node count\n";
        exit 2)
    | "--domains" :: d :: rest -> (
      match int_of_string_opt d with
      | Some d when d > 0 ->
        scale_domains := d;
        parse rest
      | _ ->
        Printf.eprintf "--domains requires a positive count\n";
        exit 2)
    | "--serve-bench" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n > 0 ->
        serve_n := Some n;
        parse rest
      | _ ->
        Printf.eprintf "--serve-bench requires a positive node count\n";
        exit 2)
    | [ ("--json" | "--label" | "--quota" | "--stretch-scale" | "--serve-bench"
        | "--domains") as flag ] ->
      Printf.eprintf "%s requires an argument\n" flag;
      exit 2
    | a :: _ ->
      Printf.eprintf
        "unknown argument %S (try --json FILE [--label NAME] [--quota SECONDS] \
         [--stretch-scale N [--domains D]] [--serve-bench N])\n"
        a;
      exit 2
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let results = benchmark ~quota:!quota () in
  let clock = List.nth results 0 and minor = List.nth results 1 in
  let name_of h = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
  let names = List.sort_uniq compare (name_of clock) in
  Printf.printf "%-42s  %14s  %14s\n" "benchmark" "ns/run" "minor-w/run";
  Printf.printf "%s\n" (String.make 76 '-');
  let value h name =
    match Hashtbl.find_opt h name with
    | None -> nan
    | Some ols -> (
      match Analyze.OLS.estimates ols with Some [ v ] -> v | _ -> nan)
  in
  let rows =
    List.map (fun name -> (name, value clock name, value minor name)) names
  in
  List.iter
    (fun (name, ns, mw) -> Printf.printf "%-42s  %14.1f  %14.1f\n" name ns mw)
    rows;
  (* pooled-domain speedup over the serial stretch computation *)
  let stretch_ns d =
    let suffix = Printf.sprintf "stretch.parallel:%d" d in
    List.find_map
      (fun (name, ns, _) ->
        if String.length name >= String.length suffix
           && String.sub name (String.length name - String.length suffix)
                (String.length suffix)
              = suffix
        then Some ns
        else None)
      rows
  in
  (match (stretch_ns 1, stretch_ns 4) with
  | Some s1, Some s4 when s4 > 0.0 ->
    Printf.printf "\nstretch.parallel pool speedup (4 vs 1 domains): %.2fx\n" (s1 /. s4)
  | _ -> ());
  let rows =
    match !scale with
    | None -> rows
    | Some n -> rows @ stretch_scale ~n ~domains:!scale_domains
  in
  let rows =
    match !serve_n with None -> rows | Some n -> rows @ serve_bench_scale ~n
  in
  match !json_file with
  | None -> ()
  | Some file -> append_json_run ~file ~label:!label rows
