(* fg — command-line driver for the Forgiving Graph library.

   Subcommands:
     generate  emit a graph family as an edge list or DOT
     attack    run an adversarial deletion sweep under a healer, report metrics
     simulate  run deletions through the distributed simulator, report costs
     heal      read an edge list, delete given nodes, print the healed graph
     stretch   heal a deletion sweep, measure stretch vs the reference
     serve-bench  QPS/latency of snapshot readers under live churn *)

open Cmdliner
module Fg = Fg_core.Forgiving_graph
module Adjacency = Fg_graph.Adjacency

(* ---- shared args ---- *)

let seed_arg =
  let doc = "Random seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let n_arg =
  let doc = "Target number of nodes." in
  Arg.(value & opt int 64 & info [ "n" ] ~doc)

let family_arg =
  let doc =
    "Graph family: " ^ String.concat ", " Fg_graph.Generators.names ^ "."
  in
  Arg.(value & opt string "er" & info [ "family" ] ~doc)

let make_graph family seed n =
  let rng = Fg_graph.Rng.create seed in
  try Fg_graph.Generators.by_name family rng n
  with Not_found ->
    Printf.eprintf "unknown family %S; available: %s\n" family
      (String.concat ", " Fg_graph.Generators.names);
    exit 2

(* ---- observability flags (attack / simulate / heal) ---- *)

let trace_arg =
  let doc =
    "Stream a JSONL trace (one span/counter event per line) to $(docv); \
     replay it with the $(b,trace) subcommand."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Record and print the global heal-path counters and histograms." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let domains_arg =
  let doc =
    "Number of OCaml domains for the metric/verification kernels (stretch, \
     diameter, invariant sweeps); clamped to the hardware count. Reports \
     are identical for any value — only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let with_obs trace metrics domains f =
  Fg_harness.Exp_common.with_observability ?trace ~metrics ~domains f

let metrics_every_arg =
  let doc =
    "Dump the metrics registry in OpenMetrics exposition format every \
     $(docv) deletions (implies $(b,--metrics)). Each dump is one complete \
     exposure ending in $(b,# EOF); validate the stream with \
     $(b,fg metrics --validate)."
  in
  Arg.(value & opt int 0 & info [ "metrics-every" ] ~docv:"N" ~doc)

let metrics_out_arg =
  let doc =
    "Write the periodic OpenMetrics dumps to $(docv) (truncated) instead \
     of stdout."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

(* Periodic OpenMetrics dumps for long-running attack/simulate sweeps.
   [stat] (when tracing) lets the caller publish dashboard gauges — an
   [fg.stat] point that [fg top] picks out of the trace stream. Returns
   the per-event tick and a finalizer that emits one last exposure (so
   short runs still produce a complete, validatable stream). *)
let periodic_dumper ?(stat = fun () -> ()) ~every ~out () =
  if every <= 0 then ((fun () -> ()), fun () -> ())
  else begin
    let oc = Option.map open_out out in
    let events = ref 0 in
    let dump () =
      if Fg_obs.Trace.enabled () then stat ();
      let text = Fg_obs.Openmetrics.render Fg_obs.Metrics.global in
      match oc with
      | Some oc ->
        output_string oc text;
        flush oc
      | None -> print_string text
    in
    let tick () =
      incr events;
      if !events mod every = 0 then dump ()
    in
    let finish () =
      if !events mod every <> 0 || !events = 0 then dump ();
      Option.iter close_out oc
    in
    (tick, finish)
  end

(* ---- generate ---- *)

let generate family seed n dot =
  let g = make_graph family seed n in
  if dot then print_string (Fg_graph.Graph_io.to_dot g)
  else print_string (Fg_graph.Graph_io.to_edge_list g)

let generate_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of an edge list.")
  in
  let doc = "Generate a graph family." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const generate $ family_arg $ seed_arg $ n_arg $ dot)

(* ---- attack ---- *)

let attack family seed n healer adversary fraction paranoid trace metrics domains
    metrics_every metrics_out =
  with_obs trace (metrics || metrics_every > 0) domains @@ fun () ->
  let del =
    try Fg_adversary.Adversary.deletion_of_name adversary
    with Invalid_argument _ ->
      Printf.eprintf "unknown adversary %S; available: %s\n" adversary
        (String.concat ", " Fg_adversary.Adversary.deletion_names);
      exit 2
  in
  let g0 = make_graph family seed n in
  let h =
    if paranoid then begin
      if healer <> "fg" then begin
        Printf.eprintf "--paranoid audits the \"fg\" healer only (got %S)\n" healer;
        exit 2
      end;
      Fg_baselines.Healer.forgiving_graph_paranoid
        ~on_violation:(fun errs ->
          List.iter (Printf.eprintf "paranoid: delta invariant violated: %s\n") errs;
          exit 1)
        g0
    end
    else
      try Fg_baselines.Registry.by_name healer g0
      with Not_found ->
        Printf.eprintf "unknown healer %S; available: %s\n" healer
          (String.concat ", " Fg_baselines.Registry.names);
        exit 2
  in
  let rng = Fg_graph.Rng.create (seed + 1) in
  let stat_rng = Fg_graph.Rng.create (seed + 2) in
  let stat () =
    let live = h.Fg_baselines.Healer.live_nodes () in
    let graph = h.Fg_baselines.Healer.graph () in
    let gprime = h.Fg_baselines.Healer.gprime () in
    let deg = Fg_metrics.Degree_metric.measure ~graph ~gprime ~nodes:live in
    let str =
      Fg_metrics.Stretch.sampled stat_rng ~k:1 ~graph ~reference:gprime live
    in
    let gc = Gc.quick_stat () in
    Fg_obs.Trace.point "fg.stat"
      ~attrs:
        [
          ("live", Fg_obs.Event.Int (List.length live));
          ("degree_max_ratio", Fg_obs.Event.Float deg.Fg_metrics.Degree_metric.max_ratio);
          ("degree_over_3x", Fg_obs.Event.Int deg.Fg_metrics.Degree_metric.over_3x);
          ("stretch_sample", Fg_obs.Event.Float str.Fg_metrics.Stretch.max_stretch);
          ("gc_minor_words", Fg_obs.Event.Float gc.Gc.minor_words);
          ("gc_major_collections", Fg_obs.Event.Int gc.Gc.major_collections);
        ]
  in
  let tick, finish_dumps =
    periodic_dumper ~stat ~every:metrics_every ~out:metrics_out ()
  in
  let victims =
    Fg_adversary.Churn.delete_fraction ~on_delete:(fun _ -> tick ()) rng h
      ~fraction ~del
  in
  finish_dumps ();
  let live = h.Fg_baselines.Healer.live_nodes () in
  let graph = h.Fg_baselines.Healer.graph () in
  let gprime = h.Fg_baselines.Healer.gprime () in
  let deg = Fg_metrics.Degree_metric.measure ~graph ~gprime ~nodes:live in
  let str = Fg_metrics.Stretch.exact ~graph ~reference:gprime live in
  Format.printf "healer %s on %s(n=%d), adversary %s, deleted %d nodes@."
    healer family n adversary (List.length victims);
  Format.printf "degree:  %a@." Fg_metrics.Degree_metric.pp_report deg;
  Format.printf "stretch: %a@." Fg_metrics.Stretch.pp_report str;
  Format.printf "bound ceil(log2 n_seen) = %d@."
    (Fg_harness.Exp_common.ceil_log2 (Adjacency.num_nodes gprime))

let attack_cmd =
  let healer =
    Arg.(
      value & opt string "fg"
      & info [ "healer" ]
          ~doc:("Healing strategy: " ^ String.concat ", " Fg_baselines.Registry.names ^ "."))
  in
  let adversary =
    Arg.(
      value & opt string "maxdeg"
      & info [ "adversary" ]
          ~doc:
            ("Deletion strategy: "
            ^ String.concat ", " Fg_adversary.Adversary.deletion_names
            ^ "."))
  in
  let fraction =
    Arg.(value & opt float 0.5 & info [ "fraction" ] ~doc:"Fraction of nodes to delete.")
  in
  let paranoid =
    Arg.(
      value & flag
      & info [ "paranoid" ]
          ~doc:
            "Audit every event with the O(delta) invariant check \
             (fg healer only); exit 1 on the first violation. Output is \
             otherwise identical.")
  in
  let doc = "Adversarially delete nodes and report degree/stretch metrics." in
  Cmd.v
    (Cmd.info "attack" ~doc)
    Term.(
      const attack $ family_arg $ seed_arg $ n_arg $ healer $ adversary $ fraction
      $ paranoid $ trace_arg $ metrics_arg $ domains_arg $ metrics_every_arg
      $ metrics_out_arg)

(* ---- simulate ---- *)

let simulate family seed n deletions distributed trace metrics domains
    metrics_every metrics_out =
  with_obs trace (metrics || metrics_every > 0) domains @@ fun () ->
  let g0 = make_graph family seed n in
  let rng = Fg_graph.Rng.create (seed + 1) in
  let tick, finish_dumps = periodic_dumper ~every:metrics_every ~out:metrics_out () in
  if distributed then begin
    (* full per-processor protocol, verified after every repair *)
    let eng = Fg_sim.Dist_engine.create g0 in
    let count = ref 0 in
    while !count < deletions do
      let live = Fg.live_nodes (Fg_sim.Dist_engine.reference eng) in
      if List.length live <= 2 then count := deletions
      else begin
        let v = Fg_graph.Rng.pick rng live in
        let s = Fg_sim.Dist_engine.delete eng v in
        Format.printf "del %d: %a (verified: %b)@." v Fg_sim.Netsim.pp_stats s
          (Fg_sim.Dist_engine.verify eng = []);
        incr count;
        tick ()
      end
    done;
    finish_dumps ()
  end
  else begin
  let eng = Fg_sim.Engine.create g0 in
  let count = ref 0 in
  while !count < deletions do
    let fg = Fg_sim.Engine.fg eng in
    let live = Fg.live_nodes fg in
    if List.length live <= 2 then count := deletions
    else begin
      let v = Fg_graph.Rng.pick rng live in
      let c = Fg_sim.Engine.delete eng v in
      Format.printf "%a@." Fg_sim.Engine.pp_cost c;
      incr count;
      tick ()
    end
  done;
  finish_dumps ();
  let costs = Fg_sim.Engine.costs eng in
  let summarize name field =
    match Fg_stats.Summary.of_ints_opt (List.map field costs) with
    | Some s -> Format.printf "%s %a@." name Fg_stats.Summary.pp s
    | None -> ()
  in
  Format.printf "@.";
  summarize "messages:" (fun c -> c.Fg_sim.Engine.messages);
  summarize "rounds:  " (fun c -> c.Fg_sim.Engine.rounds)
  end

let simulate_cmd =
  let deletions =
    Arg.(value & opt int 10 & info [ "deletions" ] ~doc:"How many random deletions.")
  in
  let distributed =
    Arg.(
      value & flag
      & info [ "distributed" ]
          ~doc:
            "Run the full per-processor protocol (Dist_engine) instead of the              trace-replay cost model, verifying each repair.")
  in
  let doc = "Run deletions through the distributed simulator and report costs." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ family_arg $ seed_arg $ n_arg $ deletions $ distributed
      $ trace_arg $ metrics_arg $ domains_arg $ metrics_every_arg
      $ metrics_out_arg)

(* ---- heal ---- *)

let heal path victims dot trace metrics domains =
  with_obs trace metrics domains @@ fun () ->
  let text = Fg_graph.Graph_io.read_file path in
  let g0 = Fg_graph.Graph_io.of_edge_list text in
  let fg = Fg.of_graph g0 in
  List.iter
    (fun v ->
      if Fg.is_alive fg v then Fg.delete fg v
      else Printf.eprintf "warning: node %d not live, skipped\n" v)
    victims;
  let g = Fg.graph fg in
  if dot then print_string (Fg_graph.Graph_io.to_dot g)
  else print_string (Fg_graph.Graph_io.to_edge_list g);
  match Fg_core.Invariants.check fg with
  | [] -> ()
  | errs ->
    List.iter (Printf.eprintf "invariant violation: %s\n") errs;
    exit 1

let heal_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"EDGELIST" ~doc:"Input graph.")
  in
  let victims =
    Arg.(value & opt (list int) [] & info [ "delete" ] ~doc:"Node ids to delete, in order.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit DOT.") in
  let doc = "Heal an explicit graph after deleting the given nodes." in
  Cmd.v
    (Cmd.info "heal" ~doc)
    Term.(const heal $ path $ victims $ dot $ trace_arg $ metrics_arg $ domains_arg)

(* ---- stretch ---- *)

let stretch family seed n adversary fraction sample sample_seed exact trace metrics domains =
  with_obs trace metrics domains @@ fun () ->
  let del =
    try Fg_adversary.Adversary.deletion_of_name adversary
    with Invalid_argument _ ->
      Printf.eprintf "unknown adversary %S; available: %s\n" adversary
        (String.concat ", " Fg_adversary.Adversary.deletion_names);
      exit 2
  in
  let g0 = make_graph family seed n in
  let h = Fg_baselines.Registry.by_name "fg" g0 in
  let rng = Fg_graph.Rng.create (seed + 1) in
  let victims = Fg_adversary.Churn.delete_fraction rng h ~fraction ~del in
  let live = h.Fg_baselines.Healer.live_nodes () in
  let graph = h.Fg_baselines.Healer.graph () in
  let gprime = h.Fg_baselines.Healer.gprime () in
  let t0 = Fg_obs.Trace.wall_clock () in
  let r =
    if exact || sample = 0 then
      Fg_metrics.Stretch.exact ~graph ~reference:gprime live
    else
      Fg_metrics.Stretch.sampled
        (Fg_graph.Rng.create (Option.value sample_seed ~default:(seed + 2)))
        ~k:sample ~graph ~reference:gprime live
  in
  let dt = Fg_obs.Trace.wall_clock () -. t0 in
  Format.printf "stretch on %s(n=%d), adversary %s, deleted %d of %d nodes@."
    family n adversary (List.length victims) n;
  Format.printf "stretch: %a@." Fg_metrics.Stretch.pp_report r;
  Format.printf "bound ceil(log2 n_seen) = %d; measured in %.2f s@."
    (Fg_harness.Exp_common.ceil_log2 (Adjacency.num_nodes gprime))
    dt

let stretch_cmd =
  let adversary =
    Arg.(
      value & opt string "random"
      & info [ "adversary" ]
          ~doc:
            ("Deletion strategy: "
            ^ String.concat ", " Fg_adversary.Adversary.deletion_names
            ^ "."))
  in
  let fraction =
    Arg.(value & opt float 0.125 & info [ "fraction" ] ~doc:"Fraction of nodes to delete.")
  in
  let sample =
    Arg.(
      value & opt int 0
      & info [ "sample" ] ~docv:"K"
          ~doc:"Measure from $(docv) sampled sources instead of all pairs \
                (0 = all pairs).")
  in
  let sample_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample-seed" ] ~docv:"SEED"
          ~doc:
            "Seed for the sampled-mode source draw, independent of the \
             graph/adversary $(b,--seed) (default: derived from \
             $(b,--seed), reproducing the historical draw). Lets two runs \
             share a graph and attack while varying only the sample, or \
             vice versa.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:"Force the all-pairs measurement (the default; overrides \
                $(b,--sample)).")
  in
  let doc =
    "Heal an adversarial deletion sweep, then measure stretch of the healed \
     graph against its reference."
  in
  Cmd.v
    (Cmd.info "stretch" ~doc)
    Term.(
      const stretch $ family_arg $ seed_arg $ n_arg $ adversary $ fraction
      $ sample $ sample_seed $ exact $ trace_arg $ metrics_arg $ domains_arg)

(* ---- serve-bench ---- *)

let serve_bench family seed n readers duration churn_rate sample_pairs mix_s metrics_out trace
    metrics =
  let mix =
    match Fg_serve.Loadgen.mix_of_string mix_s with
    | Ok m -> m
    | Error e ->
      Printf.eprintf "error: bad --mix: %s\n" e;
      exit 2
  in
  let record = metrics || Option.is_some metrics_out in
  with_obs trace record 1 @@ fun () ->
  let g0 = make_graph family seed n in
  let fg = Fg.of_graph g0 in
  let cfg =
    {
      Fg_serve.Loadgen.readers;
      duration;
      churn_rate;
      mix;
      sample_pairs;
      min_live = max 2 (n / 4);
      seed;
    }
  in
  let report = Fg_serve.Loadgen.run fg cfg in
  Format.printf "serve-bench %s(n=%d) churn=%.0f/s@." family n churn_rate;
  (* Loadgen clamps readers to the worker pool; say so when it did *)
  if report.Fg_serve.Loadgen.readers_used <> cfg.readers then
    Format.printf "readers: %d requested, %d used (pool size %d)@." cfg.readers
      report.readers_used (Fg_graph.Parallel.pool_size ());
  Format.printf "%a@." Fg_serve.Loadgen.pp_report report;
  (* one complete exposure of the global registry — includes the
     serve.<class>_ns histograms the readers recorded *)
  Option.iter
    (fun path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Fg_obs.Openmetrics.render Fg_obs.Metrics.global)))
    metrics_out

let serve_bench_cmd =
  let readers =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~docv:"N"
          ~doc:"Reader domains issuing queries (clamped to the worker-pool size).")
  in
  let duration =
    Arg.(value & opt float 2.0 & info [ "duration" ] ~docv:"SEC" ~doc:"Seconds of load.")
  in
  let churn =
    Arg.(
      value & opt float 20.0
      & info [ "churn-rate" ] ~docv:"DEL/SEC"
          ~doc:
            "Adversarial deletions per second on the writer domain; each \
             deletion heals and publishes a new snapshot generation (0 = \
             static graph).")
  in
  let pairs =
    Arg.(
      value & opt int 4
      & info [ "sample-pairs" ] ~docv:"K" ~doc:"BFS sources per stretch-sample query.")
  in
  let mix =
    Arg.(
      value
      & opt string "distance=6,path=1,stretch=1,degree=2"
      & info [ "mix" ] ~docv:"CLASS=W,.."
          ~doc:
            "Query-class weights over distance, path, stretch, degree \
             (closed loop: each reader draws the next class by weight).")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write one final OpenMetrics exposure (per-class serve.*_ns \
             histograms included) to $(docv); implies $(b,--metrics). \
             Validate with $(b,fg metrics --validate).")
  in
  let doc =
    "Serve queries from reader domains against pinned snapshots while the \
     adversary deletes at a fixed rate: queries/sec and tail latency under \
     churn (the paper's repair-vs-usage concurrency, measured)."
  in
  Cmd.v
    (Cmd.info "serve-bench" ~doc)
    Term.(
      const serve_bench $ family_arg $ seed_arg $ n_arg $ readers $ duration $ churn $ pairs
      $ mix $ metrics_out $ trace_arg $ metrics_arg)

(* ---- trace (replay a JSONL telemetry file) ---- *)

let trace_report path =
  match Fg_obs.Replay.table_of_file path with
  | Error e ->
    Printf.eprintf "error: %s\n" e;
    exit 1
  | Ok rows ->
    if rows = [] then print_endline "(no spans in trace)"
    else Format.printf "%a" Fg_obs.Replay.pp_table rows

let trace_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.jsonl" ~doc:"JSONL trace written by --trace.")
  in
  let doc = "Replay a JSONL trace into a per-phase cost table." in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const trace_report $ path)

(* ---- metrics (registry report / OpenMetrics export / validation) ---- *)

let read_all_in path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_bin path In_channel.input_all

(* Rebuild a metrics registry from a JSONL trace: span durations land in
   per-phase HDR histograms ([<span>_ns]), span counters sum into
   counters, and points count under [point.<name>]. *)
let registry_of_trace events =
  let reg = Fg_obs.Metrics.create () in
  List.iter
    (fun e ->
      match e with
      | Fg_obs.Event.Span_end { name; dur; counters; _ } ->
        Fg_obs.Hdr.record_sharded
          (Fg_obs.Metrics.hdr_in reg (name ^ "_ns"))
          (int_of_float (dur *. 1e9));
        List.iter (fun (k, n) -> Fg_obs.Metrics.incr_in reg ~n k) counters
      | Fg_obs.Event.Point { name; _ } ->
        Fg_obs.Metrics.incr_in reg ("point." ^ name)
      | Fg_obs.Event.Span_start _ -> ())
    events;
  reg

let metrics_report trace_path openmetrics out validate =
  match validate with
  | Some path -> (
    let text = read_all_in path in
    match Fg_obs.Openmetrics.validate text with
    | Ok () -> print_endline "openmetrics: valid"
    | Error e ->
      Printf.eprintf "openmetrics: invalid: %s\n" e;
      exit 1)
  | None -> (
    match trace_path with
    | None ->
      Printf.eprintf
        "error: give a TRACE.jsonl to report on, or --validate FILE\n";
      exit 2
    | Some path -> (
      let events =
        if path = "-" then
          Fg_obs.Replay.parse_lines
            (String.split_on_char '\n' (In_channel.input_all stdin))
        else Fg_obs.Replay.load path
      in
      match events with
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
      | Ok events ->
        let reg = registry_of_trace events in
        let text =
          if openmetrics then Fg_obs.Openmetrics.render reg
          else Format.asprintf "%a" Fg_obs.Metrics.pp reg
        in
        (match out with
        | None -> print_string text
        | Some f -> Out_channel.with_open_bin f (fun oc -> output_string oc text))))

let metrics_cmd =
  let trace_path =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "JSONL trace written by --trace ($(b,-) for stdin); aggregated \
             into a registry.")
  in
  let openmetrics =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:"Emit OpenMetrics text exposition instead of the human report.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the report to $(docv).")
  in
  let validate =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate" ] ~docv:"FILE"
          ~doc:
            "Check $(docv) ($(b,-) for stdin) against the OpenMetrics \
             exposition grammar; exit 1 if invalid. Accepts a stream of \
             exposures as produced by --metrics-every.")
  in
  let doc =
    "Aggregate a trace into metrics, export OpenMetrics, or validate an \
     exposition."
  in
  Cmd.v
    (Cmd.info "metrics" ~doc)
    Term.(const metrics_report $ trace_path $ openmetrics $ out $ validate)

(* ---- top (live dashboard over a trace stream) ---- *)

let top path interval frames window plain =
  let agg = Fg_obs.Top.create ~window () in
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot open %s: %s\n" path (Unix.error_message e);
      exit 1
  in
  let chunk = Bytes.create 65536 in
  let pending = Buffer.create 4096 in
  (* drain whatever the writer has appended since the last frame, feeding
     only complete lines; a partial tail line stays buffered *)
  let drain () =
    let rec read_all () =
      let k = Unix.read fd chunk 0 (Bytes.length chunk) in
      if k > 0 then begin
        Buffer.add_subbytes pending chunk 0 k;
        read_all ()
      end
    in
    read_all ();
    let s = Buffer.contents pending in
    let rec lines start =
      match String.index_from_opt s start '\n' with
      | None -> start
      | Some nl ->
        let line = String.sub s start (nl - start) in
        (if String.trim line <> "" then
           match Fg_obs.Replay.parse_line line with
           | Ok e -> Fg_obs.Top.feed agg e
           | Error _ -> () (* tolerate foreign/corrupt lines while tailing *));
        lines (nl + 1)
    in
    let consumed = lines 0 in
    if consumed > 0 then begin
      let rest = String.sub s consumed (String.length s - consumed) in
      Buffer.clear pending;
      Buffer.add_string pending rest
    end
  in
  let frame () =
    drain ();
    print_string (Fg_obs.Top.render ~ansi:(not plain) agg);
    flush stdout
  in
  if frames <= 0 then
    while true do
      frame ();
      Unix.sleepf interval
    done
  else
    for i = 1 to frames do
      frame ();
      if i < frames then Unix.sleepf interval
    done;
  Unix.close fd

let top_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE.jsonl"
          ~doc:
            "JSONL trace to tail — typically the --trace file of a running \
             attack/simulate.")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SEC" ~doc:"Seconds between redraws.")
  in
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Render $(docv) frames then exit (0 = run until interrupted).")
  in
  let window =
    Arg.(
      value & opt float 10.0
      & info [ "window" ] ~docv:"SEC"
          ~doc:"Trailing stream-time window for the heals/deltas rates.")
  in
  let plain =
    Arg.(
      value & flag
      & info [ "plain" ]
          ~doc:"No ANSI clear-screen between frames (for logs and tests).")
  in
  let doc = "Live terminal dashboard over a telemetry trace stream." in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(const top $ path $ interval $ frames $ window $ plain)

(* ---- route ---- *)

let route_cmd_run family seed n victims src dst =
  let g0 = make_graph family seed n in
  let fg = Fg.of_graph g0 in
  List.iter
    (fun v ->
      if Fg.is_alive fg v then Fg.delete fg v
      else Printf.eprintf "warning: node %d not live, skipped\n" v)
    victims;
  if not (Fg.is_alive fg src && Fg.is_alive fg dst) then begin
    Printf.eprintf "error: route endpoints must be live\n";
    exit 1
  end;
  match Fg_core.Routing.route fg src dst with
  | None -> Format.printf "%d and %d are not connected in G'@." src dst
  | Some walk ->
    Format.printf "route: %s@."
      (String.concat " -> " (List.map string_of_int walk));
    let d' = Option.get (Fg_graph.Bfs.distance (Fg.gprime fg) src dst) in
    let d = Option.get (Fg_graph.Bfs.distance (Fg.graph fg) src dst) in
    Format.printf "length %d; optimal in G: %d; G' distance: %d; bound: %d@."
      (List.length walk - 1)
      d d'
      (d' * Fg.stretch_bound fg)

let route_cmd =
  let victims =
    Arg.(value & opt (list int) [] & info [ "delete" ] ~doc:"Node ids to delete first.")
  in
  let src = Arg.(required & pos 0 (some int) None & info [] ~docv:"SRC") in
  let dst = Arg.(required & pos 1 (some int) None & info [] ~docv:"DST") in
  let doc = "Stitch a route through the reconstruction trees (Theorem 1.2)." in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(const route_cmd_run $ family_arg $ seed_arg $ n_arg $ victims $ src $ dst)

let () =
  let doc = "The Forgiving Graph: self-healing networks under adversarial attack." in
  let info = Cmd.info "fg" ~version:"1.0.0" ~doc in
  (* cmdliner only knows single-char names as short options; accept the
     common [--n 256] spelling too *)
  let argv = Array.map (fun a -> if a = "--n" then "-n" else a) Sys.argv in
  exit
    (Cmd.eval ~argv
       (Cmd.group info
          [
            generate_cmd;
            attack_cmd;
            simulate_cmd;
            heal_cmd;
            stretch_cmd;
            serve_bench_cmd;
            route_cmd;
            trace_cmd;
            metrics_cmd;
            top_cmd;
          ]))
