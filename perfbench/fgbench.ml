(* The benchmark executable:

     fgbench --workload attack-hub|serve-churn|attack-audit --seed N
             --seconds S --trace 0|1 [--toy] [--corrupt-oracle]
             [--host-nproc N] [--host-cpu MODEL] [--commit SHA]

   A run repeats passes (set-up, timed phase, verify), each doing the
   identical work generated from the seed. The first pass warms the
   process (heap growth, domain pool) and runs the full output checks;
   it is not measured. Measured passes follow until [--seconds] have
   elapsed and at least three ran. Lines starting with '#' are the human
   report; the last line is one JSON object with the verdict and the
   metrics: the end-to-end ones untraced, the per-layer ones with
   [--trace 1], where the first measured pass runs untraced as the
   reference for the tracing overhead. Exits 1 if any output check
   failed. *)

open Common

let workloads =
  [ ("attack-hub", Hub.pass); ("serve-churn", Churn.pass); ("attack-audit", Audit.pass) ]
let min_measured = 3

let usage () =
  prerr_endline
    "usage: fgbench --workload attack-hub|serve-churn|attack-audit --seed N --seconds S \
     --trace 0|1 [--toy] [--corrupt-oracle] [--host-nproc N] [--host-cpu MODEL] [--commit SHA]";
  exit 2

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let toy = ref false and corrupt = ref false in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let cpu = ref "unknown" and commit = ref "unknown" in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; go rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; go rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; go rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); go rest
    | "--toy" :: rest -> toy := true; go rest
    | "--corrupt-oracle" :: rest -> corrupt := true; go rest
    | "--host-nproc" :: s :: rest ->
      Option.iter (fun n -> nproc := max 1 n) (int_of_string_opt s);
      go rest
    | "--host-cpu" :: s :: rest -> cpu := s; go rest
    | "--commit" :: s :: rest -> commit := s; go rest
    | a :: _ ->
      prerr_endline ("fgbench: unexpected argument " ^ a);
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (List.assoc_opt !workload workloads, !seed, !seconds, !trace) with
  | Some pass, Some seed, Some seconds, Some trace when seconds > 0. ->
    let cfg =
      { workload = !workload; seed; seconds; trace; corrupt = !corrupt; toy = !toy; nproc = !nproc }
    in
    (cfg, pass, !cpu, !commit)
  | _ -> usage ()

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

module V = Stats.Vec

(* ---- metrics ---- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }
let q v p = Stats.vquantile v p
let qa a p = Stats.quantile a p

let end_to_end acc ~rss =
  [
    m "setup_s" "s" (Stats.vmedian acc.setup_s);
    m "peak_rss_mb" "MB" rss;
    m "events_per_s" "1/s" (events_per_s acc);
    m "repair_p50_us" "us" (qa (item_medians acc.repair_us) 0.5);
    m "repair_p90_us" "us" (qa (item_medians acc.repair_us) 0.9);
    m "visible_p99_ms" "ms" (qa (item_medians acc.visible_ms) 0.99);
    m "audit_s" "s" (Stats.vmedian acc.audit_s);
    m "qps" "1/s" (qps acc);
    m "query_p50_us" "us" (qa (query_latencies acc) 0.5);
    m "query_p99_us" "us" (qa (query_latencies acc) 0.99);
  ]

(* Self times (us) of the spans with any of [names]. *)
let self_us by_name names =
  List.filter_map (fun (n, v) -> if List.mem n names then Some (V.to_array v) else None) by_name
  |> Array.concat
  |> Array.map (fun ns -> ns /. 1e3)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let per_layer ~un ~tr ~by_name ~profile ~residue =
  let per_pass x = x /. float_of_int (max 1 tr.passes) in
  let prof p = per_pass (float_of_int (List.assoc ("profile." ^ p ^ "_ns") profile)) in
  let writes = self_us by_name [ "core.delete"; "core.insert"; "core.delete_batch" ] in
  let publish = self_us by_name [ "snapshot.publish" ] in
  let stretch = self_us by_name [ "stretch.sampled" ] in
  let degree = self_us by_name [ "invariants.degree" ] in
  let cls c = List.assoc c tr.classes in
  let setup f = Stats.median (Array.append (V.to_array (f un)) (V.to_array (f tr))) in
  [
    m "core.event.self_us_p50" "us" (qa writes 0.5);
    m "core.event.self_us_p99" "us" (qa writes 0.99);
    m "profile.collect_ns" "ns" (prof "collect");
    m "profile.strip_ns" "ns" (prof "strip");
    m "profile.merge_ns" "ns" (prof "merge");
    m "profile.image_ns" "ns" (prof "image");
    m "profile.csr_refresh_ns" "ns" (prof "csr_apply" +. prof "csr_rebuild");
    m "profile.bfs_ns" "ns" (prof "bfs");
    m "snapshot.publish.self_us_p50" "us" (qa publish 0.5);
    m "snapshot.publish.self_us_p99" "us" (qa publish 0.99);
    m "delta.touched_per_event" "count"
      (if V.length tr.touched = 0 then 0. else Stats.mean (V.to_array tr.touched));
    m "snapshot.max_lag" "count" (float_of_int tr.max_lag);
    m "snapshot.reclaimed" "count" (per_pass (float_of_int tr.reclaimed));
    m "snapshot.unobserved_share" "ratio" (ratio tr.unobserved tr.published);
    m "serve.distance_us_p50" "us" (q (cls "distance") 0.5);
    m "serve.distance_us_p99" "us" (q (cls "distance") 0.99);
    m "serve.path_us_p50" "us" (q (cls "path") 0.5);
    m "serve.path_us_p99" "us" (q (cls "path") 0.99);
    m "serve.stretch_us_p50" "us" (q (cls "stretch") 0.5);
    m "serve.stretch_us_p99" "us" (q (cls "stretch") 0.99);
    m "serve.degree_us_p50" "us" (q (cls "degree") 0.5);
    m "serve.degree_us_p99" "us" (q (cls "degree") 0.99);
    m "serve.trivial_share" "ratio" (ratio tr.trivial tr.answers);
    m "serve.gen_lag_p99" "count" (if V.length tr.gen_lag = 0 then 0. else q tr.gen_lag 0.99);
    m "serve.degree_over_3x" "count" (per_pass (float_of_int tr.over_3x));
    m "serve.readers_used" "count" (float_of_int tr.readers_used);
    m "stretch.sampled.self_s" "s" (Stats.median stretch /. 1e6);
    m "stretch.bfs_sources" "count" (per_pass (float_of_int tr.bfs_sources));
    m "invariants.degree.self_ms" "ms" (Stats.median degree /. 1e3);
    m "parallel.domains_used" "count" (float_of_int tr.domains_used);
    m "gc.minor_words_per_event" "count" (tr.minor_words /. float_of_int (max 1 tr.events));
    m "gc.major_collections" "count" (per_pass (float_of_int tr.major_collections));
    m "gen.late_p99_ms" "ms" (q tr.late_ms 0.99);
    m "gen.backlog_end" "count" (per_pass (float_of_int tr.backlog));
    m "setup.generate_s" "s" (setup (fun a -> a.generate_s));
    m "setup.of_graph_s" "s" (setup (fun a -> a.of_graph_s));
    m "setup.prepare_s" "s" (setup (fun a -> a.prepare_s));
    m "trace.events_per_s_ratio" "ratio" (events_per_s tr /. events_per_s un);
    m "trace.residue_share" "ratio" residue;
  ]

(* ---- report ---- *)

let line fmt = Printf.printf ("# " ^^ fmt ^^ "\n")

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_json ~correct metrics =
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (json_float mt.value)
             mt.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct !attempted !failed body

(* Sample count, median, and the highest percentile with at least ten
   samples beyond it. *)
let describe_timing name a =
  let n = Array.length a in
  let p50 = qa a 0.5 and max = qa a 1. in
  match Stats.resolvable_percentile n with
  | Some p when p > 90. ->
    line "  %-16s n=%d p50=%.4g p90=%.4g p%g=%.4g max=%.4g" name n p50 (qa a 0.9) p
      (qa a (p /. 100.)) max
  | Some p when p > 50. ->
    line "  %-16s n=%d p50=%.4g p%g=%.4g max=%.4g" name n p50 p (qa a (p /. 100.)) max
  | _ -> if n > 0 then line "  %-16s n=%d p50=%.4g max=%.4g (too few for a tail)" name n p50 max

(* Report a pass as it ends. *)
let pass_line p ~traced acc =
  let last v = (V.to_array v).(V.length v - 1) in
  let latest it = observed (Array.to_list (List.hd it.per_pass)) in
  let repair = Array.of_list (latest acc.repair_us) in
  line "pass %d%s: setup %.4fs, writer busy %.4fs, repair p50 %.4gus p99 %.4gus, audit %.4fs" p
    (if p = 0 then " (warm-up)" else if traced then " (traced)" else "")
    (last acc.setup_s)
    (List.fold_left ( +. ) 0. (latest acc.busy_s))
    (qa repair 0.5) (qa repair 0.99) (last acc.audit_s)

let report acc label =
  line "%s timings:" label;
  line "  (per-item medians across passes)";
  describe_timing "repair_us" (item_medians acc.repair_us);
  describe_timing "visible_ms" (item_medians acc.visible_ms);
  describe_timing "query_us" (query_latencies acc);
  line "  (pooled over passes)";
  List.iter (fun (c, v) -> describe_timing ("  " ^ c ^ "_us") (V.to_array v)) acc.classes;
  describe_timing "late_ms" (V.to_array acc.late_ms);
  line "  readers requested %d used %d%s" acc.readers_requested acc.readers_used
    (if acc.readers_used < acc.readers_requested then " (clamped to the pool)" else "");
  line "  serve.degree_over_3x=%d (paper factor 3; not a failure)" acc.over_3x

(* The traced run's report: self time per span and per layer, the
   residue, the library's phase profile and the tracing overhead.
   Returns the per-layer metrics. *)
let report_trace cfg ~un ~tr ~rss =
  report tr "traced";
  let by_name = Spans.self_by_name () in
  let profile = Sut.profile_sums () in
  let res = Spans.residue () in
  let wall_ns = List.fold_left (fun a (_, w, _) -> a + w) 0 res in
  let bench_ns = List.fold_left (fun a (_, _, b) -> a + b) 0 res in
  line "spans: %d recorded; self time by span (layer.function):" (Spans.total ());
  List.iter
    (fun (n, v) ->
      line "  %-26s calls=%-7d self total=%.4fs p50=%.4gus p99=%.4gus" n (V.length v)
        (V.sum v /. 1e9) (q v 0.5 /. 1e3) (q v 0.99 /. 1e3))
    by_name;
  let layers = Hashtbl.create 8 in
  List.iter
    (fun (n, v) ->
      let l = Spans.layer_of n in
      Hashtbl.replace layers l (V.sum v +. Option.value ~default:0. (Hashtbl.find_opt layers l)))
    by_name;
  Hashtbl.iter
    (fun l s ->
      if l = "idle" then line "  layer %-12s %.4fs waiting (outside the busy wall)" l (s /. 1e9)
      else
        line "  layer %-12s self %.4fs (%.1f%% of the busy root-span wall)" l (s /. 1e9)
          (100. *. s /. float_of_int (max 1 wall_ns)))
    layers;
  List.iter
    (fun (tid, w, b) ->
      line "  track %d: busy root-span wall %.4fs, unaccounted (bench self) %.4fs" tid
        (float_of_int w /. 1e9) (float_of_int b /. 1e9))
    res;
  List.iter
    (fun (n, s) ->
      line "  %s per traced pass: %.4gs" n
        (float_of_int s /. 1e9 /. float_of_int (max 1 tr.passes)))
    profile;
  line "tracing overhead (traced passes vs the untraced reference pass):";
  List.iter2
    (fun a b ->
      line "  %-16s untraced %.6g  traced %.6g  (%+.1f%%)" a.name a.value b.value
        (100. *. ((b.value /. a.value) -. 1.)))
    (end_to_end un ~rss) (end_to_end tr ~rss);
  let path = Printf.sprintf "perfbench/results/spans-%s-s%d.jsonl" cfg.workload cfg.seed in
  (try
     if not (Sys.file_exists "perfbench/results") then Sys.mkdir "perfbench/results" 0o755;
     Spans.dump path;
     line "spans written to %s" path
   with Sys_error e -> line "spans not written: %s" e);
  per_layer ~un ~tr ~by_name ~profile ~residue:(ratio bench_ns wall_ns)

let () =
  let cfg, pass, cpu, commit = parse () in
  line "fgbench workload=%s seed=%d seconds=%g trace=%b%s%s" cfg.workload cfg.seed cfg.seconds
    cfg.trace (if cfg.toy then " toy" else "") (if cfg.corrupt then " corrupt-oracle" else "");
  line "host nproc=%d cpu=%S ocaml=%s commit=%s" cfg.nproc cpu Sys.ocaml_version commit;
  line "domains: requested %d, pool %d, a request for %d resolves to %d" cfg.nproc
    (Sut.pool_size ()) cfg.nproc (Sut.resolve_domains cfg.nproc);
  let warm = new_acc () and un = new_acc () and tr = new_acc () in
  let t_run = ref (Clock.now_ns ()) in
  let fps = ref [] in
  let p = ref 0 in
  while !p <= min_measured || Clock.since_s !t_run < cfg.seconds do
    let traced = cfg.trace && !p > 1 in
    tracing_pass := traced;
    checking_pass := !p = 0;
    let acc = if !p = 0 then warm else if traced then tr else un in
    let fp = pass cfg acc in
    pass_line !p ~traced acc;
    Spans.set_enabled false;
    Sut.set_recording false;
    acc.passes <- acc.passes + 1;
    fps := fp :: !fps;
    Gc.full_major ();
    if !p = 0 then begin
      t_run := Clock.now_ns ();
      Sut.profile_reset ()
    end;
    incr p
  done;
  (* determinism: every pass generated the same inputs and healed to the
     same graphs *)
  let fp_in, ((ge, gh), (pe, ph)) = List.hd !fps in
  check
    (List.for_all (( = ) (List.hd !fps)) !fps)
    "passes disagree on input or output fingerprints";
  line "passes=%d (warm-up 1, untraced %d, traced %d), measured wall=%.3fs" !p un.passes tr.passes
    (Clock.since_s !t_run);
  line "fingerprint input=%016x output G=%d:%016x G'=%d:%016x" fp_in ge gh pe ph;
  let rss = vm_hwm_mb () in
  let metrics =
    if cfg.trace then report_trace cfg ~un ~tr ~rss
    else begin
      report un "untraced";
      end_to_end un ~rss
    end
  in
  List.iter (fun mt -> line "%-30s %.6g %s" mt.name mt.value mt.unit_) metrics;
  line "fail_ratio %.6g (%d failed of %d attempted)" (ratio !failed !attempted) !failed !attempted;
  List.iter (fun n -> line "FAILED: %s" n) (List.rev !notes);
  let correct = !failed = 0 in
  print_json ~correct metrics;
  exit (if correct then 0 else 1)
