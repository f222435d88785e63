(* Tests for the observability layer: span nesting/ordering under the
   ring-buffer sink, JSONL round trip and replay, no-op behaviour when
   tracing is off, instrumentation agreement with Netsim.stats, and the
   fg_cli --trace end-to-end JSONL output. *)

open Fg_obs

(* deterministic clock: 1, 2, 3, ... *)
let with_counter_clock f =
  let c = ref 0. in
  Trace.set_clock (fun () ->
      c := !c +. 1.;
      !c);
  Fun.protect ~finally:(fun () -> Trace.set_clock Trace.wall_clock) f

let with_memory_sink f =
  let sink, contents = Sink.memory () in
  Trace.with_sink sink (fun () -> f ()) |> ignore;
  contents ()

(* ---- span nesting and ordering ---- *)

let test_span_nesting () =
  let events =
    with_counter_clock (fun () ->
        with_memory_sink (fun () ->
            Trace.with_span "a" (fun a ->
                Trace.attr a "k" (Event.Str "v");
                Trace.with_span "b" (fun _ -> Trace.count "hits" 2);
                Trace.with_span "c" (fun _ -> ());
                Trace.count "hits" 1)))
  in
  let shape =
    List.map
      (function
        | Event.Span_start { name; parent; _ } -> ("start", name, parent)
        | Event.Span_end { name; _ } -> ("end", name, None)
        | Event.Point { name; _ } -> ("point", name, None))
      events
  in
  Alcotest.(check (list (triple string string (option int))))
    "event order and parents"
    [
      ("start", "a", None);
      ("start", "b", Some 1);
      ("end", "b", None);
      ("start", "c", Some 1);
      ("end", "c", None);
      ("end", "a", None);
    ]
    shape;
  (* timestamps are monotone non-decreasing in emission order *)
  let ts = List.map Event.ts events in
  let rec mono = function
    | x :: (y :: _ as rest) -> x <= y && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotonic timestamps" true (mono ts);
  (* counters land on the right spans *)
  let end_of name =
    List.find_map
      (function
        | Event.Span_end { name = n; counters; attrs; _ } when n = name ->
          Some (counters, attrs)
        | _ -> None)
      events
    |> Option.get
  in
  let a_counters, a_attrs = end_of "a" in
  let b_counters, _ = end_of "b" in
  Alcotest.(check (list (pair string int))) "b counters" [ ("hits", 2) ] b_counters;
  Alcotest.(check (list (pair string int))) "a counters" [ ("hits", 1) ] a_counters;
  Alcotest.(check bool) "a attr" true (List.mem ("k", Event.Str "v") a_attrs)

(* ---- JSONL round trip and replay ---- *)

let test_jsonl_roundtrip () =
  let events =
    with_counter_clock (fun () ->
        with_memory_sink (fun () ->
            Trace.with_span "outer"
              ~attrs:[ ("f", Event.Float 1.5); ("b", Event.Bool true) ]
              (fun sp ->
                Trace.attr sp "s" (Event.Str "x\"y\\z");
                Trace.count "n" 7;
                Trace.point "p" ~attrs:[ ("i", Event.Int (-3)) ])))
  in
  Alcotest.(check bool) "emitted some events" true (List.length events = 3);
  let lines = List.map (fun e -> Json.to_string (Event.to_json e)) events in
  (* every line is one parseable JSON object that re-encodes identically *)
  List.iter2
    (fun line original ->
      match Replay.parse_line line with
      | Error e -> Alcotest.failf "unparseable line %S: %s" line e
      | Ok ev ->
        Alcotest.(check string) "re-encoding is stable" line
          (Json.to_string (Event.to_json ev));
        Alcotest.(check string) "same name" (Event.name original) (Event.name ev))
    lines events;
  (* replay aggregates into a per-phase table *)
  match Replay.parse_lines lines with
  | Error e -> Alcotest.fail e
  | Ok parsed ->
    let rows = Replay.of_events parsed in
    Alcotest.(check int) "one phase" 1 (List.length rows);
    let row = List.hd rows in
    Alcotest.(check string) "phase name" "outer" row.Replay.name;
    Alcotest.(check int) "span count" 1 row.Replay.count;
    Alcotest.(check (list (pair string int))) "summed counters" [ ("n", 7) ]
      row.Replay.counters

let test_replay_rejects_garbage () =
  (match Replay.parse_lines [ "{\"ev\":\"start\"" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated JSON");
  match Replay.parse_lines [ "{\"ev\":\"wibble\",\"name\":\"x\",\"ts\":0.0}" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted unknown event kind"

(* ---- no-op when tracing is off ---- *)

let test_noop_when_disabled () =
  Alcotest.(check bool) "disabled" false (Trace.enabled ());
  (* a healthy volume of instrumented calls with no sink: nothing observable *)
  let acc = ref 0 in
  for i = 1 to 100_000 do
    Trace.with_span "hot" (fun sp ->
        Trace.count "c" 1;
        Trace.attr sp "k" (Event.Int i);
        incr acc)
  done;
  Alcotest.(check int) "callback ran every time" 100_000 !acc;
  (* instrumented library code runs fine without a sink *)
  let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.star 16) in
  Fg_core.Forgiving_graph.delete fg 0;
  Alcotest.(check bool) "still disabled" false (Trace.enabled ())

let test_metrics_gated_off () =
  Metrics.reset Metrics.global;
  Alcotest.(check bool) "not recording" false (Metrics.is_recording ());
  let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.star 16) in
  Fg_core.Forgiving_graph.delete fg 0;
  Alcotest.(check int) "no deletions recorded" 0
    (Metrics.counter Metrics.global "fg.deletions")

(* ---- metrics registry ---- *)

let test_metrics_recording () =
  Metrics.reset Metrics.global;
  Metrics.set_recording true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_recording false;
      Metrics.reset Metrics.global)
    (fun () ->
      let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.star 32) in
      Fg_core.Forgiving_graph.delete fg 0;
      Fg_core.Forgiving_graph.delete fg 1;
      Alcotest.(check int) "deletions" 2 (Metrics.counter Metrics.global "fg.deletions");
      Alcotest.(check bool) "strip calls > 0" true
        (Metrics.counter Metrics.global "rt.strip_calls" >= 2);
      let hs = Metrics.histograms Metrics.global in
      Alcotest.(check bool) "fg.anchors histogram exists" true
        (List.mem_assoc "fg.anchors" hs);
      (* registry serializes *)
      match Json.of_string (Json.to_string (Metrics.to_json Metrics.global)) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "metrics json: %s" e)

(* a batch is one delete: one fg.delete span, per-group heal histograms,
   fg.deletions counting victims *)
let test_batch_is_one_delete_span () =
  Metrics.reset Metrics.global;
  Metrics.set_recording true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.set_recording false;
      Metrics.reset Metrics.global)
    (fun () ->
      let events =
        with_memory_sink (fun () ->
            let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.ring 12) in
            Fg_core.Forgiving_graph.delete_batch fg [ 2; 7 ])
      in
      let attrs_of = function
        | Event.Span_start { name = "fg.delete"; attrs; _ }
        | Event.Span_end { name = "fg.delete"; attrs; _ } ->
          Some attrs
        | _ -> None
      in
      match List.filter_map attrs_of events with
      | [ start_attrs; end_attrs ] ->
        Alcotest.(check bool) "victims = 2" true
          (List.assoc_opt "victims" start_attrs = Some (Event.Int 2));
        Alcotest.(check bool) "groups = 2" true
          (List.assoc_opt "groups" end_attrs = Some (Event.Int 2));
        Alcotest.(check int) "two fg.anchors observations" 2
          (List.length (Metrics.samples Metrics.global "fg.anchors"));
        Alcotest.(check int) "fg.deletions counts victims" 2
          (Metrics.counter Metrics.global "fg.deletions")
      | l -> Alcotest.failf "expected one fg.delete span, got %d events" (List.length l))

(* ---- instrumentation agrees with Netsim.stats ---- *)

let test_dist_span_matches_stats () =
  let sink, contents = Sink.memory () in
  let stats = ref None in
  Trace.with_sink sink (fun () ->
      let eng = Fg_sim.Dist_engine.create (Fg_graph.Generators.star 24) in
      stats := Some (Fg_sim.Dist_engine.delete eng 0));
  let stats = Option.get !stats in
  let span_counters, span_attrs =
    List.find_map
      (function
        | Event.Span_end { name = "dist.delete"; counters; attrs; _ } ->
          Some (counters, attrs)
        | _ -> None)
      (contents ())
    |> Option.get
  in
  let counter k = List.assoc_opt k span_counters in
  Alcotest.(check (option int)) "messages counter = stats.messages"
    (Some stats.Fg_sim.Netsim.messages) (counter "netsim.messages");
  Alcotest.(check (option int)) "rounds counter = stats.rounds"
    (Some stats.Fg_sim.Netsim.rounds) (counter "netsim.rounds");
  Alcotest.(check (option int)) "bits counter = stats.total_bits"
    (Some stats.Fg_sim.Netsim.total_bits) (counter "netsim.bits");
  let attr k = List.assoc_opt k span_attrs in
  Alcotest.(check (option bool)) "rounds attr" (Some true)
    (Option.map (fun a -> a = Event.Int stats.Fg_sim.Netsim.rounds) (attr "rounds"))

let test_delete_emits_strip_merge_children () =
  let events =
    with_memory_sink (fun () ->
        let fg = Fg_core.Forgiving_graph.of_graph (Fg_graph.Generators.star 16) in
        Fg_core.Forgiving_graph.delete fg 0)
  in
  let starts =
    List.filter_map
      (function
        | Event.Span_start { name; parent; id; _ } -> Some (name, parent, id)
        | _ -> None)
      events
  in
  let delete_id =
    List.find_map (fun (n, _, id) -> if n = "fg.delete" then Some id else None) starts
    |> Option.get
  in
  let child name =
    List.exists (fun (n, p, _) -> n = name && p = Some delete_id) starts
  in
  Alcotest.(check bool) "rt.strip child of fg.delete" true (child "rt.strip");
  Alcotest.(check bool) "rt.merge child of fg.delete" true (child "rt.merge");
  Alcotest.(check bool) "fg.collect child of fg.delete" true (child "fg.collect")

(* ---- Netsim.pp_stats / stats_to_json ---- *)

let test_netsim_stats_formats () =
  let s =
    {
      Fg_sim.Netsim.rounds = 3;
      messages = 14;
      total_bits = 560;
      max_message_bits = 40;
      max_agent_bits = 240;
      max_agent_messages = 7;
    }
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let str = Format.asprintf "%a" Fg_sim.Netsim.pp_stats s in
  Alcotest.(check bool) "pp mentions rounds" true (contains str "3 rounds");
  match Json.of_string (Fg_sim.Netsim.stats_to_json s) with
  | Error e -> Alcotest.failf "stats_to_json unparseable: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "rounds" (Some 3) (Option.bind (Json.member "rounds" j) Json.to_int);
    Alcotest.(check (option int)) "messages" (Some 14)
      (Option.bind (Json.member "messages" j) Json.to_int);
    Alcotest.(check (option int)) "total_bits" (Some 560)
      (Option.bind (Json.member "total_bits" j) Json.to_int)

(* ---- fg_cli attack --trace writes valid JSONL ---- *)

let test_cli_attack_trace_is_valid_jsonl () =
  let out = Filename.temp_file "fg_cli_trace" ".jsonl" in
  let cmd =
    Printf.sprintf
      "../bin/fg_cli.exe attack --family er -n 64 --trace %s > /dev/null 2>&1"
      (Filename.quote out)
  in
  let rc = Sys.command cmd in
  Alcotest.(check int) "fg_cli attack exits 0" 0 rc;
  match Replay.load out with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok events ->
    Sys.remove out;
    Alcotest.(check bool) "trace is non-empty" true (events <> []);
    let rows = Replay.of_events events in
    let phase name = List.exists (fun r -> r.Replay.name = name) rows in
    Alcotest.(check bool) "has fg.delete spans" true (phase "fg.delete");
    Alcotest.(check bool) "has rt.strip spans" true (phase "rt.strip");
    Alcotest.(check bool) "has rt.merge spans" true (phase "rt.merge")

let suite =
  [
    Alcotest.test_case "span nesting under ring buffer" `Quick test_span_nesting;
    Alcotest.test_case "jsonl round trip + replay" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "replay rejects garbage" `Quick test_replay_rejects_garbage;
    Alcotest.test_case "no-op when disabled" `Quick test_noop_when_disabled;
    Alcotest.test_case "metrics gated off" `Quick test_metrics_gated_off;
    Alcotest.test_case "metrics recording" `Quick test_metrics_recording;
    Alcotest.test_case "batch is one fg.delete span" `Quick test_batch_is_one_delete_span;
    Alcotest.test_case "dist.delete span = Netsim.stats" `Quick
      test_dist_span_matches_stats;
    Alcotest.test_case "delete emits strip/merge children" `Quick
      test_delete_emits_strip_merge_children;
    Alcotest.test_case "netsim stats pp/json" `Quick test_netsim_stats_formats;
    Alcotest.test_case "fg_cli attack --trace is valid JSONL" `Quick
      test_cli_attack_trace_is_valid_jsonl;
  ]
