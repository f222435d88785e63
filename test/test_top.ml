(* Fg_obs.Top: the aggregator behind [fg top] — deterministic synthetic
   event streams in, rates/quantiles/stat out — plus a CLI smoke test
   that tails a real attack trace for one plain frame. *)

module Top = Fg_obs.Top
module E = Fg_obs.Event

let span_end ?(counters = []) name ts dur =
  E.Span_end { id = 0; name; ts; dur; attrs = []; counters }

let point ?(attrs = []) name ts = E.Point { name; ts; attrs }

let contains sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_rates () =
  let t = Top.create ~window:10.0 () in
  (* 20 heals and 40 deltas spread over 4 seconds of stream time *)
  for i = 0 to 19 do
    let ts = 0.2 *. float_of_int i in
    Top.feed t (point "fg.delta" ts);
    Top.feed t (point "fg.delta" ts);
    Top.feed t (span_end "fg.delete" ts 0.001)
  done;
  Alcotest.(check int) "events seen" 60 (Top.events_seen t);
  (* window (10s) exceeds the 3.8s span: rates use the actual span *)
  let close what expected got =
    if Float.abs (got -. expected) > 0.6 then
      Alcotest.failf "%s: expected ~%.1f, got %.2f" what expected got
  in
  close "heal rate" (20.0 /. 3.8) (Top.heal_rate t);
  close "delta rate" (40.0 /. 3.8) (Top.delta_rate t)

let test_window_trim () =
  let t = Top.create ~window:5.0 () in
  (* burst at t=0, then silence until t=100: the old burst must have
     slid out of the rate window *)
  for _ = 1 to 50 do
    Top.feed t (span_end "fg.delete" 0.0 0.001)
  done;
  Top.feed t (span_end "fg.delete" 100.0 0.001);
  let r = Top.heal_rate t in
  Alcotest.(check bool)
    (Printf.sprintf "stale heals trimmed (rate %.2f)" r)
    true (r < 1.0)

let test_render_contents () =
  let t = Top.create () in
  Top.feed t (span_end "rt.strip" 1.0 0.0005);
  Top.feed t (span_end "rt.merge" 1.1 0.002);
  Top.feed t (span_end "fg.delete" 1.2 0.004);
  Top.feed t
    (point "fg.stat" ~attrs:[ ("degree_max_ratio", E.Float 2.5) ] 1.3);
  let frame = Top.render ~ansi:false t in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("frame contains " ^ sub) true (contains sub frame))
    [ "heals/s"; "deltas/s"; "rt.strip"; "rt.merge"; "fg.delete"; "p99";
      "degree_max_ratio=2.5" ];
  Alcotest.(check bool) "plain frame has no ANSI escape" false
    (contains "\027[" frame);
  let ansi = Top.render ~ansi:true t in
  Alcotest.(check bool) "ansi frame clears screen" true (contains "\027[" ansi)

let test_duration_quantiles () =
  (* 100 spans of 1ms and one of 100ms: p50 must sit at ~1ms and max at
     100ms (Top should histogram durations, not average them) *)
  let t = Top.create () in
  for i = 0 to 99 do
    Top.feed t (span_end "fg.delete" (0.01 *. float_of_int i) 0.001)
  done;
  Top.feed t (span_end "fg.delete" 1.0 0.1);
  let frame = Top.render ~ansi:false t in
  Alcotest.(check bool) "p50 about 1ms" true
    (contains "1.0" frame && contains "ms" frame);
  Alcotest.(check bool) "max shows the outlier" true (contains "100.0" frame)

let test_cli_top_smoke () =
  let tr = Filename.temp_file "fg_top" ".jsonl" in
  let out = Filename.temp_file "fg_top" ".out" in
  let rc =
    Sys.command
      (Printf.sprintf
         "../bin/fg_cli.exe attack --family er -n 64 --trace %s > /dev/null \
          2>&1"
         (Filename.quote tr))
  in
  Alcotest.(check int) "attack exits 0" 0 rc;
  let rc =
    Sys.command
      (Printf.sprintf "../bin/fg_cli.exe top %s --frames 1 --plain > %s 2>&1"
         (Filename.quote tr) (Filename.quote out))
  in
  Alcotest.(check int) "fg top exits 0" 0 rc;
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove tr;
  Sys.remove out;
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("top output has " ^ sub) true (contains sub text))
    [ "fg top"; "heals/s"; "fg.delete"; "rt.strip" ]

let suite =
  [
    Alcotest.test_case "heal/delta rates over the stream window" `Quick
      test_rates;
    Alcotest.test_case "stale events slide out of the window" `Quick
      test_window_trim;
    Alcotest.test_case "render includes phases, rates and stats" `Quick
      test_render_contents;
    Alcotest.test_case "phase table shows quantiles, not means" `Quick
      test_duration_quantiles;
    Alcotest.test_case "fg top renders one frame from a real trace" `Quick
      test_cli_top_smoke;
  ]
