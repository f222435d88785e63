(* Regression gate over BENCH_perf.json: compare two labelled runs and
   fail (exit 1) if any gated benchmark — the [heal.*], [dist.*],
   [csr.*], [obs.*], [bfs.*] and [serve.*] groups — got more than
   [threshold] slower.
   This is the guard that keeps a delta-recorder-style regression (PR 3
   cost every heal bench 40-70%) from landing silently again; [bfs.*]
   extends it over the read-path kernels.

     check_regress --file BENCH_perf.json --base after-csr --cand pr4 \
       [--threshold PCT]   (default 25, i.e. fail on a >25% slowdown)

   When a label appears several times the most recent run wins, so a
   history file can accumulate one run per commit. Benchmarks present in
   only one of the two runs are skipped (new benches don't need a
   baseline). *)

module J = Fg_obs.Json

let gated_groups = [ "/heal."; "/dist."; "/csr."; "/obs."; "/bfs."; "/serve." ]

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let gated name = List.exists (fun g -> contains ~sub:g name) gated_groups

let read_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

(* last run with the given label -> (bench name -> ns) *)
let run_of_label json label =
  let runs =
    match J.member "runs" json with Some (J.List rs) -> rs | _ -> []
  in
  let matching =
    List.filter
      (fun r ->
        match Option.bind (J.member "label" r) J.to_str with
        | Some l -> l = label
        | None -> false)
      runs
  in
  match List.rev matching with
  | [] -> None
  | last :: _ ->
    let results =
      match J.member "results" last with Some (J.List rs) -> rs | _ -> []
    in
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun r ->
        match
          ( Option.bind (J.member "name" r) J.to_str,
            Option.bind (J.member "ns" r) J.to_float )
        with
        | Some name, Some ns -> Hashtbl.replace tbl name ns
        | _ -> ())
      results;
    Some tbl

let () =
  let file = ref "BENCH_perf.json"
  and base = ref None
  and cand = ref None
  and threshold = ref 0.25 in
  let usage () =
    Printf.eprintf
      "usage: check_regress --file BENCH_perf.json --base LABEL --cand LABEL \
       [--threshold PCT]\n\
       \  --threshold PCT  fail when a gated bench is more than PCT percent\n\
       \                   slower than the base run (default 25)\n";
    exit 2
  in
  let rec parse = function
    | "--file" :: f :: rest ->
      file := f;
      parse rest
    | "--base" :: l :: rest ->
      base := Some l;
      parse rest
    | "--cand" :: l :: rest ->
      cand := Some l;
      parse rest
    | "--threshold" :: t :: rest -> (
      match float_of_string_opt t with
      | Some pct when pct > 0.0 ->
        threshold := pct /. 100.0;
        parse rest
      | _ -> usage ())
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let base = match !base with Some l -> l | None -> usage () in
  let cand = match !cand with Some l -> l | None -> usage () in
  let json =
    match J.of_string (read_file !file) with
    | Ok j -> j
    | Error msg ->
      Printf.eprintf "error: %s: %s\n" !file msg;
      exit 2
    | exception Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  in
  let lookup label =
    match run_of_label json label with
    | Some tbl -> tbl
    | None ->
      Printf.eprintf "error: no run labelled %S in %s\n" label !file;
      exit 2
  in
  let base_tbl = lookup base and cand_tbl = lookup cand in
  let compared = ref 0 and regressions = ref [] in
  Hashtbl.iter
    (fun name base_ns ->
      if gated name && base_ns > 0.0 then
        match Hashtbl.find_opt cand_tbl name with
        | None -> ()
        | Some cand_ns ->
          incr compared;
          let ratio = cand_ns /. base_ns in
          if ratio > 1.0 +. !threshold then
            regressions := (name, base_ns, cand_ns, ratio) :: !regressions)
    base_tbl;
  if !compared = 0 then begin
    Printf.eprintf "error: no gated benchmarks (%s) shared by %S and %S\n"
      (String.concat " " gated_groups)
      base cand;
    exit 2
  end;
  Printf.printf "compared %d gated benchmarks: %S -> %S (threshold +%.0f%%)\n"
    !compared base cand (100.0 *. !threshold);
  match List.sort compare !regressions with
  | [] -> Printf.printf "no time regressions\n"
  | regs ->
    List.iter
      (fun (name, b, c, r) ->
        Printf.printf "REGRESSION %-42s  %12.0f -> %12.0f ns  (%.2fx)\n" name b c r)
      regs;
    exit 1
