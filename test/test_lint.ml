(* fg_lint self-test: every fixture in lint_fixtures/ must yield exactly
   its expected rule ID through --json, the clean module must yield zero
   findings, and the line pragma must suppress its finding. The driver
   shells out to the built tool (declared as a dune dep), mirroring how CI
   runs `dune build @lint`. *)

module Json = Fg_obs.Json

(* resolve everything relative to the test binary (_build/default/test/...),
   so the suite works both under `dune runtest` (cwd = test/) and
   `dune exec test/test_main.exe` (cwd = workspace root) *)
let test_dir = Filename.dirname Sys.executable_name
let root_dir = Filename.concat test_dir ".."
let exe = Filename.concat root_dir "tools/fg_lint/fg_lint.exe"

(* `dune runtest` materialises the (source_tree lint_fixtures) dep next to
   the test binary; `dune exec` builds only the binary, so fall back to the
   source tree in that case *)
let fixtures_dir =
  let built = Filename.concat test_dir "lint_fixtures" in
  if Sys.file_exists built then built
  else Filename.concat test_dir "../../../test/lint_fixtures"

let fixture f = Filename.concat fixtures_dir f
let conf = fixture "fixtures.conf"

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let run_lint ?only path =
  let out = Filename.temp_file "fg_lint_out" ".json" in
  let only_arg = match only with Some r -> " --only " ^ r | None -> "" in
  let cmd =
    Printf.sprintf "%s --conf %s --json%s %s > %s 2>/dev/null" exe conf only_arg
      (Filename.quote path) (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (rc, text)

let findings_of text =
  match Json.of_string text with
  | Error e -> Alcotest.failf "fg_lint --json output unparseable: %s" e
  | Ok j -> (
    match Json.member "findings" j with
    | Some (Json.List fs) ->
      List.filter_map (fun f -> Option.bind (Json.member "rule" f) Json.to_str) fs
    | _ -> Alcotest.fail "fg_lint --json output has no findings array")

let check_fixture ~rule ~file () =
  let rc, text = run_lint ~only:rule (fixture file) in
  Alcotest.(check int) (file ^ " exits 1") 1 rc;
  Alcotest.(check (list string)) (file ^ " findings") [ rule ] (findings_of text)

let test_clean () =
  (* all rules enabled: the clean module must stay silent and exit 0 *)
  let rc, text = run_lint (fixture "clean.ml") in
  Alcotest.(check int) "clean exits 0" 0 rc;
  Alcotest.(check (list string)) "clean findings" [] (findings_of text)

let test_pragma () =
  let rc, text = run_lint ~only:"R3" (fixture "r3_pragma.ml") in
  Alcotest.(check int) "pragma exits 0" 0 rc;
  Alcotest.(check (list string)) "pragma findings" [] (findings_of text);
  (* the pragma only covers its own line and rule: the sibling fixture with
     the same violation and no pragma still fires *)
  let rc, _ = run_lint ~only:"R3" (fixture "r3_poly_compare.ml") in
  Alcotest.(check int) "unsuppressed sibling exits 1" 1 rc

let test_directory_sweep () =
  (* whole-directory run with every rule: one finding per violating
     fixture plus one R5 per .mli-less module *)
  let rc, text = run_lint fixtures_dir in
  Alcotest.(check int) "sweep exits 1" 1 rc;
  let fs = findings_of text in
  let count r = List.length (List.filter (String.equal r) fs) in
  Alcotest.(check int) "R1 findings" 3 (count "R1");
  Alcotest.(check int) "R2 findings" 1 (count "R2");
  Alcotest.(check int) "R3 findings" 1 (count "R3");
  Alcotest.(check int) "R4 findings" 4 (count "R4");
  Alcotest.(check int) "R5 findings" 16 (count "R5");
  Alcotest.(check int) "R6 findings" 2 (count "R6");
  Alcotest.(check int) "R7 findings" 1 (count "R7");
  Alcotest.(check int) "R8 findings" 1 (count "R8");
  Alcotest.(check int) "R9 findings" 1 (count "R9");
  Alcotest.(check int) "total" 30 (List.length fs)

let test_repo_is_clean () =
  (* the tree itself must lint clean with the repo configuration — the
     same check `dune build @lint` gates in CI. Note this covers the
     whole rule set including R6-R9 over the concurrency-scoped modules
     and R5 over tools/. *)
  let rc =
    Sys.command
      (Printf.sprintf
         "cd %s && tools/fg_lint/fg_lint.exe --conf fg_lint.conf lib tools > /dev/null 2>&1"
         (Filename.quote root_dir))
  in
  Alcotest.(check int) "lib/ and tools/ lint clean" 0 rc

let test_github_mode () =
  (* --github renders one ::error workflow command per finding *)
  let out = Filename.temp_file "fg_lint_gh" ".txt" in
  let cmd =
    Printf.sprintf "%s --conf %s --github --only R8 %s > %s 2>/dev/null" exe conf
      (Filename.quote (fixture "r8_rogue_spawn.ml"))
      (Filename.quote out)
  in
  let rc = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  Alcotest.(check int) "github mode exits 1" 1 rc;
  let has_annotation =
    String.length text >= 13 && String.sub text 0 13 = "::error file="
  in
  if not has_annotation then
    Alcotest.failf "no ::error annotation in --github output: %s" text;
  let mentions_rule =
    let needle = "[R8]" in
    let n = String.length needle and l = String.length text in
    let rec find i = i + n <= l && (String.sub text i n = needle || find (i + 1)) in
    find 0
  in
  Alcotest.(check bool) "annotation names the rule" true mentions_rule

let suite =
  [
    Alcotest.test_case "R1 fixture" `Quick
      (check_fixture ~rule:"R1" ~file:"r1_hot_neighbors.ml");
    Alcotest.test_case "R2 fixture" `Quick
      (check_fixture ~rule:"R2" ~file:"r2_tuple_hash.ml");
    Alcotest.test_case "R3 fixture" `Quick
      (check_fixture ~rule:"R3" ~file:"r3_poly_compare.ml");
    Alcotest.test_case "R4 fixture" `Quick
      (check_fixture ~rule:"R4" ~file:"r4_unguarded_obs.ml");
    Alcotest.test_case "R4 profile fixture" `Quick
      (check_fixture ~rule:"R4" ~file:"r4_unguarded_profile.ml");
    Alcotest.test_case "R1 kernel fixture" `Quick
      (check_fixture ~rule:"R1" ~file:"r1_kernel_scan.ml");
    Alcotest.test_case "R4 kernel fixture" `Quick
      (check_fixture ~rule:"R4" ~file:"r4_kernel_stamp.ml");
    Alcotest.test_case "R1 serve fixture" `Quick
      (check_fixture ~rule:"R1" ~file:"r1_serve_pin.ml");
    Alcotest.test_case "R4 serve fixture" `Quick
      (check_fixture ~rule:"R4" ~file:"r4_serve_latency.ml");
    Alcotest.test_case "R5 fixture" `Quick
      (check_fixture ~rule:"R5" ~file:"r5_no_mli.ml");
    Alcotest.test_case "R6 mutable-field fixture" `Quick
      (check_fixture ~rule:"R6" ~file:"r6_naked_mutable.ml");
    Alcotest.test_case "R6 module-ref fixture" `Quick
      (check_fixture ~rule:"R6" ~file:"r6_rogue_ref.ml");
    Alcotest.test_case "R7 fixture" `Quick
      (check_fixture ~rule:"R7" ~file:"r7_unbalanced_pin.ml");
    Alcotest.test_case "R8 fixture" `Quick
      (check_fixture ~rule:"R8" ~file:"r8_rogue_spawn.ml");
    Alcotest.test_case "R9 fixture" `Quick
      (check_fixture ~rule:"R9" ~file:"r9_blocking_pinned.ml");
    Alcotest.test_case "clean module" `Quick test_clean;
    Alcotest.test_case "pragma suppression" `Quick test_pragma;
    Alcotest.test_case "github annotations" `Quick test_github_mode;
    Alcotest.test_case "directory sweep" `Quick test_directory_sweep;
    Alcotest.test_case "repo lints clean" `Quick test_repo_is_clean;
  ]
