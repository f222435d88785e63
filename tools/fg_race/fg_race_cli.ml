(* fg_race CLI — the CI race-check entry point.

   Normal mode explores each selected protocol bounded-exhaustively
   (lexicographic, up to --schedules) and then samples --random seeded
   uniform schedules; any Violation prints the offending schedule and
   fails the run. --seed-bug inverts the polarity: it runs the snapshot
   scenario with the reclamation horizon deliberately removed and
   demands that exploration catches the use-after-reclaim — a mutation
   test proving the checker has teeth. *)

open Fg_race

(* fg-lint: single-writer main — CLI flags, set once by Arg.parse *)
let protocol = ref "all" (* fg-lint: single-writer main *)
let schedules = ref 10_000 (* fg-lint: single-writer main *)
let random = ref 2_000 (* fg-lint: single-writer main *)
let seed = ref 0x5EED (* fg-lint: single-writer main *)
let quota = ref 45.0 (* fg-lint: single-writer main *)
let seed_bug = ref false (* fg-lint: single-writer main *)

let args =
  [
    ("--protocol", Arg.Set_string protocol, "NAME snapshot|ticket|all (default all)");
    ( "--schedules",
      Arg.Set_int schedules,
      "N exhaustive-exploration budget per protocol (default 10000)" );
    ("--random", Arg.Set_int random, "N random schedules per protocol on top (default 2000)");
    ("--seed", Arg.Set_int seed, "N PRNG seed for random schedules (default 0x5EED)");
    ( "--quota-seconds",
      Arg.Set_float quota,
      "S wall-clock budget per exploration phase (default 45)" );
    ( "--seed-bug",
      Arg.Set seed_bug,
      " expect the seeded reclamation bug to be caught; fail if it survives" );
  ]

let usage =
  "fg_race_cli [--protocol NAME] [--schedules N] [--random N] [--seed N] [--quota-seconds S] \
   [--seed-bug]"

let pp_stats phase (st : Sched.stats) =
  Printf.printf "    %-10s %6d schedules, %8d steps%s\n%!" phase st.Sched.schedules
    st.Sched.steps
    (if st.Sched.exhausted then " (space exhausted)" else "")

let check_protocol { Scenarios.name; scenario } =
  Printf.printf "  %s:\n%!" name;
  let ex = Sched.explore ~max_schedules:!schedules ~quota_seconds:!quota scenario in
  pp_stats "exhaustive" ex;
  let sa =
    Sched.sample ~samples:!random ~quota_seconds:!quota ~seed:!seed scenario
  in
  pp_stats "random" sa;
  ex.Sched.schedules + sa.Sched.schedules

let run_clean () =
  let selected =
    match !protocol with
    | "all" -> Scenarios.all ()
    | p -> (
      match
        List.find_opt (fun s -> s.Scenarios.name = p) (Scenarios.all ())
      with
      | Some s -> [ s ]
      | None ->
        prerr_endline ("fg_race_cli: unknown protocol " ^ p);
        exit 2)
  in
  Printf.printf "fg_race: exploring %d protocol(s)\n%!" (List.length selected);
  let counts = List.map check_protocol selected in
  Printf.printf "fg_race: OK — %d schedules, no violations\n%!" (List.fold_left ( + ) 0 counts);
  0

let run_seed_bug () =
  let scenario = Scenarios.snapshot_scenario ~unsafe:true () in
  match Sched.sample ~samples:!random ~quota_seconds:!quota ~seed:!seed scenario with
  | _ ->
    prerr_endline
      "fg_race_cli: FAIL — seeded reclamation bug survived exploration (checker is blind)";
    1
  | exception Sched.Violation _ ->
    Printf.printf "fg_race: OK — seeded reclamation bug caught as expected\n%!";
    0

let () =
  Arg.parse args (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    if !seed_bug then run_seed_bug ()
    else
      try run_clean ()
      with Sched.Violation _ as e ->
        prerr_endline ("fg_race_cli: " ^ Printexc.to_string e);
        1
  in
  exit code
