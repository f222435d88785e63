(* Tests for the delta stream (PR 3): replaying the recorded deltas from
   G_0 must reproduce the engine's graphs exactly, the per-generation CSR
   caches must match from-scratch builds (including after external
   mutation of the returned adjacency), and the O(delta) invariant audit
   must accept every honest event and flag tampered ones. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph
module Delta = Fg_core.Delta
module Invariants = Fg_core.Invariants
module Edge = Fg_core.Edge

let make_g0 rng kind n =
  if kind then Generators.erdos_renyi rng n (4.0 /. float_of_int n)
  else Generators.barabasi_albert rng n 3

(* Random churn: ~60% deletions, rest insertions of fresh nodes with 1-3
   live neighbours. [step] receives each event so callers can record or
   audit; returns the number of events applied. *)
let churn rng fg ~steps ~step =
  let next = ref 1_000_000 in
  let applied = ref 0 in
  for _ = 1 to steps do
    let live = Fg.live_nodes fg in
    if List.length live > 3 && Rng.float rng 1.0 < 0.6 then begin
      step (`Delete (Rng.pick rng live));
      incr applied
    end
    else if live <> [] then begin
      let k = 1 + Rng.int rng 3 in
      let nbrs =
        List.sort_uniq Node_id.compare (List.init k (fun _ -> Rng.pick rng live))
      in
      step (`Insert (!next, nbrs));
      incr next;
      incr applied
    end
  done;
  !applied

(* the recorded form of a churn step *)
let apply fg = function
  | `Delete v -> fst (Fg.apply fg (Delta.Deleted { victims = [ v ] }))
  | `Insert (v, nbrs) -> fst (Fg.apply fg (Delta.Inserted { node = v; nbrs }))

let prop_replay_reproduces_engine =
  QCheck2.Test.make ~name:"delta replay from G_0 reproduces graph and gprime"
    ~count:30
    QCheck2.Gen.(tup3 (int_range 0 99999) bool (int_range 8 40))
    (fun (seed, kind, n) ->
      let rng = Rng.create seed in
      let g0 = make_g0 rng kind n in
      let fg = Fg.of_graph g0 in
      let g_replay = Adjacency.copy g0 in
      let gp_replay = Adjacency.copy g0 in
      let step ev = Delta.apply ~gprime:gp_replay g_replay (apply fg ev) in
      ignore (churn rng fg ~steps:40 ~step);
      Adjacency.equal g_replay (Fg.graph fg) && Adjacency.equal gp_replay (Fg.gprime fg))

let prop_csr_cache_matches_rebuild =
  QCheck2.Test.make ~name:"Forgiving_graph.csr cache = Csr.of_adjacency" ~count:20
    QCheck2.Gen.(tup3 (int_range 0 99999) bool (int_range 8 32))
    (fun (seed, kind, n) ->
      let rng = Rng.create seed in
      let fg = Fg.of_graph (make_g0 rng kind n) in
      let ok = ref true in
      let gen0 = Fg.generation fg in
      let check () =
        if not (Csr.equal (Fg.csr fg) (Csr.of_adjacency (Fg.graph fg))) then ok := false;
        if not (Csr.equal (Fg.gprime_csr fg) (Csr.of_adjacency (Fg.gprime fg))) then
          ok := false;
        (* a second call in the same generation is the cached snapshot *)
        if not (Fg.csr fg == Fg.csr fg) then ok := false
      in
      check ();
      let step = function
        | `Delete v -> Fg.delete fg v; check ()
        | `Insert (v, nbrs) -> Fg.insert fg v nbrs; check ()
      in
      let applied = churn rng fg ~steps:30 ~step in
      !ok && Fg.generation fg = gen0 + applied)

let test_cache_survives_external_mutation () =
  let fg = Fg.of_graph (Generators.ring 8) in
  Fg.delete fg 0;
  ignore (Fg.csr fg);
  (* the documented footgun: callers must copy before mutating, but if one
     mutates anyway the version counter forces a rebuild, not a stale
     snapshot *)
  let g = Fg.graph fg in
  Adjacency.add_edge g 2 6;
  Alcotest.(check bool) "external add visible" true
    (Csr.equal (Fg.csr fg) (Csr.of_adjacency g));
  Adjacency.remove_edge g 2 6;
  Alcotest.(check bool) "external remove visible" true
    (Csr.equal (Fg.csr fg) (Csr.of_adjacency g));
  (* and the engine keeps healing correctly afterwards *)
  Fg.delete fg 4;
  Alcotest.(check bool) "cache consistent after later heal" true
    (Csr.equal (Fg.csr fg) (Csr.of_adjacency (Fg.graph fg)))

let prop_check_delta_accepts_honest_events =
  QCheck2.Test.make ~name:"check_delta accepts every honest event" ~count:20
    QCheck2.Gen.(tup2 (int_range 0 99999) (int_range 8 32))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let fg = Fg.of_graph (make_g0 rng false n) in
      let ok = ref true in
      let audit d = if Invariants.check_delta fg d <> [] then ok := false in
      let step ev = audit (apply fg ev) in
      ignore (churn rng fg ~steps:30 ~step);
      !ok)

let test_check_delta_detects_tampering () =
  let fg = Fg.of_graph (Generators.ring 8) in
  let d = apply fg (`Insert (100, [ 0; 4 ])) in
  Alcotest.(check (list string)) "honest insert passes" [] (Invariants.check_delta fg d);
  let bogus_edge = Edge.make 998 999 in
  Alcotest.(check bool) "phantom g_added flagged" true
    (Invariants.check_delta fg { d with g_added = bogus_edge :: d.Delta.g_added } <> []);
  Alcotest.(check bool) "insert removing nodes flagged" true
    (Invariants.check_delta fg { d with nodes_removed = [ 3 ] } <> []);
  Alcotest.(check bool) "insert removing edges flagged" true
    (Invariants.check_delta fg { d with g_removed = [ Edge.make 0 1 ] } <> []);
  let d2 = apply fg (`Delete 0) in
  Alcotest.(check (list string)) "honest delete passes" [] (Invariants.check_delta fg d2);
  Alcotest.(check bool) "delete extending G' flagged" true
    (Invariants.check_delta fg { d2 with gp_added = [ bogus_edge ] } <> []);
  Alcotest.(check bool) "wrong victim list flagged" true
    (Invariants.check_delta fg { d2 with nodes_removed = [ 5 ] } <> [])

let test_batch_apply_delta () =
  let fg = Fg.of_graph (Generators.ring 12) in
  let g_replay = Adjacency.copy (Fg.graph fg) in
  let gp_replay = Adjacency.copy (Fg.gprime fg) in
  let d, traces = Fg.apply fg (Delta.Deleted { victims = [ 2; 7 ] }) in
  Alcotest.(check int) "two independent repair groups" 2 (List.length traces);
  Alcotest.(check int) "groups recorded in the delta" 2 d.Delta.groups;
  Delta.apply ~gprime:gp_replay g_replay d;
  Alcotest.(check bool) "batch delta replays the graph" true
    (Adjacency.equal g_replay (Fg.graph fg));
  Alcotest.(check bool) "batch delta replays gprime" true
    (Adjacency.equal gp_replay (Fg.gprime fg));
  Alcotest.(check (list string)) "batch delta passes the audit" []
    (Invariants.check_delta fg d)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_replay_reproduces_engine;
      prop_csr_cache_matches_rebuild;
      prop_check_delta_accepts_honest_events;
    ]

let suite =
  [
    Alcotest.test_case "delta: cache survives external mutation" `Quick
      test_cache_survives_external_mutation;
    Alcotest.test_case "delta: check_delta detects tampering" `Quick
      test_check_delta_detects_tampering;
    Alcotest.test_case "delta: delete_batch delta" `Quick test_batch_apply_delta;
  ]
  @ props
