(* Serving-tier tests: Snapshot_store publication/reclamation semantics,
   the query kernels against slow oracles, the load generator, and the
   torture test of the PR 8 acceptance criteria — concurrent readers
   never block the healing writer (wait-free by construction: pin/unpin
   are a bounded number of atomic operations, no mutex exists on the
   read path), and every answer is exact for the published generation it
   carries, which is ≥ the generation current when the query started. *)

open Fg_graph
module Fg = Fg_core.Forgiving_graph
module Store = Snapshot_store
module Serve = Fg_serve.Serve
module Loadgen = Fg_serve.Loadgen

let healed_engine seed n kills =
  let rng = Rng.create seed in
  let g0 = Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let fg = Fg.of_graph g0 in
  for _ = 1 to kills do
    match Fg.live_nodes fg with
    | [] -> ()
    | live -> Fg.delete fg (Rng.pick rng live)
  done;
  fg

(* ---- Snapshot_store unit semantics ---- *)

(* Every published snapshot is either current, parked retired, or
   reclaimed — the store's conservation law. *)
let check_conservation store =
  let s = Store.stats store in
  Alcotest.(check int) "published = reclaimed + retired + current" s.Store.published
    (s.Store.reclaimed + s.Store.retired + 1)

let test_store_publish_reclaim () =
  let store : int Store.t = Store.create () in
  Alcotest.(check int) "empty gen" (-1) (Store.current_gen store);
  Store.publish store ~gen:1 10;
  Store.publish store ~gen:2 20;
  Store.publish store ~gen:2 21;
  (* same-gen republish allowed *)
  Alcotest.(check int) "current gen" 2 (Store.current_gen store);
  (* no readers: superseded snapshots reclaim at the next publish *)
  let s = Store.stats store in
  Alcotest.(check int) "published" 3 s.Store.published;
  Alcotest.(check int) "retired drained" 0 s.Store.retired;
  Alcotest.(check int) "reclaimed" 2 s.Store.reclaimed;
  check_conservation store;
  (match Store.publish store ~gen:1 99 with
  | () -> Alcotest.fail "backwards generation must be rejected"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "reject left store intact" 2 (Store.current_gen store)

let test_store_pin_blocks_reclaim () =
  let store : int Store.t = Store.create () in
  Store.publish store ~gen:1 100;
  let r = Store.reader store in
  let pinned = Store.pin r in
  Alcotest.(check int) "pinned value" 100 pinned.Store.value;
  (* writer keeps publishing: the pinned generation must stay parked *)
  for g = 2 to 6 do
    Store.publish store ~gen:g (g * 100)
  done;
  let s = Store.stats store in
  Alcotest.(check bool) "pinned snapshot not reclaimed" true (s.Store.retired >= 1);
  Alcotest.(check bool) "lag was observed" true (s.Store.max_lag >= 1);
  check_conservation store;
  Store.unpin r;
  let dropped = Store.reclaim store in
  Alcotest.(check bool) "unpin releases the backlog" true (dropped >= 1);
  Alcotest.(check int) "fully drained" 0 (Store.stats store).Store.retired;
  check_conservation store

let test_store_pin_nesting_and_errors () =
  let store : int Store.t = Store.create () in
  let r = Store.reader store in
  (match Store.pin r with
  | _ -> Alcotest.fail "pin on empty store must raise"
  | exception Invalid_argument _ -> ());
  (match Store.unpin r with
  | () -> Alcotest.fail "unpin when not pinned must raise"
  | exception Invalid_argument _ -> ());
  Store.publish store ~gen:1 1;
  let outer = Store.pin r in
  Store.publish store ~gen:2 2;
  let inner = Store.pin r in
  (* the inner pin may see the newer snapshot; the outer announcement
     still protects the older one *)
  Alcotest.(check int) "outer gen" 1 outer.Store.gen;
  Alcotest.(check int) "inner gen" 2 inner.Store.gen;
  Alcotest.(check bool) "outer still parked" true ((Store.stats store).Store.retired >= 1);
  Store.unpin r;
  Store.unpin r;
  ignore (Store.reclaim store : int);
  Alcotest.(check int) "drained after outermost unpin" 0 (Store.stats store).Store.retired

let test_engine_publish_generations () =
  let fg = healed_engine 3 48 6 in
  let store = Fg.snapshot_store fg in
  let s1 = Fg.publish fg in
  Alcotest.(check int) "store gen = engine gen" (Fg.generation fg) (Store.current_gen store);
  let s2 = Fg.publish fg in
  Alcotest.(check bool) "publish is idempotent within a generation" true (s1 == s2);
  Fg.delete fg (List.hd (Fg.live_nodes fg));
  let s3 = Fg.publish fg in
  Alcotest.(check bool) "new generation, new snapshot" true (not (s1 == s3));
  Alcotest.(check int) "store tracks engine" (Fg.generation fg) (Store.current_gen store);
  (* published pairs are faithful images of their generation *)
  Alcotest.(check bool) "csr = rebuild" true
    (Csr.equal s3.Fg.csr (Csr.of_adjacency (Fg.graph fg)));
  Alcotest.(check bool) "gprime csr = rebuild" true
    (Csr.equal s3.Fg.gprime_csr (Csr.of_adjacency (Fg.gprime fg)))

(* ---- query kernels vs oracles ---- *)

let test_distance_matches_oracle () =
  let fg = healed_engine 11 64 10 in
  let store = Fg.snapshot_store fg in
  ignore (Fg.publish fg : Fg.snapshot);
  let r = Store.reader store in
  let w = Serve.worker () in
  let g = Fg.graph fg in
  let nodes = Array.of_list (Adjacency.nodes (Fg.gprime fg)) in
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let a = Rng.pick_array rng nodes and b = Rng.pick_array rng nodes in
    let expected =
      if Fg.is_alive fg a && Fg.is_alive fg b then Bfs.distance g a b else None
    in
    match (Serve.serve w r (Serve.Distance (a, b))).Serve.answer with
    | Serve.Dist d -> Alcotest.(check (option int)) "distance" expected d
    | _ -> Alcotest.fail "wrong answer constructor"
  done

let test_path_is_shortest_walk () =
  let fg = healed_engine 13 64 10 in
  ignore (Fg.publish fg : Fg.snapshot);
  let r = Store.reader (Fg.snapshot_store fg) in
  let w = Serve.worker () in
  let g = Fg.graph fg in
  let live = Array.of_list (Fg.live_nodes fg) in
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let a = Rng.pick_array rng live and b = Rng.pick_array rng live in
    match (Serve.serve w r (Serve.Path (a, b))).Serve.answer with
    | Serve.Route None ->
      Alcotest.(check (option int)) "unroutable iff disconnected" None (Bfs.distance g a b)
    | Serve.Route (Some walk) ->
      let d = Option.get (Bfs.distance g a b) in
      Alcotest.(check int) "path length = distance" (d + 1) (List.length walk);
      Alcotest.(check (option int)) "starts at a" (Some a) (List.nth_opt walk 0);
      Alcotest.(check (option int)) "ends at b" (Some b) (List.nth_opt walk d);
      List.iteri
        (fun i u ->
          if i < d then
            let v = List.nth walk (i + 1) in
            if not (Adjacency.mem_edge g u v) then
              Alcotest.failf "non-edge %d-%d on served path" u v)
        walk
    | _ -> Alcotest.fail "wrong answer constructor"
  done

let test_degree_and_stretch_checks () =
  let fg = healed_engine 17 96 16 in
  ignore (Fg.publish fg : Fg.snapshot);
  let r = Store.reader (Fg.snapshot_store fg) in
  let w = Serve.worker () in
  let g = Fg.graph fg in
  List.iter
    (fun v ->
      match (Serve.serve w r (Serve.Degree_check v)).Serve.answer with
      | Serve.Degree { degree; bound; ok } ->
        Alcotest.(check int) "degree" (Adjacency.degree g v) degree;
        Alcotest.(check int) "bound" (Fg.degree_bound fg v) bound;
        Alcotest.(check bool) "Theorem 1.1 holds" true ok
      | _ -> Alcotest.fail "wrong answer constructor")
    (Fg.live_nodes fg);
  match (Serve.serve w r (Serve.Stretch_sample { seed = 23; pairs = 8 })).Serve.answer with
  | Serve.Stretch { max_stretch; pairs } ->
    Alcotest.(check bool) "sampled some pairs" true (pairs > 0);
    Alcotest.(check bool) "sampled stretch within Theorem 1.2 bound" true
      (max_stretch <= float_of_int (Fg.stretch_bound fg))
  | _ -> Alcotest.fail "wrong answer constructor"

(* ---- the torture test ----

   Writer (this domain): delete + publish in a tight loop, tabling every
   published Store.snapshot by generation. Readers (pool workers via
   Parallel.submit): pin/query/unpin as fast as possible, logging
   (generation current when the query started, served result). After the
   run, every logged answer is recomputed against the tabled snapshot of
   the generation it claims — it must match exactly, and the claimed
   generation must be ≥ the generation observed at query start. Readers
   acquire no lock anywhere on this path (Snapshot_store.pin/unpin are
   atomics only), so the writer's progress bounds the test's runtime by
   itself — and the writer never waits for readers. *)

type logged = { seen_gen : int; query : Serve.query; got : Serve.result }

let test_torture_concurrent_readers () =
  let fg = healed_engine 29 128 0 in
  let store = Fg.snapshot_store fg in
  ignore (Fg.publish fg : Fg.snapshot);
  let nodes = Array.of_list (Adjacency.nodes (Fg.gprime fg)) in
  let stop = Atomic.make false in
  (* one reader per pool worker: a reader beyond the pool would queue
     behind the others and only run once [stop] is set *)
  let n_readers = Parallel.pool_size () in
  let serving = Atomic.make 0 in
  let logs = Array.make n_readers [] in
  let reader idx () =
    let rng = Rng.create (1000 + idx) in
    let r = Store.reader store in
    let w = Serve.worker () in
    let acc = ref [] in
    while not (Atomic.get stop) do
      let a = Rng.pick_array rng nodes and b = Rng.pick_array rng nodes in
      let query =
        if Rng.bool rng then Serve.Distance (a, b) else Serve.Degree_check a
      in
      let seen_gen = Store.current_gen store in
      let got = Serve.serve w r query in
      if !acc = [] then Atomic.incr serving;
      acc := { seen_gen; query; got } :: !acc
    done;
    logs.(idx) <- !acc
  in
  let tasks = Array.init n_readers (fun i -> Parallel.submit (reader i)) in
  (* writer: one heal + publish per step, tabling each published snapshot *)
  let published = Hashtbl.create 64 in
  let table () =
    match Store.peek store with
    | Some s -> Hashtbl.replace published s.Store.gen s
    | None -> assert false
  in
  table ();
  (* heal only once every reader is answering, so each one overlaps the
     writer instead of racing it to the start *)
  let deadline = Unix.gettimeofday () +. 30. in
  while Atomic.get serving < n_readers do
    if Unix.gettimeofday () > deadline then begin
      Atomic.set stop true;
      Alcotest.failf "only %d of %d readers started serving" (Atomic.get serving) n_readers
    end;
    Domain.cpu_relax ()
  done;
  let rng = Rng.create 31 in
  let steps = ref 0 in
  while !steps < 60 && Fg.num_live fg > 8 do
    Fg.delete fg (Rng.pick rng (Fg.live_nodes fg));
    ignore (Fg.publish fg : Fg.snapshot);
    table ();
    incr steps
  done;
  Atomic.set stop true;
  Array.iter Parallel.await tasks;
  (* verification: every answer is exact for its own published generation *)
  let verifier = Serve.worker () in
  let checked = ref 0 in
  Array.iter
    (List.iter (fun { seen_gen; query; got } ->
         if got.Serve.gen < seen_gen then
           Alcotest.failf "served generation %d older than pin-time generation %d"
             got.Serve.gen seen_gen;
         match Hashtbl.find_opt published got.Serve.gen with
         | None -> Alcotest.failf "served generation %d was never published" got.Serve.gen
         | Some snap ->
           let expect = Serve.answer verifier snap query in
           if expect.Serve.answer <> got.Serve.answer then
             Alcotest.failf "answer at generation %d is not exact" got.Serve.gen;
           incr checked))
    logs;
  Alcotest.(check bool) "concurrent queries were actually served" true (!checked > 0);
  Array.iteri
    (fun i log ->
      if log = [] then Alcotest.failf "reader %d logged no answer" i)
    logs;
  check_conservation store;
  Parallel.shutdown ()

(* ---- load generator ---- *)

let test_loadgen_smoke () =
  let fg = healed_engine 37 96 0 in
  let cfg =
    {
      Loadgen.readers = 2;
      duration = 0.3;
      churn_rate = 100.0;
      mix = Loadgen.default_mix;
      sample_pairs = 2;
      min_live = 16;
      seed = 41;
    }
  in
  let r = Loadgen.run fg cfg in
  Alcotest.(check bool) "served queries" true (r.Loadgen.queries > 0);
  Alcotest.(check bool) "churn ran" true (r.Loadgen.deletes > 0);
  Alcotest.(check int) "per-class counts sum to total" r.Loadgen.queries
    (List.fold_left (fun acc (_, h) -> acc + Fg_obs.Hdr.count h) 0 r.Loadgen.classes);
  Alcotest.(check int) "overall histogram covers every query" r.Loadgen.queries
    (Fg_obs.Hdr.count r.Loadgen.overall);
  Alcotest.(check int) "store published initial + per-delete generations"
    (r.Loadgen.deletes + 1) r.Loadgen.store.Store.published;
  Parallel.shutdown ()

let test_loadgen_mix_parsing () =
  (match Loadgen.mix_of_string "distance=6,path=1,stretch=1,degree=2" with
  | Ok m -> Alcotest.(check int) "four classes" 4 (List.length m)
  | Error e -> Alcotest.failf "default mix must parse: %s" e);
  (match Loadgen.mix_of_string "distance=3" with
  | Ok [ ("distance", 3) ] -> ()
  | _ -> Alcotest.fail "single-class mix");
  (match Loadgen.mix_of_string "teleport=1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown class must be rejected");
  (match Loadgen.mix_of_string "distance" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "weightless entry must be rejected");
  match Loadgen.mix_of_string "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty mix must be rejected"

let suite =
  [
    Alcotest.test_case "store: publish + reclaim accounting" `Quick test_store_publish_reclaim;
    Alcotest.test_case "store: pinned generation survives publishes" `Quick
      test_store_pin_blocks_reclaim;
    Alcotest.test_case "store: pin nesting and error cases" `Quick
      test_store_pin_nesting_and_errors;
    Alcotest.test_case "engine: publish tracks generations" `Quick
      test_engine_publish_generations;
    Alcotest.test_case "serve: distance matches BFS oracle" `Quick test_distance_matches_oracle;
    Alcotest.test_case "serve: paths are shortest valid walks" `Quick test_path_is_shortest_walk;
    Alcotest.test_case "serve: degree + stretch checks" `Quick test_degree_and_stretch_checks;
    Alcotest.test_case "torture: readers exact under concurrent heals" `Quick
      test_torture_concurrent_readers;
    Alcotest.test_case "loadgen: smoke under churn" `Quick test_loadgen_smoke;
    Alcotest.test_case "loadgen: mix parser" `Quick test_loadgen_mix_parsing;
  ]
