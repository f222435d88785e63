module Adj = Fg_graph.Adjacency
module Csr = Fg_graph.Csr
module Bfs = Fg_graph.Bfs_kernel
module Rng = Fg_graph.Rng
module Store = Fg_graph.Snapshot_store
module Parallel = Fg_graph.Parallel
module Fg = Fg_core.Forgiving_graph
module Serve = Fg_serve.Serve
module Hdr = Fg_obs.Hdr

let span = Spans.span

(* ---- graphs ---- *)

type graph = Adj.t

let barabasi_albert ~seed ~n ~m = Fg_graph.Generators.barabasi_albert (Rng.create seed) n m

let nodes g =
  let a = Array.of_list (Adj.nodes g) in
  Array.sort Int.compare a;
  a

let degree = Adj.degree

let edge_keys g =
  let a = Array.make (Adj.num_edges g) 0 and i = ref 0 in
  Adj.iter_edges
    (fun u v ->
      a.(!i) <- (min u v lsl 31) lor max u v;
      incr i)
    g;
  Array.sort Int.compare a;
  a

(* ---- the engine ---- *)

type t = Fg.t

let gen_span name fg f =
  if not (Spans.enabled ()) then f ()
  else begin
    let i = Spans.enter name in
    match f () with
    | r ->
      Spans.leave ~gen:(Fg.generation fg) i;
      r
    | exception e ->
      Spans.leave i;
      raise e
  end

let of_graph g = Fg.of_graph g
let delete fg v = gen_span "core.delete" fg (fun () -> Fg.delete fg v)

let delete_touched fg v =
  gen_span "core.delete" fg (fun () ->
      let d, _ = Fg.delete_delta fg v in
      List.length (Fg_core.Delta.touched d))

let insert fg v nbrs = gen_span "core.insert" fg (fun () -> Fg.insert fg v nbrs)
let delete_batch fg vs = gen_span "core.delete_batch" fg (fun () -> Fg.delete_batch fg vs)
let publish fg = gen_span "snapshot.publish" fg (fun () -> ignore (Fg.publish fg : Fg.snapshot))
let generation = Fg.generation

let live_nodes fg =
  let a = Array.of_list (Fg.live_nodes fg) in
  Array.sort Int.compare a;
  a

let stretch_bound = Fg.stretch_bound
let healed_edge_keys fg = (edge_keys (Fg.graph fg), edge_keys (Fg.gprime fg))

type store_stats = { reclaimed : int; max_lag : int }

let store_stats fg =
  let s = Store.stats (Fg.snapshot_store fg) in
  { reclaimed = s.reclaimed; max_lag = s.max_lag }

(* ---- guarantee checks ---- *)

let degree_violations fg =
  span "invariants.degree" (fun () -> List.length (Fg_core.Invariants.check_degree_bound fg))

let connectivity_violations fg =
  span "invariants.connectivity" (fun () ->
      List.length (Fg_core.Invariants.check_connectivity fg))

type stretch_report = { max_stretch : float; disconnected : int }

let stretch_sampled fg ~seed ~k ~domains =
  let snap = Fg.publish fg in
  span "stretch.sampled" (fun () ->
      let r =
        Fg_metrics.Stretch.sampled ~domains ~graph_csr:snap.csr ~reference_csr:snap.gprime_csr
          (Rng.create seed) ~k ~graph:(Fg.graph fg) ~reference:(Fg.gprime fg) (Fg.live_nodes fg)
      in
      { max_stretch = r.Fg_metrics.Stretch.max_stretch; disconnected = r.disconnected })

(* ---- serving ---- *)

type query = Serve.query =
  | Distance of int * int
  | Path of int * int
  | Stretch_sample of { seed : int; pairs : int }
  | Degree_check of int

type answer = Serve.answer =
  | Dist of int option
  | Route of int list option
  | Stretch of { max_stretch : float; pairs : int }
  | Degree of { degree : int; bound : int; ok : bool }

type result = Serve.result = { gen : int; answer : answer }

let class_of = Serve.class_of

type reader = Fg.snapshot Store.reader

let reader fg = Store.reader (Fg.snapshot_store fg)

(* Oracle scratch is cached per CSR by physical identity, like the
   serving worker's own. *)
type oracle_scratch = { key : Csr.t; bfs : Bfs.scratch }

type worker = {
  serve : Serve.worker;
  hist : Hdr.t;
  mutable og : oracle_scratch option; (* G-side oracle scratch *)
  mutable ogp : oracle_scratch option; (* G'-side oracle scratch *)
}

let worker () = { serve = Serve.worker (); hist = Hdr.create (); og = None; ogp = None }

let span_name = function
  | Distance _ -> "serve.distance"
  | Path _ -> "serve.path"
  | Stretch_sample _ -> "serve.stretch"
  | Degree_check _ -> "serve.degree"

let traced_query q f =
  if not (Spans.enabled ()) then f ()
  else begin
    let i = Spans.enter (span_name q) in
    let r = f () in
    Spans.leave ~gen:r.gen i;
    r
  end

let serve w r q =
  let t0 = Clock.now_ns () in
  let res = traced_query q (fun () -> Serve.serve_timed w.serve r w.hist q) in
  (res, Clock.now_ns () - t0)

let scratch_for slot set csr =
  match slot with
  | Some s when s.key == csr -> s.bfs
  | _ ->
    let b = Bfs.create csr in
    set { key = csr; bfs = b };
    b

(* Distance by direction-optimising BFS (not the [Csr.bfs] kernel the
   query path uses); [None] when an endpoint is absent or unreachable. *)
let oracle_dist w g a b =
  match (Csr.index g a, Csr.index g b) with
  | Some ia, Some ib ->
    let d = Bfs.bfs g (scratch_for w.og (fun s -> w.og <- Some s) g) ia in
    if d.(ib) < 0 then None else Some d.(ib)
  | _ -> None

let row_has g i j =
  let found = ref false in
  Csr.iter_row (fun k -> if k = j then found := true) g i;
  !found

let row_len g v =
  match Csr.index g v with
  | None -> 0
  | Some i ->
    let c = ref 0 in
    Csr.iter_row (fun _ -> incr c) g i;
    !c

let check w (snap : Fg.snapshot) ~corrupt q answer =
  let skew = if corrupt then 1 else 0 in
  let g = snap.csr and gp = snap.gprime_csr in
  match (q, answer) with
  | Distance (a, b), Dist d ->
    d = Option.map (fun x -> x + skew) (oracle_dist w g a b)
  | Path (a, b), Route p -> (
    match (oracle_dist w g a b, p) with
    | None, None -> not corrupt
    | Some d, Some (first :: _ as p) ->
      let rec adjacent = function
        | x :: (y :: _ as rest) -> (
          match (Csr.index g x, Csr.index g y) with
          | Some i, Some j -> row_has g i j && adjacent rest
          | _ -> false)
        | _ -> true
      in
      first = a && List.nth p (List.length p - 1) = b && List.length p - 1 = d + skew && adjacent p
    | _ -> false)
  | Degree_check v, Degree { degree; bound; ok } ->
    let d = row_len g v + skew and dp = row_len gp v in
    degree = d && bound = 3 * dp && ok = (d <= 3 * dp) && (Csr.index g v = None || d <= 4 * dp)
  | Stretch_sample { seed; pairs }, Stretch { max_stretch; pairs = counted } ->
    let n = Csr.num_nodes g in
    if n = 0 || pairs <= 0 then counted = skew && max_stretch = 0.
    else begin
      let rng = Rng.create seed in
      let sg = scratch_for w.og (fun s -> w.og <- Some s) g in
      let sgp = scratch_for w.ogp (fun s -> w.ogp <- Some s) gp in
      let best = ref 0. and count = ref skew in
      for _ = 1 to pairs do
        let src = Rng.int rng n in
        match Csr.index gp (Csr.id g src) with
        | None -> ()
        | Some src_gp ->
          let dg = Bfs.bfs g sg src in
          let dgp = Bfs.bfs gp sgp src_gp in
          for j = 0 to n - 1 do
            if j <> src && dg.(j) > 0 then
              match Csr.index gp (Csr.id g j) with
              | Some jp when dgp.(jp) > 0 ->
                incr count;
                best := Float.max !best (float_of_int dg.(j) /. float_of_int dgp.(jp))
              | _ -> ()
          done
      done;
      let seen = Csr.num_nodes gp in
      let bound = if seen < 2 then 0. else Float.ceil (Float.log2 (float_of_int seen)) in
      counted = !count && max_stretch = !best && max_stretch <= bound
    end
  | _ -> false

let serve_checked w r ~corrupt q =
  Store.with_pin r (fun s ->
      let t0 = Clock.now_ns () in
      let res = traced_query q (fun () -> Serve.answer w.serve s q) in
      let dt = Clock.now_ns () - t0 in
      let ok = span "bench.oracle" (fun () -> check w s.Store.value ~corrupt q res.answer) in
      (res, dt, ok))

(* ---- domains ---- *)

let pool_size = Parallel.pool_size
let resolve_domains d = Parallel.resolve (Some d)
let warm_pool = Parallel.warm

type task = Parallel.task

let submit = Parallel.submit
let await = Parallel.await

(* ---- library telemetry ---- *)

let set_recording = Fg_obs.Metrics.set_recording

let profile_sums () =
  List.map
    (fun p -> (Fg_obs.Profile.name_of p, Hdr.sum (Hdr.merged (Fg_obs.Profile.hdr_of p))))
    Fg_obs.Profile.all_phases

let profile_reset () =
  List.iter (fun p -> Hdr.clear_sharded (Fg_obs.Profile.hdr_of p)) Fg_obs.Profile.all_phases
