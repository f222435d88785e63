module Node_id = Fg_graph.Node_id
module Csr = Fg_graph.Csr
module Bfs_kernel = Fg_graph.Bfs_kernel
module Interval_map = Fg_graph.Interval_map
module Parallel = Fg_graph.Parallel

type report = {
  max_stretch : float;
  witness : (Node_id.t * Node_id.t) option;
  mean_stretch : float;
  pairs : int;
  disconnected : int;
}

(* ---- CSR fast path ----

   One snapshot per (graph, reference) pair, then batched multi-source
   BFS sweeps ({!Bfs_kernel.ms_run}): up to [Bfs_kernel.word_bits]
   sources share each pass over the off-heap rows, so the row data is
   streamed once per level per batch instead of once per source. Batch
   boundaries depend only on the source list; each source produces an
   independent [partial] and partials are merged strictly in source
   order, so the report is byte-identical for every domain count. *)

type snapshot = {
  g : Csr.t;
  r : Csr.t;
  r_comp : int Interval_map.t; (* reference component labels, run-length
                                  compressed, for the no-BFS fallback *)
  build_ms : float;
}

type partial = {
  p_max : float;
  p_wit : (Node_id.t * Node_id.t) option;
  p_sum : float;
  p_pairs : int;
  p_disc : int;
  p_runs : int; (* BFS kernel invocations charged to this source *)
}

let zero_partial =
  { p_max = 0.; p_wit = None; p_sum = 0.; p_pairs = 0; p_disc = 0; p_runs = 0 }

let snapshot ?graph_csr ?reference_csr ~graph ~reference () =
  let t0 = Fg_obs.Trace.wall_clock () in
  let g = match graph_csr with Some c -> c | None -> Csr.of_adjacency graph in
  let r =
    match reference_csr with Some c -> c | None -> Csr.of_adjacency reference
  in
  let r_comp, _ = Csr.component_map r in
  let build_ms = (Fg_obs.Trace.wall_clock () -. t0) *. 1000. in
  { g; r; r_comp; build_ms }

let dense_of snap t_id =
  let t_g =
    Array.map (fun v -> match Csr.index snap.g v with Some i -> i | None -> -1) t_id
  in
  let t_r =
    Array.map (fun v -> match Csr.index snap.r v with Some i -> i | None -> -1) t_id
  in
  (t_g, t_r)

(* Semantics of the original hashtable path, per target y:
   - y reachable from x in both graphs (and y <> x): a measured pair;
   - y reachable in reference only: a disconnected pair;
   - otherwise: ignored. *)

(* Per-source classification: dense indices in both snapshots and the
   graph-side degree. A source runs BFS iff it exists in the reference
   (otherwise nothing can be counted) and has a live neighbor in the
   graph (otherwise its broken pairs are read off component labels). *)
let classify snap sources =
  let n = Array.length sources in
  let src_g = Array.make (max 1 n) (-1) in
  let src_r = Array.make (max 1 n) (-1) in
  let g_deg = Array.make (max 1 n) 0 in
  for i = 0 to n - 1 do
    (match Csr.index snap.g sources.(i) with
    | Some gi ->
      src_g.(i) <- gi;
      g_deg.(i) <- Csr.degree snap.g gi
    | None -> ());
    match Csr.index snap.r sources.(i) with
    | Some ri -> src_r.(i) <- ri
    | None -> ()
  done;
  (src_g, src_r, g_deg)

let[@inline] needs_bfs src_r g_deg i = src_r.(i) >= 0 && g_deg.(i) > 0

(* Contiguous batches, each holding at most [word_bits] BFS-needing
   sources (fallback-only sources ride along for free). Boundaries are a
   pure function of the source list — never of [?domains] — so the
   partial stream, and hence the report, is stable across domain
   counts. *)
let make_batches src_r g_deg n =
  let cuts = ref [] and lo = ref 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if needs_bfs src_r g_deg i then begin
      if !k = Bfs_kernel.word_bits then begin
        cuts := (!lo, i) :: !cuts;
        lo := i;
        k := 0
      end;
      incr k
    end
  done;
  if !lo < n then cuts := (!lo, n) :: !cuts;
  Array.of_list (List.rev !cuts)

(* no-BFS fallback: source disconnected in [graph], so every
   reference-connected target is a broken pair *)
let eval_disconnected snap ~t_r ~from ~ntargets xr =
  let cx = Interval_map.get snap.r_comp xr in
  let disc = ref 0 in
  for j = from to ntargets - 1 do
    let tr = t_r.(j) in
    if tr >= 0 && tr <> xr && Interval_map.get snap.r_comp tr = cx then
      incr disc
  done;
  { zero_partial with p_disc = !disc }

(* Per-worker batch state: the two sweep scratches, the slot -> dense
   source buffers, and per-slot accumulators for the target scan. *)
type batch_scratch = {
  msg : Bfs_kernel.ms; (* graph-side sweep *)
  msr : Bfs_kernel.ms; (* reference-side sweep *)
  bufg : int array; (* slot -> graph dense source *)
  bufr : int array; (* slot -> reference dense source *)
  fromv : int array; (* slot -> first target index ([from_of]) *)
  ssum : float array;
  smax : float array;
  switj : int array; (* witness target index, -1 = none *)
  spairs : int array;
  sdisc : int array;
}

let batch_scratch () =
  let w = Bfs_kernel.word_bits in
  {
    msg = Bfs_kernel.ms_create ();
    msr = Bfs_kernel.ms_create ();
    bufg = Array.make w 0;
    bufr = Array.make w 0;
    fromv = Array.make w 0;
    ssum = Array.make w 0.;
    smax = Array.make w 0.;
    switj = Array.make w (-1);
    spairs = Array.make w 0;
    sdisc = Array.make w 0;
  }

(* One batch: two ms-BFS sweeps (graph + reference), then one scan over
   the targets with the slot loop innermost. Target-major order makes
   the distance reads sequential (the matrices are node-major) and lets
   one {!Bfs_kernel.ms_reached} word answer "which sources reached this
   target" for the whole batch. Per slot the targets still arrive in
   ascending [j], so each source's float sum and witness are exactly
   those of the per-source loop — the reports stay byte-identical.
   Runs on [Parallel] pool domains; the sharded histograms behind
   [Profile.stamp] make the stamps contention-free. *)
let eval_batch snap sc ~sources ~src_g ~src_r ~g_deg ~t_id ~t_g ~t_r
    ~from_of ~lo ~hi =
  let len = ref 0 in
  for i = lo to hi - 1 do
    if needs_bfs src_r g_deg i then begin
      sc.bufg.(!len) <- src_g.(i);
      sc.bufr.(!len) <- src_r.(i);
      sc.fromv.(!len) <- from_of i;
      incr len
    end
  done;
  let len = !len in
  let ntargets = Array.length t_id in
  if len > 0 then begin
    let t_bfs_g = Fg_obs.Profile.start () in
    Bfs_kernel.ms_run snap.g sc.msg ~sources:sc.bufg ~off:0 ~len;
    Fg_obs.Profile.stamp Fg_obs.Profile.Bfs t_bfs_g;
    let t_bfs_r = Fg_obs.Profile.start () in
    Bfs_kernel.ms_run snap.r sc.msr ~sources:sc.bufr ~off:0 ~len;
    Fg_obs.Profile.stamp Fg_obs.Profile.Bfs t_bfs_r;
    Array.fill sc.ssum 0 len 0.;
    Array.fill sc.smax 0 len 0.;
    Array.fill sc.switj 0 len (-1);
    Array.fill sc.spairs 0 len 0;
    Array.fill sc.sdisc 0 len 0;
    let msg = sc.msg and msr = sc.msr and fromv = sc.fromv in
    (* [fromv] ascends in slot order (batch sources ascend and [from_of]
       is monotone), so "slots whose target range has started" is a
       prefix mask that only grows with [j]. *)
    let allow = ref 0 and kp = ref 0 in
    for j = fromv.(0) to ntargets - 1 do
      while !kp < len && fromv.(!kp) <= j do
        allow := !allow lor (1 lsl !kp);
        incr kp
      done;
      let tr = t_r.(j) in
      if tr >= 0 then begin
        let rw = Bfs_kernel.ms_reached msr ~v:tr land !allow in
        if rw <> 0 then begin
          let tg = t_g.(j) in
          let gw = if tg >= 0 then Bfs_kernel.ms_reached msg ~v:tg else 0 in
          let w = ref rw in
          while !w <> 0 do
            let b = !w land - !w in
            w := !w land (!w - 1);
            let k = Bfs_kernel.ctz_pow2 b in
            let d' = Bfs_kernel.ms_dist_raw msr ~slot:k ~v:tr in
            (* d' = 0 iff target = source: never counted *)
            if d' > 0 then
              if gw land b <> 0 then begin
                let d = Bfs_kernel.ms_dist_raw msg ~slot:k ~v:tg in
                let s = float_of_int d /. float_of_int d' in
                sc.spairs.(k) <- sc.spairs.(k) + 1;
                sc.ssum.(k) <- sc.ssum.(k) +. s;
                if s > sc.smax.(k) then begin
                  sc.smax.(k) <- s;
                  sc.switj.(k) <- j
                end
              end
              else sc.sdisc.(k) <- sc.sdisc.(k) + 1
          done
        end
      end
    done
  end;
  let parts = Array.make (hi - lo) zero_partial in
  let slot = ref 0 in
  for i = lo to hi - 1 do
    let xr = src_r.(i) in
    if xr < 0 then () (* no reference distances: nothing can be counted *)
    else if g_deg.(i) = 0 then
      parts.(i - lo) <- eval_disconnected snap ~t_r ~from:(from_of i) ~ntargets xr
    else begin
      let k = !slot in
      incr slot;
      parts.(i - lo) <-
        {
          p_max = sc.smax.(k);
          p_wit =
            (if sc.switj.(k) < 0 then None
             else Some (sources.(i), t_id.(sc.switj.(k))));
          p_sum = sc.ssum.(k);
          p_pairs = sc.spairs.(k);
          p_disc = sc.sdisc.(k);
          (* the batch's two sweeps are charged to its first BFS source *)
          p_runs = (if k = 0 then 2 else 0);
        }
    end
  done;
  parts

(* Merge in source order: float sums and the strict-> max/witness rule see
   sources exactly as the serial loop would. *)
let merge parts =
  let max_s = ref 0. and wit = ref None and sum = ref 0. in
  let pairs = ref 0 and disc = ref 0 and runs = ref 0 in
  Array.iter
    (fun p ->
      if p.p_max > !max_s then begin
        max_s := p.p_max;
        wit := p.p_wit
      end;
      sum := !sum +. p.p_sum;
      pairs := !pairs + p.p_pairs;
      disc := !disc + p.p_disc;
      runs := !runs + p.p_runs)
    parts;
  ( {
      max_stretch = !max_s;
      witness = !wit;
      mean_stretch = (if !pairs = 0 then 0. else !sum /. float_of_int !pairs);
      pairs = !pairs;
      disconnected = !disc;
    },
    !runs )

let run_kernel ?domains ?graph_csr ?reference_csr ~graph ~reference ~sources
    ~t_id ~from_of () =
  Fg_obs.Trace.with_span "metrics.stretch" @@ fun sp ->
  let snap = snapshot ?graph_csr ?reference_csr ~graph ~reference () in
  let t_g, t_r = dense_of snap t_id in
  let src_g, src_r, g_deg = classify snap sources in
  let batches = make_batches src_r g_deg (Array.length sources) in
  let domains = Parallel.resolve domains in
  let batch_parts =
    Parallel.map ~domains
      ~init:(fun () -> batch_scratch ())
      ~f:(fun sc b ->
        let lo, hi = batches.(b) in
        eval_batch snap sc ~sources ~src_g ~src_r ~g_deg ~t_id ~t_g ~t_r
          ~from_of ~lo ~hi)
      (Array.length batches)
  in
  let parts = Array.concat (Array.to_list batch_parts) in
  let report, runs = merge parts in
  if Fg_obs.Trace.enabled () then begin
    Fg_obs.Trace.attr sp "csr_build_ms" (Fg_obs.Event.Float snap.build_ms);
    Fg_obs.Trace.attr sp "bfs_sources" (Fg_obs.Event.Int (Array.length sources));
    Fg_obs.Trace.attr sp "bfs_batches" (Fg_obs.Event.Int (Array.length batches));
    Fg_obs.Trace.attr sp "domains" (Fg_obs.Event.Int domains);
    Fg_obs.Trace.count_span sp "metrics.bfs_runs" runs
  end;
  if Fg_obs.Metrics.is_recording () then
    Fg_obs.Metrics.incr ~n:runs "metrics.bfs_runs";
  report

let measure ?domains ?graph_csr ?reference_csr ~graph ~reference ~sources targets =
  let t_id = Array.of_list targets in
  let sources = Array.of_list sources in
  run_kernel ?domains ?graph_csr ?reference_csr ~graph ~reference ~sources ~t_id
    ~from_of:(fun _ -> 0) ()

let exact ?domains ?graph_csr ?reference_csr ~graph ~reference nodes =
  let t_id = Array.of_list (List.sort Node_id.compare nodes) in
  (* avoid double-counting: source x only measures targets y > x *)
  run_kernel ?domains ?graph_csr ?reference_csr ~graph ~reference ~sources:t_id
    ~t_id ~from_of:(fun i -> i + 1) ()

let sampled ?domains ?graph_csr ?reference_csr rng ~k ~graph ~reference nodes =
  let t_id = Array.of_list (List.sort Node_id.compare nodes) in
  let sources = Fg_graph.Rng.sample rng k t_id in
  run_kernel ?domains ?graph_csr ?reference_csr ~graph ~reference ~sources ~t_id
    ~from_of:(fun _ -> 0) ()

(* ---- per-source sweep kernel (the pre-batching fast path) ----

   One [Csr.bfs] pair per source. Kept callable as [exact_sweep]: it is
   the baseline the bench suite measures the ms-BFS amortization against,
   and a second oracle for the batched path (reports agree exactly —
   same partial stream, same merge). *)

let eval_source snap (gs, rs) ~t_id ~t_g ~t_r ~from x_id =
  match Csr.index snap.r x_id with
  | None -> zero_partial
  | Some xr ->
    let g_deg =
      match Csr.index snap.g x_id with
      | None -> 0
      | Some gi -> Csr.degree snap.g gi
    in
    if g_deg = 0 then
      eval_disconnected snap ~t_r ~from ~ntargets:(Array.length t_id) xr
    else begin
      let gi = match Csr.index snap.g x_id with Some i -> i | None -> assert false in
      let t_bfs_g = Fg_obs.Profile.start () in
      let dg = Csr.bfs snap.g gs gi in
      Fg_obs.Profile.stamp Fg_obs.Profile.Bfs t_bfs_g;
      let t_bfs_r = Fg_obs.Profile.start () in
      let dr = Csr.bfs snap.r rs xr in
      Fg_obs.Profile.stamp Fg_obs.Profile.Bfs t_bfs_r;
      let max_s = ref 0. and wit = ref None and sum = ref 0. in
      let pairs = ref 0 and disc = ref 0 in
      for j = from to Array.length t_id - 1 do
        let tr = t_r.(j) in
        let d' = if tr >= 0 then dr.(tr) else -1 in
        if d' > 0 then begin
          let tg = t_g.(j) in
          let d = if tg >= 0 then dg.(tg) else -1 in
          if d >= 0 then begin
            let s = float_of_int d /. float_of_int d' in
            incr pairs;
            sum := !sum +. s;
            if s > !max_s then begin
              max_s := s;
              wit := Some (x_id, t_id.(j))
            end
          end
          else incr disc
        end
      done;
      {
        p_max = !max_s;
        p_wit = !wit;
        p_sum = !sum;
        p_pairs = !pairs;
        p_disc = !disc;
        p_runs = 2;
      }
    end

let run_kernel_sweep ?domains ?graph_csr ?reference_csr ~graph ~reference
    ~sources ~t_id ~from_of () =
  Fg_obs.Trace.with_span "metrics.stretch" @@ fun sp ->
  let snap = snapshot ?graph_csr ?reference_csr ~graph ~reference () in
  let t_g, t_r = dense_of snap t_id in
  let domains = Parallel.resolve domains in
  let parts =
    Parallel.map ~domains
      ~init:(fun () -> (Csr.scratch snap.g, Csr.scratch snap.r))
      ~f:(fun scratch i ->
        eval_source snap scratch ~t_id ~t_g ~t_r ~from:(from_of i) sources.(i))
      (Array.length sources)
  in
  let report, runs = merge parts in
  if Fg_obs.Trace.enabled () then begin
    Fg_obs.Trace.attr sp "csr_build_ms" (Fg_obs.Event.Float snap.build_ms);
    Fg_obs.Trace.attr sp "bfs_sources" (Fg_obs.Event.Int (Array.length sources));
    Fg_obs.Trace.attr sp "domains" (Fg_obs.Event.Int domains);
    Fg_obs.Trace.count_span sp "metrics.bfs_runs" runs
  end;
  if Fg_obs.Metrics.is_recording () then
    Fg_obs.Metrics.incr ~n:runs "metrics.bfs_runs";
  report

let exact_sweep ?domains ?graph_csr ?reference_csr ~graph ~reference nodes =
  let t_id = Array.of_list (List.sort Node_id.compare nodes) in
  run_kernel_sweep ?domains ?graph_csr ?reference_csr ~graph ~reference
    ~sources:t_id ~t_id ~from_of:(fun i -> i + 1) ()

let pp_report ppf r =
  let pp_wit ppf = function
    | None -> Format.fprintf ppf "-"
    | Some (x, y) -> Format.fprintf ppf "(%a,%a)" Node_id.pp x Node_id.pp y
  in
  Format.fprintf ppf "max %.2f at %a, mean %.3f over %d pairs, %d disconnected"
    r.max_stretch pp_wit r.witness r.mean_stretch r.pairs r.disconnected
