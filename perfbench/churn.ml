(* serve-churn: writes beside reads. BA(m=2) graph; set-up heals a
   random quarter of the nodes away and publishes once. Timed phase: the
   main domain deletes uniformly random live nodes on an open-loop
   schedule at a fixed rate and publishes after each deletion, while
   reader domains run the default query mix closed-loop (one outstanding
   query each) on nodes live when timing starts. *)

open Common

let sizes cfg = if cfg.toy then (2048, 0.5) else (16_384, 3.0) (* nodes, timed seconds per pass *)
let rate = 200. (* deletions per second *)
let check_one_in = 32 (* the seeded share of answers re-checked by the oracle *)
let grace_ns = 1_000_000_000 (* how long past the phase a backlog may drain *)

type reader_out = {
  mutable queries : int;
  lat : V.t;  (** ns *)
  ends : V.t;  (** completion, ns *)
  gens : V.t;
  cls : (string * V.t) list;  (** us *)
  mutable trivial : int;
  mutable over_3x : int;
  mutable checked : int;
  mutable bad : int;
  mutable oracle_ns : int;
  mutable wall_ns : int;
}

(* One reader's query stream: the query, and whether the oracle
   re-checks its answer. *)
let next_checked st =
  let q = next_query st in
  (q, Random.State.int st.rng check_one_in = 0)

let reader_loop cfg fg ~stop ~ids ~death ~idx out () =
  let st = stream (Random.State.make [| cfg.seed; 0x5e; idx |]) ids in
  let r = Sut.reader fg and w = Sut.worker () in
  let dead gen v = death.(v) <= gen in
  let t0 = Clock.now_ns () in
  while not (Atomic.get stop) do
    let q, checked = next_checked st in
    Spans.set_event (-2 - out.queries);
    let c0 = Clock.now_ns () in
    let res, lat =
      if checked then begin
        let res, lat, ok = Sut.serve_checked w r ~corrupt:cfg.corrupt q in
        out.checked <- out.checked + 1;
        if not ok then out.bad <- out.bad + 1;
        out.oracle_ns <- out.oracle_ns + (Clock.now_ns () - c0 - lat);
        (res, lat)
      end
      else Sut.serve w r q
    in
    out.queries <- out.queries + 1;
    V.push out.lat (float_of_int lat);
    V.push out.ends (float_of_int (c0 + lat));
    V.push out.gens (float_of_int res.gen);
    V.push (List.assoc (Sut.class_of q) out.cls) (float_of_int lat /. 1e3);
    (match q with
    | Sut.Distance (a, b) | Sut.Path (a, b) ->
      if dead res.gen a || dead res.gen b then out.trivial <- out.trivial + 1
    | Sut.Degree_check v -> if dead res.gen v then out.trivial <- out.trivial + 1
    | Sut.Stretch_sample _ -> ());
    match res.answer with Sut.Degree { ok = false; _ } -> out.over_3x <- out.over_3x + 1 | _ -> ()
  done;
  out.wall_ns <- Clock.now_ns () - t0

(* The writer spins to each due time rather than sleeping: an idle
   virtual CPU can take milliseconds to wake on a busy host, and that
   lateness would be charged to every repair. *)
let wait_until t =
  while Clock.now_ns () < t do
    Domain.cpu_relax ()
  done

let prepare cfg g fg =
  let ids = Sut.nodes g in
  let rng = Random.State.make [| cfg.seed; 0xc4; 1 |] in
  shuffle rng ids;
  let preheal = Array.sub ids 0 (Array.length ids / 4) in
  Array.iter (Sut.delete fg) preheal;
  Sut.publish fg;
  let live = Sut.live_nodes fg in
  let victims = Array.copy live in
  shuffle rng victims;
  (preheal, live, victims)

let pass cfg acc =
  let n, phase_s = sizes cfg in
  let g, fg, (preheal, live, victims) = setup acc ~seed:cfg.seed ~n (prepare cfg) in
  let k_total = min (Array.length victims - 2) (int_of_float (phase_s *. rate)) in
  let g0 = Sut.generation fg in
  let death = Array.make n max_int in
  for k = 0 to k_total - 1 do
    death.(victims.(k)) <- g0 + k + 1
  done;
  let fp =
    let edges, h = graph_fingerprint g in
    let st = stream (Random.State.make [| cfg.seed; 0x5e; 0 |]) live in
    let qs = Array.init 256 (fun _ -> next_checked st) in
    let h = mix_array (mix (mix fnv_init edges) h) preheal in
    let h = mix_array h (Array.sub victims 0 k_total) in
    Array.fold_left (fun h (q, c) -> mix (mix_array h (query_key q)) (Bool.to_int c)) h qs
  in
  Sut.warm_pool ();
  let requested = max 1 (cfg.nproc - 1) in
  let used = max 1 (min requested (Sut.pool_size ())) in
  acc.readers_requested <- requested;
  acc.readers_used <- used;
  let outs =
    Array.init used (fun _ ->
        {
          queries = 0;
          lat = V.create ();
          ends = V.create ();
          gens = V.create ();
          cls = List.map (fun c -> (c, V.create ())) class_names;
          trivial = 0;
          over_3x = 0;
          checked = 0;
          bad = 0;
          oracle_ns = 0;
          wall_ns = 0;
        })
  in
  let stop = Atomic.make false in
  let period = 1e9 /. rate in
  let publish_end = Array.make (k_total + 1) 0 and due = Array.make (k_total + 1) 0 in
  let done_ = ref 0 in
  let busy = Array.make k_total nan and repair = Array.make k_total nan in
  let visible = Array.make k_total nan in
  gc_around acc ~events:k_total (fun () ->
      let tasks =
        Array.mapi
          (fun idx out -> Sut.submit (reader_loop cfg fg ~stop ~ids:live ~death ~idx out))
          outs
      in
      let w = Spans.enter_if "bench.write" in
      let t_start = Clock.now_ns () in
      let deadline = t_start + int_of_float (phase_s *. 1e9) in
      (try
         for k = 1 to k_total do
           due.(k) <- t_start + int_of_float ((float_of_int k -. 0.5) *. period);
           let i = Spans.enter_if "idle.wait" in
           wait_until due.(k);
           Spans.leave_if i;
           let t0 = Clock.now_ns () in
           if t0 > deadline + grace_ns then raise Exit;
           V.push acc.late_ms (Clock.seconds_of_ns (t0 - due.(k)) *. 1e3);
           Spans.set_event k;
           (try
              V.push acc.touched (float_of_int (Sut.delete_touched fg victims.(k - 1)));
              Sut.publish fg
            with ex -> fail (Printf.sprintf "deletion %d raised %s" k (Printexc.to_string ex)));
           attempt ();
           publish_end.(k) <- Clock.now_ns ();
           busy.(k - 1) <- Clock.seconds_of_ns (publish_end.(k) - t0);
           repair.(k - 1) <- float_of_int (publish_end.(k) - due.(k)) /. 1e3;
           done_ := k
         done;
         let i = Spans.enter_if "idle.wait" in
         wait_until deadline;
         Spans.leave_if i
       with Exit -> ());
      Spans.leave_if w;
      Atomic.set stop true;
      Array.iter Sut.await tasks);
  (* open-loop backlog: due deletions never applied *)
  let backlog = k_total - !done_ in
  acc.backlog <- acc.backlog + backlog;
  if backlog > 0 then begin
    attempt ~n:backlog ();
    fail ~n:backlog (Printf.sprintf "%d due deletions unapplied at the end of the phase" backlog)
  end;
  add_pass acc.busy_s busy;
  add_pass acc.repair_us repair;
  (* reader accounting *)
  let answers = ref [] in
  let busy = ref 0 and queries = ref 0 in
  Array.iter
    (fun o ->
      queries := !queries + o.queries;
      busy := !busy + (o.wall_ns - o.oracle_ns);
      acc.answers <- acc.answers + o.queries;
      acc.trivial <- acc.trivial + o.trivial;
      acc.over_3x <- acc.over_3x + o.over_3x;
      attempt ~n:o.queries ();
      if o.bad > 0 then
        fail ~n:o.bad
          (Printf.sprintf "%d of %d checked answers disagree with the oracle" o.bad o.checked);
      let lat = V.to_array o.lat and ends = V.to_array o.ends and gens = V.to_array o.gens in
      Array.iteri
        (fun i l ->
          V.push acc.query_us (l /. 1e3);
          answers := (ends.(i), int_of_float gens.(i)) :: !answers)
        lat;
      List.iter (fun (c, v) -> V.append ~into:(List.assoc c acc.classes) v) o.cls)
    outs;
  V.push acc.qps (float_of_int !queries /. Clock.seconds_of_ns (max 1 (!busy / Array.length outs)));
  let answers = Array.of_list !answers in
  Array.sort compare answers;
  (* visibility: deletion k is visible at the first answer (in completion
     order) at a generation >= g0 + k; generation lag: writer's latest
     published generation at completion minus the answer's *)
  let next = ref 1 and published = ref 0 in
  let seen = Hashtbl.create 1024 in
  Array.iter
    (fun (t_end, gen) ->
      let t_end = int_of_float t_end in
      Hashtbl.replace seen gen ();
      while !next <= !done_ && gen >= g0 + !next do
        visible.(!next - 1) <- Clock.seconds_of_ns (t_end - due.(!next)) *. 1e3;
        incr next
      done;
      while !published < !done_ && publish_end.(!published + 1) <= t_end do
        incr published
      done;
      V.push acc.gen_lag (float_of_int (max 0 (g0 + !published - gen))))
    answers;
  add_pass acc.visible_ms visible;
  acc.published <- acc.published + !done_;
  for k = 1 to !done_ do
    if not (Hashtbl.mem seen (g0 + k)) then acc.unobserved <- acc.unobserved + 1
  done;
  let v = Spans.span "bench.verify" (fun () -> verify cfg acc fg ~burst:0) in
  (fp, v.output)
