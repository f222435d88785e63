(* What every workload shares: the run configuration, failure
   accounting, input fingerprints, per-pass accumulators and the
   end-of-pass verify phase (guarantee audit, query checks, output
   fingerprint). *)

type cfg = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;  (** perturb every oracle comparison (negative test) *)
  toy : bool;  (** tiny sizes, for the benchmark's own tests *)
  nproc : int;
}

(* ---- failure accounting ---- *)

let attempted = ref 0
let failed = ref 0
let notes = ref []

let attempt ?(n = 1) () = attempted := !attempted + n

let fail ?(n = 1) msg =
  failed := !failed + n;
  if List.length !notes < 20 then notes := msg :: !notes

let check ok msg =
  attempt ();
  if not ok then fail msg

(* ---- fingerprints: FNV-1a over ints ---- *)

let fnv_init = 0x4bf29ce484222325
let mix h x = (h lxor x) * 0x100000001b3 land max_int
let mix_array h a = Array.fold_left mix h a

(* (edge count, hash of the sorted edge list) *)
let fingerprint keys = (Array.length keys, mix_array fnv_init keys)
let graph_fingerprint g = fingerprint (Sut.edge_keys g)

(* ---- accumulators: one per mode (untraced / traced passes) ---- *)

module V = Stats.Vec

(* Per-item samples from identical passes: item i is the same event (or
   query) in every pass, so the element-wise median across passes drops
   transient host noise without mixing different work. [nan] marks an
   item a pass did not observe. *)
type items = { mutable per_pass : float array list }

let add_pass it a = it.per_pass <- a :: it.per_pass

let observed l = List.filter (fun x -> not (Float.is_nan x)) l

let item_medians it =
  match it.per_pass with
  | [] -> [||]
  | first :: _ ->
    List.init (Array.length first) (fun i ->
        match observed (List.map (fun a -> a.(i)) it.per_pass) with
        | [] -> nan
        | vs -> Stats.median (Array.of_list vs))
    |> observed
    |> Array.of_list

let sum = Array.fold_left ( +. ) 0.

type acc = {
  mutable passes : int;
  setup_s : V.t;
  generate_s : V.t;
  of_graph_s : V.t;
  prepare_s : V.t;
  busy_s : items;  (** writer busy time per event *)
  repair_us : items;  (** per repair call, due time to usable *)
  visible_ms : items;  (** per repair call, due time to a reader seeing it *)
  audit_s : V.t;
  burst_us : items;  (** per query of the verify burst *)
  qps : V.t;  (** per pass, for the concurrent reader *)
  query_us : V.t;  (** the concurrent reader's queries, pooled *)
  classes : (string * V.t) list;  (** per query class, microseconds *)
  late_ms : V.t;
  touched : V.t;
  gen_lag : V.t;
  mutable events : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable answers : int;
  mutable trivial : int;
  mutable over_3x : int;
  mutable published : int;
  mutable unobserved : int;
  mutable max_lag : int;
  mutable reclaimed : int;
  mutable backlog : int;
  mutable domains_used : int;
  mutable readers_used : int;
  mutable readers_requested : int;
  mutable bfs_sources : int;
}

let class_names = [ "distance"; "path"; "stretch"; "degree" ]

let new_acc () =
  {
    passes = 0;
    setup_s = V.create ();
    generate_s = V.create ();
    of_graph_s = V.create ();
    prepare_s = V.create ();
    busy_s = { per_pass = [] };
    repair_us = { per_pass = [] };
    visible_ms = { per_pass = [] };
    audit_s = V.create ();
    burst_us = { per_pass = [] };
    qps = V.create ();
    query_us = V.create ();
    classes = List.map (fun c -> (c, V.create ())) class_names;
    late_ms = V.create ();
    touched = V.create ();
    gen_lag = V.create ();
    events = 0;
    minor_words = 0.;
    major_collections = 0;
    answers = 0;
    trivial = 0;
    over_3x = 0;
    published = 0;
    unobserved = 0;
    max_lag = 0;
    reclaimed = 0;
    backlog = 0;
    domains_used = 0;
    readers_used = 0;
    readers_requested = 0;
    bfs_sources = 0;
  }

let record_class acc q lat_ns =
  V.push (List.assoc (Sut.class_of q) acc.classes) (float_of_int lat_ns /. 1e3)

(* End-to-end figures over the per-item medians. *)
let events_per_s acc =
  let b = item_medians acc.busy_s in
  float_of_int (Array.length b) /. sum b

let query_latencies acc =
  if acc.burst_us.per_pass <> [] then item_medians acc.burst_us else V.to_array acc.query_us

let qps acc =
  if acc.burst_us.per_pass <> [] then begin
    let l = item_medians acc.burst_us in
    float_of_int (Array.length l) /. (sum l *. 1e-6)
  end
  else Stats.vmedian acc.qps

(* Counts an answer's serve-side verdicts: the paper's factor-3 degree
   check is reported, not failed (the tight factor is 4). *)
let note_answer acc (r : Sut.result) =
  acc.answers <- acc.answers + 1;
  match r.answer with Sut.Degree { ok = false; _ } -> acc.over_3x <- acc.over_3x + 1 | _ -> ()

(* ---- set-up timing ---- *)

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.since_s t0)

(* Set by the pass loop: whether this pass records spans and library
   profiles (set-up itself is never traced), and whether it runs the
   untimed output checks. Passes are identical and their output
   fingerprints are compared, so the first pass checks for all. *)
let tracing_pass = ref false
let checking_pass = ref true

(* generate + of_graph + workload-specific preparation; switches
   tracing on for the rest of a traced pass *)
let setup acc ~seed ~n prepare =
  let g, gen_s = timed (fun () -> Sut.barabasi_albert ~seed ~n ~m:2) in
  let fg, of_s = timed (fun () -> Sut.of_graph g) in
  let x, prep_s = timed (fun () -> prepare g fg) in
  V.push acc.generate_s gen_s;
  V.push acc.of_graph_s of_s;
  V.push acc.prepare_s prep_s;
  V.push acc.setup_s (gen_s +. of_s +. prep_s);
  if !tracing_pass then begin
    Sut.set_recording true;
    Spans.set_enabled true
  end;
  (g, fg, x)

(* ---- write-phase GC accounting ---- *)

let gc_around acc ~events f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  acc.events <- acc.events + events;
  acc.minor_words <- acc.minor_words +. (s1.minor_words -. s0.minor_words);
  acc.major_collections <- acc.major_collections + (s1.major_collections - s0.major_collections);
  r

(* ---- queries ---- *)

let sample_pairs = 4

(* The default serving mix distance=6,path=1,stretch=1,degree=2, as a
   weight-expanded class table. *)
let query_mix =
  Array.concat
    [ Array.make 6 "distance"; Array.make 1 "path"; Array.make 1 "stretch"; Array.make 2 "degree" ]

let make_query rng ids cls =
  let node () = ids.(Random.State.int rng (Array.length ids)) in
  match cls with
  | "distance" ->
    let a = node () in
    Sut.Distance (a, node ())
  | "path" ->
    let a = node () in
    Sut.Path (a, node ())
  | "stretch" -> Sut.Stretch_sample { seed = Random.State.int rng 0x3FFFFFFF; pairs = sample_pairs }
  | _ -> Sut.Degree_check (node ())

let query_key = function
  | Sut.Distance (a, b) -> [| 1; a; b |]
  | Sut.Path (a, b) -> [| 2; a; b |]
  | Sut.Stretch_sample { seed; pairs } -> [| 3; seed; pairs |]
  | Sut.Degree_check v -> [| 4; v |]

(* ---- the verify phase every pass ends with ---- *)

let stretch_sources cfg = if cfg.toy then 16 else 126

type verified = { first_answer_ns : int; output : (int * int) * (int * int) }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A seeded query stream in the default mix's exact proportions: the
   classes are dealt in blocks of one shuffled [query_mix] each, so the
   share of each class does not vary from run to run. *)
type stream = { rng : Random.State.t; ids : int array; block : string array; mutable next : int }

let stream rng ids = { rng; ids; block = Array.copy query_mix; next = Array.length query_mix }

let next_query s =
  if s.next = Array.length s.block then begin
    shuffle s.rng s.block;
    s.next <- 0
  end;
  s.next <- s.next + 1;
  make_query s.rng s.ids s.block.(s.next - 1)

(* A closed-loop burst of [burst] queries on one reader domain, every
   answer checked against the oracle on the checking pass. The burst is
   the same in every pass. Returns the first answer's completion time. *)
let query_burst cfg acc fg ~burst =
  let st = stream (Random.State.make [| cfg.seed; 0xb0; 1 |]) (Sut.live_nodes fg) in
  let qs = Array.init burst (fun _ -> next_query st) in
  let out = Array.make (Array.length qs) None in
  let first = ref 0 in
  let task =
    Sut.submit (fun () ->
        let r = Sut.reader fg and w = Sut.worker () in
        Array.iteri
          (fun i q ->
            let c0 = Clock.now_ns () in
            let res, lat, ok =
              if !checking_pass then Sut.serve_checked w r ~corrupt:cfg.corrupt q
              else
                let res, lat = Sut.serve w r q in
                (res, lat, true)
            in
            if i = 0 then first := c0 + lat;
            out.(i) <- Some (res, lat, ok))
          qs)
  in
  Spans.span "idle.wait" (fun () -> Sut.await task);
  acc.readers_requested <- 1;
  acc.readers_used <- 1;
  let lats =
    Array.mapi
      (fun i o ->
        (* [await] re-raises a failed task, so every answer is here *)
        let res, lat, ok = Option.get o in
        record_class acc qs.(i) lat;
        note_answer acc res;
        if !checking_pass then
          check ok
            (Printf.sprintf "query %d (%s) disagrees with the oracle" i (Sut.class_of qs.(i)));
        float_of_int lat /. 1e3)
      out
  in
  add_pass acc.burst_us lats;
  !first

(* Publish, (optionally) serve a checked query burst, then audit the
   guarantees: degree <= 4 deg', connectivity, sampled stretch <=
   ceil(log2 n). [audit_s] is publish + degree check + sampled stretch. *)
let verify cfg acc fg ~burst =
  (* settle the timed phase's garbage first, so [audit_s] times the audit
     and not the collection of the write phase's debris *)
  Gc.full_major ();
  let (), t_pub = timed (fun () -> Sut.publish fg) in
  let first =
    if burst > 0 then begin
      (* every answer of the burst is at the one generation just published *)
      acc.published <- acc.published + 1;
      query_burst cfg acc fg ~burst
    end
    else 0
  in
  let dv, t_deg = timed (fun () -> Sut.degree_violations fg) in
  check (dv = 0) (Printf.sprintf "%d nodes exceed 4x their G' degree" dv);
  let k = stretch_sources cfg in
  let sr, t_str =
    timed (fun () -> Sut.stretch_sampled fg ~seed:(cfg.seed + 17) ~k ~domains:cfg.nproc)
  in
  let bound = Sut.stretch_bound fg in
  check (sr.max_stretch <= float_of_int bound)
    (Printf.sprintf "sampled stretch %.3f > ceil(log2 n) = %d" sr.max_stretch bound);
  check (sr.disconnected = 0) (Printf.sprintf "%d sampled pairs disconnected in G" sr.disconnected);
  acc.bfs_sources <- acc.bfs_sources + k;
  acc.domains_used <- min (Sut.resolve_domains cfg.nproc) ((k + 62) / 63);
  V.push acc.audit_s (t_pub +. t_deg +. t_str);
  if !checking_pass then begin
    let cv = Sut.connectivity_violations fg in
    check (cv = 0) (Printf.sprintf "%d connectivity violations" cv)
  end;
  let st = Sut.store_stats fg in
  acc.max_lag <- max acc.max_lag st.max_lag;
  acc.reclaimed <- acc.reclaimed + st.reclaimed;
    let output =
    Spans.span "bench.fingerprint" (fun () ->
        let ge, gpe = Sut.healed_edge_keys fg in
        (fingerprint ge, fingerprint gpe))
  in
  { first_answer_ns = first; output }
