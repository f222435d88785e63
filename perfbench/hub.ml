(* attack-hub: the write path alone, one event per round. BA(m=2)
   graph; deletions in descending initial G'-degree order (the Theorem 2
   hub attack, generalised); after every 4th deletion one insertion
   attaches a fresh node to 3 live nodes. Nothing is published until the
   pass's verify phase. *)

open Common

type event = Del of int | Ins of int * int list

let sizes cfg = if cfg.toy then (3000, 300) else (100_000, 8_000)

(* The event schedule is a pure function of (graph, seed): the live set
   is simulated here so insertion targets are live when they are due. *)
let schedule cfg g ~deletions =
  let ids = Sut.nodes g in
  let order = Array.copy ids in
  Array.stable_sort (fun a b -> compare (Sut.degree g b) (Sut.degree g a)) order;
  let n = Array.length ids in
  let live = Array.make (n + deletions) 0 and pos = Hashtbl.create n in
  Array.iteri
    (fun i v ->
      live.(i) <- v;
      Hashtbl.replace pos v i)
    ids;
  let len = ref n and fresh = ref (ids.(n - 1) + 1) in
  let remove v =
    let i = Hashtbl.find pos v in
    let last = live.(!len - 1) in
    live.(i) <- last;
    Hashtbl.replace pos last i;
    Hashtbl.remove pos v;
    decr len
  in
  let rng = Random.State.make [| cfg.seed; 0x4b; 1 |] in
  let events = ref [] in
  for k = 0 to deletions - 1 do
    let v = order.(k) in
    remove v;
    events := Del v :: !events;
    if k mod 4 = 3 then begin
      let rec pick acc =
        if List.length acc = 3 then acc
        else
          let u = live.(Random.State.int rng !len) in
          pick (if List.mem u acc then acc else u :: acc)
      in
      let nbrs = pick [] in
      let v = !fresh in
      incr fresh;
      live.(!len) <- v;
      Hashtbl.replace pos v !len;
      incr len;
      events := Ins (v, nbrs) :: !events
    end
  done;
  Array.of_list (List.rev !events)

let input_fingerprint g events =
  let edges, h = graph_fingerprint g in
  Array.fold_left
    (fun h e ->
      match e with
      | Del v -> mix (mix h 1) v
      | Ins (v, ns) -> List.fold_left mix (mix (mix h 2) v) ns)
    (mix (mix fnv_init edges) h) events

let pass cfg acc =
  let n, deletions = sizes cfg in
  let g, fg, events = setup acc ~seed:cfg.seed ~n (fun g _ -> schedule cfg g ~deletions) in
  let busy = Array.make (Array.length events) nan in
  let repair = Array.make deletions nan and starts = Array.make deletions 0 in
  let nd = ref 0 in
  gc_around acc ~events:(Array.length events) (fun () ->
      let w = Spans.enter_if "bench.write" in
      let prev = ref (Clock.now_ns ()) in
      Array.iteri
        (fun i e ->
          Spans.set_event i;
          let t0 = Clock.now_ns () in
          V.push acc.late_ms (Clock.seconds_of_ns (t0 - !prev) *. 1e3);
          (try
             match e with
             | Del v ->
               Sut.delete fg v;
               repair.(!nd) <- float_of_int (Clock.now_ns () - t0) /. 1e3;
               starts.(!nd) <- t0;
               incr nd
             | Ins (v, nbrs) -> Sut.insert fg v nbrs
           with ex -> fail (Printf.sprintf "event %d raised %s" i (Printexc.to_string ex)));
          attempt ();
          prev := Clock.now_ns ();
          busy.(i) <- Clock.seconds_of_ns (!prev - t0))
        events;
      Spans.leave_if w);
  let v = Spans.span "bench.verify" (fun () -> verify cfg acc fg ~burst:20) in
  add_pass acc.busy_s busy;
  add_pass acc.repair_us repair;
  add_pass acc.visible_ms
    (Array.init !nd (fun k -> Clock.seconds_of_ns (v.first_answer_ns - starts.(k)) *. 1e3));
  (input_fingerprint g events, v.output)
