(* attack-audit: the [fg attack]/[fg stretch] pipeline. BA(m=2) graph;
   random victims deleted in rounds of 64 through [delete_batch] until
   an eighth of the nodes is gone, then the guarantee audit: one
   publish, the 4 deg' degree check and sampled stretch on the published
   snapshots across all domains. No per-event publish. *)

open Common

let round_size = 64
let size cfg = if cfg.toy then 3000 else 100_000

let rounds cfg g =
  let ids = Sut.nodes g in
  shuffle (Random.State.make [| cfg.seed; 0xa7; 1 |]) ids;
  let victims = Array.length ids / 8 in
  Array.init
    ((victims + round_size - 1) / round_size)
    (fun r ->
      let first = r * round_size in
      Array.to_list (Array.sub ids first (min round_size (victims - first))))

let input_fingerprint g rounds =
  let edges, h = graph_fingerprint g in
  Array.fold_left (fun h r -> List.fold_left mix (mix h (-1)) r) (mix (mix fnv_init edges) h) rounds

let pass cfg acc =
  let g, fg, rounds = setup acc ~seed:cfg.seed ~n:(size cfg) (fun g _ -> rounds cfg g) in
  let victims = Array.fold_left (fun a r -> a + List.length r) 0 rounds in
  let nr = Array.length rounds in
  let starts = Array.make nr 0 and repair = Array.make nr nan in
  gc_around acc ~events:victims (fun () ->
      let w = Spans.enter_if "bench.write" in
      let prev = ref (Clock.now_ns ()) in
      Array.iteri
        (fun i r ->
          Spans.set_event i;
          let t0 = Clock.now_ns () in
          V.push acc.late_ms (Clock.seconds_of_ns (t0 - !prev) *. 1e3);
          starts.(i) <- t0;
          (try Sut.delete_batch fg r
           with ex -> fail (Printf.sprintf "round %d raised %s" i (Printexc.to_string ex)));
          attempt ();
          prev := Clock.now_ns ();
          repair.(i) <- float_of_int (!prev - t0) /. 1e3)
        rounds;
      Spans.leave_if w);
  let v = Spans.span "bench.verify" (fun () -> verify cfg acc fg ~burst:20) in
  (* a round heals its victims together: each victim's share of the
     writer's time is the round's time over its size *)
  add_pass acc.busy_s
    (Array.concat
       (Array.to_list
          (Array.mapi
             (fun i r ->
               let k = List.length r in
               Array.make k (repair.(i) *. 1e-6 /. float_of_int k))
             rounds)));
  add_pass acc.repair_us repair;
  add_pass acc.visible_ms
    (Array.map (fun t0 -> Clock.seconds_of_ns (v.first_answer_ns - t0) *. 1e3) starts);
  (input_fingerprint g rounds, v.output)
