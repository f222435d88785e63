module Fg = Fg_core.Forgiving_graph
module Parallel = Fg_graph.Parallel
module Rng = Fg_graph.Rng
module Store = Fg_graph.Snapshot_store
module Hdr = Fg_obs.Hdr

type config = {
  readers : int;
  duration : float;
  churn_rate : float;
  mix : (string * int) list;
  sample_pairs : int;
  min_live : int;
  seed : int;
}

let class_names = [ "distance"; "path"; "stretch"; "degree" ]
let default_mix = [ ("distance", 6); ("path", 1); ("stretch", 1); ("degree", 2) ]

let mix_of_string s =
  let parts = List.filter (fun p -> String.trim p <> "") (String.split_on_char ',' s) in
  if parts = [] then Error "empty query mix"
  else begin
    try
      Ok
        (List.map
           (fun p ->
             match String.split_on_char '=' (String.trim p) with
             | [ c; w ] -> (
               let c = String.trim c in
               if not (List.mem c class_names) then failwith ("unknown query class: " ^ c);
               match int_of_string_opt (String.trim w) with
               | Some w when w >= 0 -> (c, w)
               | _ -> failwith ("bad weight for class " ^ c))
             | _ -> failwith ("malformed mix entry: " ^ String.trim p))
           parts)
    with Failure m -> Error m
  end

(* Per-reader results: written by the reader task, read by the driver
   strictly after [Parallel.await] (the task's completion handshake is
   the happens-before edge). *)
type reader_out = { mutable queries : int; hists : (string * Hdr.t) list } (* fg-lint: single-writer reader-task *)

type report = {
  wall_s : float;
  queries : int;
  qps : float;
  deletes : int;
  generations : int;
  readers_used : int;
  store : Store.stats;
  overall : Hdr.t;
  classes : (string * Hdr.t) list;
}

let make_query rng ~ids ~sample_pairs tag =
  let node () = Rng.pick_array rng ids in
  match tag with
  | "distance" -> Serve.Distance (node (), node ())
  | "path" -> Serve.Path (node (), node ())
  | "stretch" -> Serve.Stretch_sample { seed = Rng.int rng 0x3FFFFFFF; pairs = sample_pairs }
  | "degree" -> Serve.Degree_check (node ())
  | _ -> assert false

let reader_loop ~stop ~store ~ids ~cfg ~idx ~out () =
  if Array.length ids > 0 then begin
    let rng = Rng.create (cfg.seed + (7919 * (idx + 1))) in
    let r = Store.reader store in
    let w = Serve.worker () in
    (* weight-expanded choice array: O(1) class draw, handle to the
       reader's own always-on histogram alongside *)
    let choices =
      Array.of_list
        (List.concat_map
           (fun (c, weight) ->
             match List.assoc_opt c out.hists with
             | Some h -> List.init weight (fun _ -> (c, h))
             | None -> [])
           cfg.mix)
    in
    while not (Atomic.get stop) do
      let tag, local = Rng.pick_array rng choices in
      let q = make_query rng ~ids ~sample_pairs:cfg.sample_pairs tag in
      ignore (Serve.serve_timed w r local q : Serve.result);
      out.queries <- out.queries + 1
    done
  end

let run fg cfg =
  if cfg.duration <= 0. then invalid_arg "Loadgen.run: duration must be positive";
  (match mix_of_string (String.concat "," (List.map (fun (c, w) -> Printf.sprintf "%s=%d" c w) cfg.mix)) with
  | Ok _ -> ()
  | Error m -> invalid_arg ("Loadgen.run: " ^ m));
  if List.for_all (fun (_, w) -> w = 0) cfg.mix then invalid_arg "Loadgen.run: all-zero query mix";
  (* Publish generation 0 of the run before any reader spawns, so [pin]
     always finds a snapshot. *)
  ignore (Fg.publish fg : Fg.snapshot);
  let store = Fg.snapshot_store fg in
  (* Freeze the id universe writer-side: churn only deletes, so G' (and
     hence this array) is stable for the whole run, and readers never
     touch the live adjacency. *)
  let ids = Array.of_list (Fg_graph.Adjacency.nodes (Fg.gprime fg)) in
  let readers = max 1 (min cfg.readers (Parallel.pool_size ())) in
  let stop = Atomic.make false in
  let outs =
    Array.init readers (fun _ ->
        {
          queries = 0;
          hists =
            List.filter_map
              (fun (c, w) -> if w > 0 then Some (c, Hdr.create ()) else None)
              cfg.mix;
        })
  in
  let tasks =
    Array.init readers (fun idx ->
        Parallel.submit (reader_loop ~stop ~store ~ids ~cfg ~idx ~out:outs.(idx)))
  in
  let wrng = Rng.create (cfg.seed + 13) in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. cfg.duration in
  let deletes = ref 0 in
  let period = if cfg.churn_rate > 0. then 1. /. cfg.churn_rate else infinity in
  let next_del = ref (t0 +. period) in
  let rec drive () =
    let now = Unix.gettimeofday () in
    if now < deadline then begin
      if now >= !next_del then begin
        if Fg.num_live fg > cfg.min_live then begin
          match Fg.live_nodes fg with
          | [] -> ()
          | live ->
            Fg.delete fg (Rng.pick wrng live);
            incr deletes;
            ignore (Fg.publish fg : Fg.snapshot)
        end;
        next_del := !next_del +. period;
        (* if the heal ran longer than the period, shed the backlog
           instead of bursting to catch up *)
        if !next_del < now then next_del := now +. period
      end
      else Unix.sleepf (min 0.0005 (min (deadline -. now) (!next_del -. now)));
      drive ()
    end
  in
  drive ();
  Atomic.set stop true;
  Array.iter Parallel.await tasks;
  let wall = Unix.gettimeofday () -. t0 in
  let overall = Hdr.create () in
  let merged =
    List.filter_map
      (fun (c, w) ->
        if w = 0 then None
        else begin
          let h = Hdr.create () in
          Array.iter
            (fun o ->
              match List.assoc_opt c o.hists with
              | Some src -> Hdr.merge_into ~src ~into:h
              | None -> ())
            outs;
          Hdr.merge_into ~src:h ~into:overall;
          Some (c, h)
        end)
      cfg.mix
  in
  let queries = Array.fold_left (fun acc (o : reader_out) -> acc + o.queries) 0 outs in
  {
    wall_s = wall;
    queries;
    qps = (if wall > 0. then float_of_int queries /. wall else 0.);
    deletes = !deletes;
    generations = Fg.generation fg;
    readers_used = readers;
    store = Store.stats store;
    overall;
    classes = merged;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%d queries in %.2fs = %.0f qps (%d readers); %d deletes, gen %d@,"
    r.queries r.wall_s r.qps r.readers_used r.deletes r.generations;
  Format.fprintf ppf "store: %a@," Store.pp_stats r.store;
  let line name h =
    if not (Hdr.is_empty h) then
      Format.fprintf ppf "  %-9s n=%-9d p50=%8.1fus  p99=%8.1fus  max=%8.1fus@," name
        (Hdr.count h)
        (float_of_int (Hdr.p50 h) /. 1e3)
        (float_of_int (Hdr.p99 h) /. 1e3)
        (float_of_int (Hdr.max_value h) /. 1e3)
  in
  line "overall" r.overall;
  List.iter (fun (c, h) -> line c h) r.classes;
  Format.fprintf ppf "@]"
