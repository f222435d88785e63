module Healer = Fg_baselines.Healer
module Adversary = Fg_adversary.Adversary
module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt

type frontier_row = {
  healer : string;
  max_degree_ratio : float;
  max_abs_increase : int;
  max_stretch : float;
  disconnected_pairs : int;
}

type cost_row = {
  step : int;
  degree : int;
  merge_messages : int;
  rebuild_touches : int;
}

type policy_row = {
  scenario : string;
  paper_max_ratio : float;
  balanced_max_ratio : float;
  paper_over_3x : int;
  balanced_over_3x : int;
}

type summary = {
  frontier : frontier_row list;
  costs : cost_row list;
  policies : policy_row list;
  fg_on_frontier : bool;
}

let frontier_one healer =
  let h =
    Attack_sweep.run ~seed:Exp_common.default_seed ~family:"er" ~n:256
      ~del:Adversary.Max_degree ~fraction:0.4 ~healer
  in
  let degree, stretch = Attack_sweep.measure_both h in
  {
    healer = h.Healer.name;
    max_degree_ratio = degree.Fg_metrics.Degree_metric.max_ratio;
    max_abs_increase = degree.Fg_metrics.Degree_metric.max_absolute_increase;
    max_stretch = stretch.Fg_metrics.Stretch.max_stretch;
    disconnected_pairs = stretch.Fg_metrics.Stretch.disconnected;
  }

(* total leaves of the RT produced by the final merge of a heal trace: the
   cost a "rebuild from scratch" strategy would pay per deletion *)
let final_rt_leaves (trace : Rt.heal_trace) =
  match List.rev trace.Rt.ht_levels with
  | [] -> 0
  | last :: _ ->
    List.fold_left
      (fun acc (e : Rt.merge_event) ->
        acc
        + List.fold_left ( + ) 0 e.Rt.me_left_sizes
        + List.fold_left ( + ) 0 e.Rt.me_right_sizes)
      0 last

let cost_series () =
  (* star: deleting the centre creates one giant RT; deleting satellites
     afterwards keeps re-merging it. A rebuild-from-leaves strategy pays
     the whole surviving RT every time; the haft merge pays O(d log n). *)
  let n = 512 in
  let fg = Fg.of_graph (Fg_graph.Generators.star n) in
  let rows = ref [] in
  for step = 0 to n / 2 do
    let v = step in
    let d = Fg_graph.Adjacency.degree (Fg.gprime fg) v in
    let trace = List.hd (snd (Fg.apply fg (Deleted { victims = [ v ] }))) in
    let stats = Fg_sim.Protocol.replay ~trace ~n_seen:(Fg.num_seen fg) in
    if step mod 32 = 0 || step = n / 2 then
      rows :=
        {
          step;
          degree = d;
          merge_messages = stats.Fg_sim.Netsim.messages;
          rebuild_touches = 2 * final_rt_leaves trace;
        }
        :: !rows
  done;
  List.rev !rows

(* degree report under a given simulator-choice policy for one scenario *)
let degree_under ~policy scenario =
  let fg =
    match scenario with
    | `Star n ->
      let fg = Fg.of_graph ~policy (Fg_graph.Generators.star n) in
      Fg.delete fg 0;
      fg
    | `Er_attack n ->
      let rng = Fg_graph.Rng.create Exp_common.default_seed in
      let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
      let fg = Fg.of_graph ~policy g in
      (* max-current-degree adversary, mirrored from Adversary.Max_degree *)
      for _ = 1 to 2 * n / 5 do
        let live = Fg.live_nodes fg in
        if List.length live > 2 then begin
          let g = Fg.graph fg in
          let best =
            List.fold_left
              (fun acc v ->
                match acc with
                | None -> Some v
                | Some b ->
                  let dv = Fg_graph.Adjacency.degree g v
                  and db = Fg_graph.Adjacency.degree g b in
                  if dv > db || (dv = db && v < b) then Some v else acc)
              None live
          in
          Option.iter (Fg.delete fg) best
        end
      done;
      fg
  in
  Fg_metrics.Degree_metric.measure ~graph:(Fg.graph fg) ~gprime:(Fg.gprime fg)
    ~nodes:(Fg.live_nodes fg)

let policy_series () =
  let scenarios =
    [
      ("star-17", `Star 17);
      ("star-65", `Star 65);
      ("star-257", `Star 257);
      ("star-1025", `Star 1025);
      ("er-256-40pct", `Er_attack 256);
    ]
  in
  List.map
    (fun (name, sc) ->
      let p = degree_under ~policy:Rt.Paper sc in
      let b = degree_under ~policy:Rt.Degree_balanced sc in
      {
        scenario = name;
        paper_max_ratio = p.Fg_metrics.Degree_metric.max_ratio;
        balanced_max_ratio = b.Fg_metrics.Degree_metric.max_ratio;
        paper_over_3x = p.Fg_metrics.Degree_metric.over_3x;
        balanced_over_3x = b.Fg_metrics.Degree_metric.over_3x;
      })
    scenarios

let run ?(verbose = true) ?(csv = false) () =
  let healers = [ "fg"; "ft"; "cycle"; "line"; "clique"; "star"; "binary"; "none" ] in
  let frontier = List.map frontier_one healers in
  let costs = cost_series () in
  let policies = policy_series () in
  let t1 =
    Table.make
      [ "healer"; "max deg ratio"; "max deg +"; "max stretch"; "disconnected pairs" ]
  in
  List.iter
    (fun r ->
      Table.add_row t1
        [
          r.healer;
          Table.cell_float r.max_degree_ratio;
          Table.cell_int r.max_abs_increase;
          Table.cell_float r.max_stretch;
          Table.cell_int r.disconnected_pairs;
        ])
    frontier;
  let t2 = Table.make [ "deletion #"; "d'"; "FG merge msgs"; "rebuild touches" ] in
  List.iter
    (fun r ->
      Table.add_row t2
        [
          Table.cell_int r.step;
          Table.cell_int r.degree;
          Table.cell_int r.merge_messages;
          Table.cell_int r.rebuild_touches;
        ])
    costs;
  let t3 =
    Table.make
      [
        "scenario"; "paper max ratio"; "balanced max ratio"; "paper >3x";
        "balanced >3x";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row t3
        [
          r.scenario;
          Table.cell_float r.paper_max_ratio;
          Table.cell_float r.balanced_max_ratio;
          Table.cell_int r.paper_over_3x;
          Table.cell_int r.balanced_over_3x;
        ])
    policies;
  if verbose then begin
    Table.print
      ~title:
        "E10a - degree/stretch frontier, all healers vs the same adversary (ER n=256, \
         40% max-degree deletions)"
      t1;
    Table.print
      ~title:
        "E10b - merge-cost ablation: haft merge vs rebuild-from-leaves (star n=512, \
         centre then satellites)"
      t2;
    Table.print
      ~title:
        "E10c - simulator-choice policy: paper's A.9 vs degree-balanced (DESIGN.md §6)"
      t3
  end;
  if csv then begin
    ignore (Exp_common.write_csv ~name:"e10_frontier" t1);
    ignore (Exp_common.write_csv ~name:"e10_cost" t2);
    ignore (Exp_common.write_csv ~name:"e10_policy" t3)
  end;
  let fg_row = List.find (fun r -> r.healer = "fg") frontier in
  let bound = Exp_common.log2f 256 in
  let fg_ok =
    fg_row.max_degree_ratio <= 4.0
    && fg_row.max_stretch <= bound
    && fg_row.disconnected_pairs = 0
  in
  let baselines_each_lose =
    List.for_all
      (fun r ->
        r.healer = "fg"
        || r.max_degree_ratio > 4.0
        || r.max_stretch > bound
        || r.disconnected_pairs > 0
        || r.max_abs_increase > Exp_common.ceil_log2 256)
      frontier
  in
  { frontier; costs; policies; fg_on_frontier = fg_ok && baselines_each_lose }
