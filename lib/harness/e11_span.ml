module Adjacency = Fg_graph.Adjacency
module Healer = Fg_baselines.Healer
module Adversary = Fg_adversary.Adversary

type row = {
  family : string;
  n : int;
  healing_edges : int;
  max_span : int;
  mean_span : float;
  p95_span : float;
  span_bound_2log : bool;
}

type summary = { rows : row list; expanders_small : bool; ring_large : bool }

let spans_of (h : Healer.t) =
  let g = h.Healer.graph () in
  let gp = h.Healer.gprime () in
  let spans = ref [] in
  let record u v =
    if not (Adjacency.mem_edge gp u v) then
      match Fg_graph.Bfs.distance gp u v with
      | Some d -> spans := d :: !spans
      | None -> ()
  in
  Adjacency.iter_edges record g;
  !spans

let one family n =
  let h =
    Attack_sweep.run ~seed:Exp_common.default_seed ~family ~n
      ~del:Adversary.Max_degree ~fraction:0.5 ~healer:"fg"
  in
  let spans = spans_of h in
  let n_seen = Adjacency.num_nodes (h.Healer.gprime ()) in
  let bound = 2 * Exp_common.ceil_log2 n_seen in
  match Fg_stats.Summary.of_ints_opt spans with
  | None ->
    {
      family;
      n;
      healing_edges = 0;
      max_span = 0;
      mean_span = 0.;
      p95_span = 0.;
      span_bound_2log = true;
    }
  | Some s ->
    {
      family;
      n;
      healing_edges = s.Fg_stats.Summary.n;
      max_span = int_of_float s.Fg_stats.Summary.max;
      mean_span = s.Fg_stats.Summary.mean;
      p95_span = s.Fg_stats.Summary.p95;
      span_bound_2log = s.Fg_stats.Summary.max <= float_of_int bound;
    }

let run ?(verbose = true) ?(csv = false) () =
  let rows =
    List.concat_map
      (fun (family, _) -> List.map (one family) [ 64; 256 ])
      Exp_common.families
  in
  let table =
    Table.make
      [ "family"; "n"; "healing edges"; "max span"; "mean"; "p95"; "<= 2 log n" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.family;
          Table.cell_int r.n;
          Table.cell_int r.healing_edges;
          Table.cell_int r.max_span;
          Table.cell_float r.mean_span;
          Table.cell_float ~decimals:1 r.p95_span;
          Table.cell_bool r.span_bound_2log;
        ])
    rows;
  if verbose then
    Table.print
      ~title:
        "E11 - healing-edge span in G' (Section 6 open problem; 50% max-degree \
         deletions)"
      table;
  if csv then ignore (Exp_common.write_csv ~name:"e11_span" table);
  let expanders_small =
    List.for_all
      (fun r ->
        (not (List.mem r.family [ "er"; "ba"; "ws"; "tree" ])) || r.span_bound_2log)
      rows
  in
  let ring_large =
    List.for_all
      (fun r -> r.family <> "ring" || r.max_span >= r.n / 4)
      rows
  in
  { rows; expanders_small; ring_large }
