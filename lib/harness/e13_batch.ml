module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Adjacency = Fg_graph.Adjacency

type row = {
  n : int;
  batch_size : int;
  batch_helpers : int;
  seq_helpers : int;
  batch_anchors : int;
  seq_anchors : int;
  batch_stretch : float;
  seq_stretch : float;
  bound : int;
  both_within : bool;
}

type summary = { rows : row list; batch_never_worse : bool }

let helpers_of (trace : Rt.heal_trace) =
  List.fold_left
    (fun acc evs ->
      List.fold_left (fun a (e : Rt.merge_event) -> a + e.Rt.me_created) acc evs)
    0 trace.Rt.ht_levels

let max_stretch fg =
  let live = Fg.live_nodes fg in
  (Fg_metrics.Stretch.exact ~graph:(Fg.graph fg) ~reference:(Fg.gprime fg) live)
    .Fg_metrics.Stretch.max_stretch

let one ~n ~batch_size =
  let rng = Fg_graph.Rng.create (Exp_common.default_seed + n + batch_size) in
  let g = Fg_graph.Generators.erdos_renyi rng n (4.0 /. float_of_int n) in
  let victims =
    Array.to_list
      (Fg_graph.Rng.sample rng batch_size (Array.of_list (Adjacency.nodes g)))
  in
  let fg_batch = Fg.of_graph (Adjacency.copy g) in
  let batch_traces = snd (Fg.apply fg_batch (Deleted { victims })) in
  let fg_seq = Fg.of_graph (Adjacency.copy g) in
  let seq_traces =
    List.concat_map (fun v -> snd (Fg.apply fg_seq (Deleted { victims = [ v ] }))) victims
  in
  let bound = Fg.stretch_bound fg_batch in
  let bs = max_stretch fg_batch and ss = max_stretch fg_seq in
  {
    n;
    batch_size;
    batch_helpers = List.fold_left (fun a t -> a + helpers_of t) 0 batch_traces;
    seq_helpers = List.fold_left (fun a t -> a + helpers_of t) 0 seq_traces;
    batch_anchors = List.fold_left (fun a t -> a + t.Rt.ht_anchors) 0 batch_traces;
    seq_anchors = List.fold_left (fun a t -> a + t.Rt.ht_anchors) 0 seq_traces;
    batch_stretch = bs;
    seq_stretch = ss;
    bound;
    both_within = bs <= float_of_int bound && ss <= float_of_int bound;
  }

let run ?(verbose = true) ?(csv = false) () =
  let rows =
    List.concat_map
      (fun n -> List.map (fun k -> one ~n ~batch_size:k) [ 2; 4; 8; 16 ])
      [ 64; 256 ]
  in
  let table =
    Table.make
      [
        "n"; "batch k"; "helpers (batch)"; "helpers (seq)"; "anchors (batch)";
        "anchors (seq)"; "max stretch (batch)"; "(seq)"; "bound"; "within";
      ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          Table.cell_int r.n;
          Table.cell_int r.batch_size;
          Table.cell_int r.batch_helpers;
          Table.cell_int r.seq_helpers;
          Table.cell_int r.batch_anchors;
          Table.cell_int r.seq_anchors;
          Table.cell_float r.batch_stretch;
          Table.cell_float r.seq_stretch;
          Table.cell_int r.bound;
          Table.cell_bool r.both_within;
        ])
    rows;
  if verbose then
    Table.print
      ~title:"E13 - batch failures vs equivalent deletion sequences (extension)"
      table;
  if csv then ignore (Exp_common.write_csv ~name:"e13_batch" table);
  {
    rows;
    batch_never_worse =
      List.for_all
        (fun r -> r.both_within && r.batch_helpers <= r.seq_helpers)
        rows;
  }
