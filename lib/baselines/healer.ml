module Node_id = Fg_graph.Node_id
module Fg = Fg_core.Forgiving_graph

exception Unsupported of string

type t = {
  name : string;
  insert : Node_id.t -> Node_id.t list -> unit;
  delete : Node_id.t -> unit;
  graph : unit -> Fg_graph.Adjacency.t;
  gprime : unit -> Fg_graph.Adjacency.t;
  live_nodes : unit -> Node_id.t list;
  is_alive : Node_id.t -> bool;
  init_messages : int;
}

let forgiving_graph g0 =
  let fg = Fg.of_graph g0 in
  {
    name = "fg";
    insert = (fun v nbrs -> Fg.insert fg v nbrs);
    delete = (fun v -> Fg.delete fg v);
    graph = (fun () -> Fg.graph fg);
    gprime = (fun () -> Fg.gprime fg);
    live_nodes = (fun () -> Fg.live_nodes fg);
    is_alive = (fun v -> Fg.is_alive fg v);
    init_messages = 0;
  }

let forgiving_graph_paranoid ?on_violation g0 =
  let fg = Fg.of_graph g0 in
  let report =
    match on_violation with
    | Some f -> f
    | None -> fun errs -> failwith ("paranoid: " ^ String.concat "; " errs)
  in
  let audit d =
    match Fg_core.Invariants.check_delta fg d with [] -> () | errs -> report errs
  in
  {
    name = "fg"; (* same healer, same results — only the audit differs *)
    insert = (fun v nbrs -> audit (fst (Fg.apply fg (Inserted { node = v; nbrs }))));
    delete = (fun v -> audit (fst (Fg.apply fg (Deleted { victims = [ v ] }))));
    graph = (fun () -> Fg.graph fg);
    gprime = (fun () -> Fg.gprime fg);
    live_nodes = (fun () -> Fg.live_nodes fg);
    is_alive = (fun v -> Fg.is_alive fg v);
    init_messages = 0;
  }
