module Node_id = Fg_graph.Node_id
module Fg = Fg_core.Forgiving_graph

type cost = {
  deleted : Node_id.t;
  deleted_degree : int;
  n_seen : int;
  anchors : int;
  rounds : int;
  messages : int;
  total_bits : int;
  max_message_bits : int;
  max_agent_bits : int;
  max_agent_messages : int;
}

type t = {
  fg : Fg.t;
  mutable history : cost list;  (* reversed *)
}

let create g = { fg = Fg.of_graph g; history = [] }
let insert t v nbrs = Fg.insert t.fg v nbrs
let fg t = t.fg
let costs t = List.rev t.history

let delete t v =
  Fg_obs.Trace.with_span "sim.delete" ~attrs:[ ("node", Fg_obs.Event.Int v) ]
  @@ fun sp ->
  let deleted_degree = Fg_graph.Adjacency.degree (Fg.gprime t.fg) v in
  let n_seen = Fg.num_seen t.fg in
  (* a lone victim heals as exactly one group *)
  let trace = List.hd (snd (Fg.apply t.fg (Fg_core.Delta.Deleted { victims = [ v ] }))) in
  let stats =
    Fg_obs.Trace.with_span "sim.replay" (fun _ -> Protocol.replay ~trace ~n_seen)
  in
  if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
    Fg_obs.Trace.attr sp "rounds" (Fg_obs.Event.Int stats.Netsim.rounds);
    Fg_obs.Trace.attr sp "messages" (Fg_obs.Event.Int stats.Netsim.messages);
    Fg_obs.Metrics.observe "sim.rounds" (float_of_int stats.Netsim.rounds);
    Fg_obs.Metrics.observe "sim.messages" (float_of_int stats.Netsim.messages)
  end;
  let cost =
    {
      deleted = v;
      deleted_degree;
      n_seen;
      anchors = trace.Fg_core.Rt.ht_anchors;
      rounds = stats.Netsim.rounds;
      messages = stats.Netsim.messages;
      total_bits = stats.Netsim.total_bits;
      max_message_bits = stats.Netsim.max_message_bits;
      max_agent_bits = stats.Netsim.max_agent_bits;
      max_agent_messages = stats.Netsim.max_agent_messages;
    }
  in
  t.history <- cost :: t.history;
  cost

let pp_cost ppf c =
  Format.fprintf ppf
    "del %a (d'=%d, n=%d): %d anchors, %d rounds, %d msgs, %d bits (max msg %d, max \
     node %d)"
    Node_id.pp c.deleted c.deleted_degree c.n_seen c.anchors c.rounds c.messages
    c.total_bits c.max_message_bits c.max_agent_bits
