(* The pre-CSR hashtable implementation of [Fg_metrics.Stretch.exact],
   kept verbatim as the oracle for cross-check tests of the CSR kernels.
   One [Bfs.distances] hashtable per (source, graph) — slow, obviously
   correct. [max_stretch], [witness], [pairs] and [disconnected] agree
   exactly with [Stretch.exact]; [mean_stretch] may differ in the last
   bits (different float summation order). *)

open Fg_graph
open Fg_metrics.Stretch

let exact_tbl ~graph ~reference nodes =
  let sorted = List.sort Node_id.compare nodes in
  let max_stretch = ref 0. in
  let witness = ref None in
  let sum = ref 0. in
  let pairs = ref 0 in
  let disconnected = ref 0 in
  let from x =
    let dg = Bfs.distances graph x in
    let dr = Bfs.distances reference x in
    let check y =
      if y > x then
        match (Node_id.Tbl.find_opt dg y, Node_id.Tbl.find_opt dr y) with
        | Some d, Some d' when d' > 0 ->
          let s = float_of_int d /. float_of_int d' in
          incr pairs;
          sum := !sum +. s;
          if s > !max_stretch then begin
            max_stretch := s;
            witness := Some (x, y)
          end
        | None, Some _ -> incr disconnected
        | _ -> ()
    in
    List.iter check sorted
  in
  List.iter from sorted;
  {
    max_stretch = !max_stretch;
    witness = !witness;
    mean_stretch = (if !pairs = 0 then 0. else !sum /. float_of_int !pairs);
    pairs = !pairs;
    disconnected = !disconnected;
  }
