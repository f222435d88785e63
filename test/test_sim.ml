(* Tests for the message-passing kernel and the repair-protocol replay. *)

open Fg_graph
open Fg_sim

(* ---- kernel ---- *)

let test_netsim_empty () =
  let net = Netsim.create () in
  let stats = Netsim.run net ~handler:(fun ~src:_ ~dst:_ ~bits:_ () -> ()) ~max_rounds:10 in
  Alcotest.(check int) "rounds" 0 stats.Netsim.rounds;
  Alcotest.(check int) "messages" 0 stats.Netsim.messages

let test_netsim_chain () =
  (* a relay chain of k hops takes exactly k rounds and k messages *)
  let k = 17 in
  let net = Netsim.create () in
  let handler ~src:_ ~dst ~bits:_ remaining =
    if remaining > 0 then Netsim.send net ~bits:8 ~src:dst ~dst:(dst + 1) (remaining - 1)
  in
  Netsim.send net ~bits:8 ~src:0 ~dst:1 (k - 1);
  let stats = Netsim.run net ~handler ~max_rounds:100 in
  Alcotest.(check int) "rounds" k stats.Netsim.rounds;
  Alcotest.(check int) "messages" k stats.Netsim.messages;
  Alcotest.(check int) "bits" (8 * k) stats.Netsim.total_bits

let test_netsim_broadcast_rounds () =
  (* binary-tree broadcast over 2^d agents: d rounds *)
  let d = 6 in
  let net = Netsim.create () in
  let handler ~src:_ ~dst ~bits:_ depth =
    if depth < d then begin
      Netsim.send net ~bits:4 ~src:dst ~dst:(2 * dst) (depth + 1);
      Netsim.send net ~bits:4 ~src:dst ~dst:((2 * dst) + 1) (depth + 1)
    end
  in
  Netsim.send net ~bits:4 ~src:0 ~dst:1 1;
  let stats = Netsim.run net ~handler ~max_rounds:100 in
  Alcotest.(check int) "rounds" d stats.Netsim.rounds;
  Alcotest.(check int) "messages" ((1 lsl d) - 1) stats.Netsim.messages

let test_netsim_divergence_guard () =
  let net = Netsim.create () in
  let handler ~src:_ ~dst ~bits:_ () = Netsim.send net ~bits:1 ~src:dst ~dst () in
  Netsim.send net ~bits:1 ~src:0 ~dst:1 ();
  Alcotest.(check bool) "raises" true
    (try
       ignore (Netsim.run net ~handler ~max_rounds:50);
       false
     with Failure _ -> true)

let test_netsim_async_delays_rounds () =
  (* the same relay chain under async delivery takes >= the sync rounds *)
  let k = 10 in
  let run discipline =
    let net = Netsim.create ?discipline () in
    let handler ~src:_ ~dst ~bits:_ remaining =
      if remaining > 0 then Netsim.send net ~bits:8 ~src:dst ~dst:(dst + 1) (remaining - 1)
    in
    Netsim.send net ~bits:8 ~src:0 ~dst:1 (k - 1);
    Netsim.run net ~handler ~max_rounds:1000
  in
  let sync = run None in
  let async = run (Some (Netsim.Asynchronous (Rng.create 3, 5))) in
  Alcotest.(check int) "same messages" sync.Netsim.messages async.Netsim.messages;
  Alcotest.(check bool) "async at least as slow" true
    (async.Netsim.rounds >= sync.Netsim.rounds)

(* ---- protocol replay ---- *)

let test_ref_bits () =
  Alcotest.(check int) "n=2" 1 (Protocol.ref_bits 2);
  Alcotest.(check int) "n=3" 2 (Protocol.ref_bits 3);
  Alcotest.(check int) "n=1024" 10 (Protocol.ref_bits 1024);
  Alcotest.(check int) "n=1025" 11 (Protocol.ref_bits 1025)

let test_engine_star () =
  let n = 33 in
  let eng = Engine.create (Generators.star n) in
  let cost = Engine.delete eng 0 in
  Alcotest.(check int) "degree" (n - 1) cost.Engine.deleted_degree;
  Alcotest.(check int) "anchors = satellites" (n - 1) cost.Engine.anchors;
  Alcotest.(check bool) "some rounds" true (cost.Engine.rounds > 0);
  Alcotest.(check bool) "some messages" true (cost.Engine.messages > 0);
  (* the healed structure must still satisfy all invariants *)
  Alcotest.(check (list string)) "invariants" [] (Fg_core.Invariants.check (Engine.fg eng))

let test_engine_isolated_deletion_cheap () =
  let g = Adjacency.create () in
  Adjacency.add_node g 0;
  Adjacency.add_node g 1;
  let eng = Engine.create g in
  let cost = Engine.delete eng 1 in
  Alcotest.(check int) "no anchors" 0 cost.Engine.anchors;
  Alcotest.(check int) "no messages" 0 cost.Engine.messages

let test_engine_degree_one () =
  let eng = Engine.create (Generators.path 2) in
  let cost = Engine.delete eng 1 in
  Alcotest.(check int) "one anchor" 1 cost.Engine.anchors;
  Alcotest.(check bool) "constant cost" true (cost.Engine.messages <= 8)

(* Lemma 4: messages = O(d log n), rounds = O(log d log n), message size
   O(log n). We check the measured costs against the bounds with explicit
   constants on a family of star deletions of growing degree. *)
let test_lemma4_star_scaling () =
  let log2 x = log (float_of_int (max 2 x)) /. log 2. in
  List.iter
    (fun n ->
      let eng = Engine.create (Generators.star n) in
      let c = Engine.delete eng 0 in
      let d = float_of_int c.Engine.deleted_degree in
      let lg = log2 c.Engine.n_seen in
      let msgs = float_of_int c.Engine.messages in
      let rounds = float_of_int c.Engine.rounds in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d messages %d <= 20 d log n" n c.Engine.messages)
        true
        (msgs <= 20. *. d *. lg);
      Alcotest.(check bool)
        (Printf.sprintf "n=%d rounds %d <= 12 log d log n" n c.Engine.rounds)
        true
        (rounds <= 12. *. log2 (int_of_float d) *. lg);
      (* Lemma 4 counts message size in node references ("at most O(log n)
         primary roots", each one reference); one reference costs
         ceil(log2 n) bits, so the bound in bits is O(log^2 n). *)
      let rb = float_of_int (Protocol.ref_bits c.Engine.n_seen) in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d msg size %d bits <= 6 log n refs" n
           c.Engine.max_message_bits)
        true
        (float_of_int c.Engine.max_message_bits <= 6. *. lg *. rb))
    [ 8; 16; 32; 64; 128; 256; 512 ]

(* deleting along a dense ER graph: costs stay within Lemma 4 as RTs merge *)
let test_lemma4_er_sequence () =
  let rng = Rng.create 5 in
  let n = 64 in
  let eng = Engine.create (Generators.erdos_renyi rng n 0.12) in
  let log2 x = log (float_of_int (max 2 x)) /. log 2. in
  for v = 0 to (n / 2) - 1 do
    let c = Engine.delete eng v in
    let d = float_of_int (max 1 c.Engine.deleted_degree) in
    let lg = log2 c.Engine.n_seen in
    (* anchors <= 3d (Lemma 4: size(BTv) = 3d) *)
    Alcotest.(check bool)
      (Printf.sprintf "del %d anchors %d <= 3d=%d" v c.Engine.anchors
         (3 * c.Engine.deleted_degree))
      true
      (c.Engine.anchors <= 3 * max 1 c.Engine.deleted_degree);
    Alcotest.(check bool)
      (Printf.sprintf "del %d messages" v)
      true
      (float_of_int c.Engine.messages <= 30. *. d *. lg +. 30.)
  done;
  Alcotest.(check (list string)) "invariants" [] (Fg_core.Invariants.check (Engine.fg eng))

let test_engine_history () =
  let eng = Engine.create (Generators.ring 8) in
  ignore (Engine.delete eng 0);
  ignore (Engine.delete eng 4);
  Alcotest.(check int) "two costs" 2 (List.length (Engine.costs eng));
  match Engine.costs eng with
  | [ c0; c1 ] ->
    Alcotest.(check int) "order" 0 c0.Engine.deleted;
    Alcotest.(check int) "order" 4 c1.Engine.deleted
  | _ -> Alcotest.fail "expected two"

let test_engine_insert_then_delete () =
  let eng = Engine.create (Generators.ring 8) in
  Engine.insert eng 100 [ 0; 4 ];
  let c = Engine.delete eng 100 in
  Alcotest.(check int) "degree 2" 2 c.Engine.deleted_degree;
  Alcotest.(check (list string)) "invariants" [] (Fg_core.Invariants.check (Engine.fg eng))

let suite =
  [
    Alcotest.test_case "netsim: empty run" `Quick test_netsim_empty;
    Alcotest.test_case "netsim: relay chain" `Quick test_netsim_chain;
    Alcotest.test_case "netsim: broadcast rounds" `Quick test_netsim_broadcast_rounds;
    Alcotest.test_case "netsim: divergence guard" `Quick test_netsim_divergence_guard;
    Alcotest.test_case "netsim: async delays rounds" `Quick
      test_netsim_async_delays_rounds;
    Alcotest.test_case "protocol: ref_bits" `Quick test_ref_bits;
    Alcotest.test_case "engine: star deletion" `Quick test_engine_star;
    Alcotest.test_case "engine: isolated deletion is free" `Quick
      test_engine_isolated_deletion_cheap;
    Alcotest.test_case "engine: degree-1 deletion is constant" `Quick
      test_engine_degree_one;
    Alcotest.test_case "lemma 4: star scaling" `Quick test_lemma4_star_scaling;
    Alcotest.test_case "lemma 4: ER deletion sequence" `Quick test_lemma4_er_sequence;
    Alcotest.test_case "engine: history" `Quick test_engine_history;
    Alcotest.test_case "engine: insert then delete" `Quick test_engine_insert_then_delete;
  ]
