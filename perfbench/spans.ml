(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, event id, generation). Names are
   [layer.function]; a span's parent is the span open on the same domain
   when it started. Every domain records into its own track, so the
   reader domain never contends with the writer. Nothing is recorded
   unless [set_enabled true]; the disabled cost is one atomic load. *)

type track = {
  tid : int;
  mutable n : int;
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable ev : int array;
  mutable gen : int array;
  mutable open_ : int list;
  mutable event : int;
}

let on = Atomic.make false
let set_enabled b = Atomic.set on b
let enabled () = Atomic.get on
let registry = ref []
let registry_lock = Mutex.create ()

let new_track () =
  Mutex.protect registry_lock (fun () ->
      let t =
        {
          tid = List.length !registry;
          n = 0;
          names = Array.make 1024 "";
          start = Array.make 1024 0;
          stop = Array.make 1024 0;
          parent = Array.make 1024 (-1);
          ev = Array.make 1024 (-1);
          gen = Array.make 1024 (-1);
          open_ = [];
          event = -1;
        }
      in
      registry := t :: !registry;
      t)

let key = Domain.DLS.new_key new_track

let grow t =
  let cap = 2 * Array.length t.start in
  let ext a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1);
  t.ev <- ext t.ev (-1);
  t.gen <- ext t.gen (-1)

(* Spans opened after this call carry event id [id] (per domain). *)
let set_event id = if enabled () then (Domain.DLS.get key).event <- id

let enter name =
  let t = Domain.DLS.get key in
  if t.n = Array.length t.start then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.names.(i) <- name;
  t.parent.(i) <- (match t.open_ with p :: _ -> p | [] -> -1);
  t.ev.(i) <- t.event;
  t.gen.(i) <- -1;
  t.open_ <- i :: t.open_;
  t.start.(i) <- Clock.now_ns ();
  i

let leave ?(gen = -1) i =
  let t = Domain.DLS.get key in
  t.stop.(i) <- Clock.now_ns ();
  if gen >= 0 then t.gen.(i) <- gen;
  match t.open_ with _ :: rest -> t.open_ <- rest | [] -> ()

let span name f =
  if not (enabled ()) then f ()
  else begin
    let i = enter name in
    match f () with
    | r ->
      leave i;
      r
    | exception e ->
      leave i;
      raise e
  end

let tracks () = Mutex.protect registry_lock (fun () -> List.rev !registry)
let total () = List.fold_left (fun acc t -> acc + t.n) 0 (tracks ())

(* Self time of every span: its duration minus its direct children's. *)
let self_times t =
  let cover = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then cover.(p) <- cover.(p) + (t.stop.(i) - t.start.(i))
  done;
  Array.init t.n (fun i -> t.stop.(i) - t.start.(i) - cover.(i))

(* Per span name across all tracks: self times in nanoseconds. *)
let self_by_name () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let self = self_times t in
      for i = 0 to t.n - 1 do
        let v =
          match Hashtbl.find_opt tbl t.names.(i) with
          | Some v -> v
          | None ->
            let v = Stats.Vec.create () in
            Hashtbl.replace tbl t.names.(i) v;
            v
        in
        Stats.Vec.push v (float_of_int self.(i))
      done)
    (tracks ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Per track: busy wall (root spans minus [idle.*] waits), and the part
   of it no library-layer span accounts for (the benchmark's own
   [bench.*] self time). *)
let residue () =
  List.map
    (fun t ->
      let self = self_times t in
      let wall = ref 0 and bench = ref 0 in
      for i = 0 to t.n - 1 do
        if t.parent.(i) < 0 then wall := !wall + (t.stop.(i) - t.start.(i));
        match layer_of t.names.(i) with
        | "bench" -> bench := !bench + self.(i)
        | "idle" -> wall := !wall - self.(i)
        | _ -> ()
      done;
      (t.tid, !wall, !bench))
    (tracks ())

let dump path =
  let oc = open_out path in
  List.iter
    (fun t ->
      for i = 0 to t.n - 1 do
        Printf.fprintf oc
          "{\"track\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"event\":%d,\"gen\":%d,\
           \"start_ns\":%d,\"end_ns\":%d}\n"
          t.tid i t.parent.(i) t.names.(i) t.ev.(i) t.gen.(i) t.start.(i) t.stop.(i)
      done)
    (tracks ());
  close_out oc

(* [enter]/[leave] that do nothing (and return -1) while disabled. *)
let enter_if name = if enabled () then enter name else -1
let leave_if ?gen i = if i >= 0 then leave ?gen i
