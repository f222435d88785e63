module Node_id = Fg_graph.Node_id
module Adjacency = Fg_graph.Adjacency

type kind = Leaf | Helper

type vnode = {
  id : int;
  kind : kind;
  half : Edge.Half.t;
  mutable parent : vnode option;
  mutable left : vnode option;
  mutable right : vnode option;
  mutable leaves : int;
  mutable height : int;
  mutable rep : vnode;
  mutable live : bool;
}

(* Multiplicities of image edges, keyed by the packed endpoint pair
   [(min lsl 31) lor max] (node ids stay well below 2^31, so the pack is
   injective and fits a 63-bit int; [min < max] makes every key >= 1,
   freeing 0 as the empty-slot sentinel). Open addressing with linear
   probing and backward-shift deletion: [inc]/[dec] allocate nothing,
   where the tuple-keyed [Hashtbl] this replaces built a pair plus an
   option per refcount operation — the hottest call site of every heal. *)
module Counts : sig
  type t

  val create : unit -> t
  val inc : t -> int -> int  (* new count *)
  val dec : t -> int -> int  (* new count; [-1] when the key is absent *)
end = struct
  type t = {
    mutable keys : int array;  (* 0 = empty; capacity is a power of two *)
    mutable vals : int array;
    mutable n : int;  (* occupied slots, kept under half the capacity *)
  }

  let create () = { keys = Array.make 64 0; vals = Array.make 64 0; n = 0 }

  let home keys k =
    let h = (k lxor (k lsr 31)) * 0x9e3779b1 in
    (h lxor (h lsr 16)) land (Array.length keys - 1)

  (* slot holding [k], or the empty slot where it would go *)
  let slot keys k =
    let mask = Array.length keys - 1 in
    let i = ref (home keys k) in
    while keys.(!i) <> 0 && keys.(!i) <> k do
      i := (!i + 1) land mask
    done;
    !i

  let grow t =
    let old_k = t.keys and old_v = t.vals in
    let cap = 2 * Array.length old_k in
    t.keys <- Array.make cap 0;
    t.vals <- Array.make cap 0;
    for i = 0 to Array.length old_k - 1 do
      let k = old_k.(i) in
      if k <> 0 then begin
        let j = slot t.keys k in
        t.keys.(j) <- k;
        t.vals.(j) <- old_v.(i)
      end
    done

  let inc t k =
    if 2 * (t.n + 1) > Array.length t.keys then grow t;
    let i = slot t.keys k in
    if t.keys.(i) = 0 then begin
      t.keys.(i) <- k;
      t.vals.(i) <- 1;
      t.n <- t.n + 1;
      1
    end
    else begin
      let c = t.vals.(i) + 1 in
      t.vals.(i) <- c;
      c
    end

  (* Backward-shift deletion: after emptying slot [i0], walk the probe
     chain and pull back any entry whose home slot lies at or before the
     hole (cyclically), so lookups never meet a premature empty slot. *)
  let remove_at t i0 =
    let keys = t.keys and vals = t.vals in
    let mask = Array.length keys - 1 in
    keys.(i0) <- 0;
    let i = ref i0 and j = ref i0 in
    let scanning = ref true in
    while !scanning do
      j := (!j + 1) land mask;
      let k = keys.(!j) in
      if k = 0 then scanning := false
      else if (!j - home keys k) land mask >= (!j - !i) land mask then begin
        keys.(!i) <- k;
        vals.(!i) <- vals.(!j);
        keys.(!j) <- 0;
        i := !j
      end
    done;
    t.n <- t.n - 1

  let dec t k =
    let i = slot t.keys k in
    if t.keys.(i) = 0 then -1
    else begin
      let c = t.vals.(i) - 1 in
      if c = 0 then remove_at t i else t.vals.(i) <- c;
      c
    end
end

type policy = Paper | Degree_balanced

(* Reusable per-context scratch: every [heal] call needs a tainted/marked
   membership test over vnode ids, a dedup of affected tree roots, and a
   buffer of stripped complete subtrees tagged with their fragment id.
   These were functional [Int_set]s, throwaway hashtables, and a [Map] per
   heal; with vnode ids dense (the [next_id] counter), epoch-stamped int
   arrays and growable buffers answer the same queries with O(1) amortised
   allocation across repeated deletions. The epoch advances by 2 per heal
   ([mark = epoch] means tainted, [mark = epoch + 1] means marked), so no
   clearing pass is ever needed. *)
type scratch = {
  mutable mark : int array;  (* vnode id -> taint/mark stamp *)
  mutable seen : int array;  (* vnode id -> root-dedup stamp *)
  mutable epoch : int;
  mutable pool_fid : int array;  (* fragment id per pool entry *)
  mutable pool_v : vnode array;  (* stripped complete subtrees, visit order *)
  mutable pool_len : int;
  mutable frag_head : int array;  (* fid -> first pool index, -1 if none *)
  mutable pool_next : int array;  (* pool index -> next entry of same fid *)
}

type ctx = {
  leaf_tbl : vnode Edge.Half.Tbl.t;
  helper_tbl : vnode Edge.Half.Tbl.t;
  img : Adjacency.t;
  counts : Counts.t;  (* multiplicity of image edges, packed (min, max) key *)
  policy : policy;
  scratch : scratch;
  mutable next_id : int;
  mutable recorder : Delta.builder option;
      (* while set, every actual image flip and vnode create/discard is
         recorded into the event's delta — the single choke point *)
}

let dummy_vnode =
  let rec v =
    {
      id = -1;
      kind = Leaf;
      half = Edge.Half.make 0 (Edge.make 0 1);
      parent = None;
      left = None;
      right = None;
      leaves = 0;
      height = 0;
      rep = v;
      live = false;
    }
  in
  v

let create_scratch () =
  {
    mark = [||];
    seen = [||];
    epoch = 0;
    pool_fid = [||];
    pool_v = [||];
    pool_len = 0;
    frag_head = [||];
    pool_next = [||];
  }

let create_ctx ?(policy = Paper) () =
  {
    leaf_tbl = Edge.Half.Tbl.create 64;
    helper_tbl = Edge.Half.Tbl.create 64;
    img = Adjacency.create ();
    counts = Counts.create ();
    policy;
    scratch = create_scratch ();
    next_id = 0;
    recorder = None;
  }

let set_recorder ctx r = ctx.recorder <- r

let image ctx = ctx.img
let add_image_node ctx p = Adjacency.add_node ctx.img p

let drop_image_node ctx p =
  if Adjacency.degree ctx.img p > 0 then
    invalid_arg "Rt.drop_image_node: processor still has edges";
  Adjacency.remove_node ctx.img p

(* ---- image edge reference counting ---- *)

let pack_pair u v = if u < v then (u lsl 31) lor v else (v lsl 31) lor u

let img_inc ctx u v =
  if not (Node_id.equal u v) then
    if Counts.inc ctx.counts (pack_pair u v) = 1 then begin
      Adjacency.add_edge ctx.img u v;
      (match ctx.recorder with
      | None -> ()
      | Some b -> Delta.record_g_add b u v);
      Fg_obs.Trace.count "image.edges_added" 1;
      Fg_obs.Metrics.incr "image.edges_added"
    end

let img_dec ctx u v =
  if not (Node_id.equal u v) then
    match Counts.dec ctx.counts (pack_pair u v) with
    | -1 -> invalid_arg "Rt.img_dec: edge not present"
    | 0 ->
      Adjacency.remove_edge ctx.img u v;
      (match ctx.recorder with
      | None -> ()
      | Some b -> Delta.record_g_remove b u v);
      Fg_obs.Trace.count "image.edges_removed" 1;
      Fg_obs.Metrics.incr "image.edges_removed"
    | _ -> ()

let add_direct ctx u v = img_inc ctx u v
let remove_direct ctx u v = img_dec ctx u v

(* ---- vnode structural helpers ---- *)

let proc v = v.half.Edge.Half.proc
let find_leaf ctx half = Edge.Half.Tbl.find_opt ctx.leaf_tbl half
let find_helper ctx half = Edge.Half.Tbl.find_opt ctx.helper_tbl half
let is_complete v = v.leaves = 1 lsl v.height

let rec root_of v = match v.parent with None -> v | Some p -> root_of p

let fresh_leaf ctx half =
  let rec v =
    {
      id = ctx.next_id;
      kind = Leaf;
      half;
      parent = None;
      left = None;
      right = None;
      leaves = 1;
      height = 0;
      rep = v;
      live = true;
    }
  in
  ctx.next_id <- ctx.next_id + 1;
  assert (not (Edge.Half.Tbl.mem ctx.leaf_tbl half));
  (* [add] rather than [replace]: the key is absent (asserted above), so
     this skips the bucket search [replace] would do *)
  Edge.Half.Tbl.add ctx.leaf_tbl half v;
  Option.iter Delta.record_vnode_created ctx.recorder;
  v

(* Create a helper simulated by the representative leaf [simulator], with
   the two given children. Image edges for both child links are added. *)
let fresh_helper ctx ~simulator ~left ~right ~rep =
  let half = simulator.half in
  assert (simulator.kind = Leaf);
  assert (not (Edge.Half.Tbl.mem ctx.helper_tbl half));
  let v =
    {
      id = ctx.next_id;
      kind = Helper;
      half;
      parent = None;
      left = Some left;
      right = Some right;
      leaves = left.leaves + right.leaves;
      height = 1 + max left.height right.height;
      rep;
      live = true;
    }
  in
  ctx.next_id <- ctx.next_id + 1;
  Edge.Half.Tbl.add ctx.helper_tbl half v;
  Option.iter Delta.record_vnode_created ctx.recorder;
  left.parent <- Some v;
  right.parent <- Some v;
  img_inc ctx (proc v) (proc left);
  img_inc ctx (proc v) (proc right);
  v

(* Discard a vnode: remove its child links (with image accounting), its
   table entry, and mark it dead. The parent link must already be gone
   (parents are discarded top-down). Returns the orphaned children. *)
let discard ctx v =
  assert (v.parent = None);
  let orphan child =
    child.parent <- None;
    img_dec ctx (proc v) (proc child)
  in
  Option.iter orphan v.left;
  Option.iter orphan v.right;
  let children = List.filter_map Fun.id [ v.left; v.right ] in
  v.left <- None;
  v.right <- None;
  v.live <- false;
  (match v.kind with
  | Leaf -> Edge.Half.Tbl.remove ctx.leaf_tbl v.half
  | Helper -> Edge.Half.Tbl.remove ctx.helper_tbl v.half);
  Option.iter Delta.record_vnode_discarded ctx.recorder;
  children

(* ---- decomposition (Strip over the broken forest) ---- *)

(* grow-to-fit for the scratch arrays; contents need not survive growth
   because capacity is only raised at the start of a heal, before any
   stamps or pool entries of that heal exist *)
let ensure_stamps s n =
  if Array.length s.mark < n then s.mark <- Array.make (max 64 (2 * n)) 0;
  if Array.length s.seen < n then s.seen <- Array.make (max 64 (2 * n)) 0

let pool_push s fid v =
  if s.pool_len = Array.length s.pool_v then begin
    let cap = max 16 (2 * s.pool_len) in
    let pv = Array.make cap dummy_vnode and pf = Array.make cap 0 in
    Array.blit s.pool_v 0 pv 0 s.pool_len;
    Array.blit s.pool_fid 0 pf 0 s.pool_len;
    s.pool_v <- pv;
    s.pool_fid <- pf
  end;
  s.pool_v.(s.pool_len) <- v;
  s.pool_fid.(s.pool_len) <- fid;
  s.pool_len <- s.pool_len + 1

(* Walk a tree top-down. Untainted complete subtrees go to the pool
   (ctx.scratch, in visit order); everything else is discarded and its
   children are visited. Roots passed in must have no parent.

   Fragment tagging: a fragment is a maximal connected piece of the broken
   RT after removing the deleted processor's (marked) vnodes; each fragment
   is one BT_v anchor. Removing a marked helper separates its two child
   subtrees from the rest, so children of a *marked* node start fresh
   fragments; red (non-primary-root) discards stay within the fragment.
   Returns the number of red helpers discarded and the number of fragment
   ids assigned; pool entries live in [ctx.scratch]. *)
let decompose ctx ~epoch roots =
  let s = ctx.scratch in
  s.pool_len <- 0;
  let discarded = ref 0 in
  let next_fid = ref 0 in
  let fresh_fid () =
    let f = !next_fid in
    incr next_fid;
    f
  in
  let rec visit fid v =
    if s.mark.(v.id) < epoch && is_complete v then pool_push s fid v
    else begin
      let was_marked = s.mark.(v.id) = epoch + 1 in
      if (not was_marked) && v.kind = Helper then incr discarded;
      let children = discard ctx v in
      let child_fid () = if was_marked then fresh_fid () else fid in
      List.iter (fun c -> visit (child_fid ()) c) children
    end
  in
  List.iter (fun r -> visit (fresh_fid ()) r) roots;
  (!discarded, !next_fid)

(* ---- merge (ComputeHaft, Algorithm A.9) ---- *)

let vnode_order a b =
  let c = compare a.leaves b.leaves in
  if c <> 0 then c else compare a.id b.id

(* Policy hook for the A.9 simulator choice. The paper always consumes the
   designated side's representative; either side is valid (the new helper's
   rep is inherited from whichever side was not consumed, preserving the
   free-leaf invariant), so Degree_balanced picks the representative whose
   processor currently has the smaller image degree — the ablation of
   DESIGN.md §6 probing whether a smarter choice restores the stated 3x
   degree bound. *)
let choose_simulator ctx ~preferred ~other =
  match ctx.policy with
  | Paper -> (preferred, other)
  | Degree_balanced ->
    let deg v = Adjacency.degree ctx.img (proc v.rep) in
    if deg other < deg preferred then (other, preferred) else (preferred, other)

(* Join two equal-size complete trees: the first tree's representative
   simulates the new parent; the second tree's representative is inherited
   (A.9 lines 5-17). *)
let join_equal ctx a b =
  assert (a.leaves = b.leaves);
  let consumed, inherited = choose_simulator ctx ~preferred:a ~other:b in
  fresh_helper ctx ~simulator:consumed.rep ~left:a ~right:b ~rep:inherited.rep

(* Join a larger complete tree [big] with the accumulated smaller haft
   [small]: the larger tree's representative simulates the new parent and
   becomes the left child (A.9 lines 20-27). *)
let join_chain ctx ~big ~small =
  assert (big.leaves > small.leaves);
  let consumed, inherited = choose_simulator ctx ~preferred:big ~other:small in
  fresh_helper ctx ~simulator:consumed.rep ~left:big ~right:small ~rep:inherited.rep

(* Merge a set of complete trees into a single haft (ComputeHaft over one
   root list). Returns the root and the number of helpers created. *)
let merge_pool ctx pool =
  match List.sort vnode_order pool with
  | [] -> None
  | sorted ->
    let created = ref 0 in
    let count f a b =
      incr created;
      f a b
    in
    let rec add t = function
      | [] -> [ t ]
      | hd :: tl ->
        if t.leaves < hd.leaves then t :: hd :: tl
        else if t.leaves = hd.leaves then add (count (join_equal ctx) t hd) tl
        else hd :: add t tl
    in
    let summed = List.fold_left (fun acc t -> add t acc) [] sorted in
    (match summed with
    | [] -> None
    | smallest :: rest ->
      let join acc t =
        incr created;
        join_chain ctx ~big:t ~small:acc
      in
      Some (List.fold_left join smallest rest, !created))

(* Strip a standalone haft root back into its complete trees, discarding
   the joining ("red", Fig. 7) helpers. Returns (roots, discarded). *)
let strip_live ctx root =
  let roots = ref [] and discarded = ref 0 in
  let rec go v =
    if is_complete v then roots := v :: !roots
    else begin
      incr discarded;
      match discard ctx v with
      | [ l; r ] ->
        (* the left child of a haft node is complete by definition *)
        roots := l :: !roots;
        go r
      | _ -> assert false
    end
  in
  go root;
  (!roots, !discarded)

type merge_event = {
  me_left_sizes : int list;
  me_right_sizes : int list;
  me_left_height : int;
  me_right_height : int;
  me_created : int;
  me_discarded : int;
}

type heal_trace = {
  ht_anchors : int;
  ht_notified : int;
  ht_initial_discarded : int;
  ht_levels : merge_event list list;
  ht_root : vnode option;
}

let sizes_of roots = List.map (fun v -> v.leaves) roots
let max_height roots = List.fold_left (fun m v -> max m v.height) 0 roots

(* One BT_v unit: either a freshly fragmented set of complete trees, or the
   single haft produced by an earlier level (re-stripped when merged). *)
type btv_unit = Roots of vnode list | Whole of vnode

let unit_roots ctx = function
  | Roots rs -> (rs, 0)
  | Whole v -> strip_live ctx v

let unit_order a b =
  let key = function
    | Roots [] -> max_int
    | Roots (r :: rs) -> List.fold_left (fun m v -> min m v.id) r.id rs
    | Whole v -> v.id
  in
  compare (key a) (key b)

(* Bottom-up pairwise reduction over BT_v (Fig. 7): at every level adjacent
   units merge in parallel; an odd unit passes through.

   [record] gates the merge-event bookkeeping: the event records (and their
   size lists) exist for protocol replay, harness figures, and metrics —
   when the caller will drop the trace unseen, building them is pure
   allocation on the heal path, so the fast path turns them off. The
   healed RT itself is identical either way. *)
let btv_reduce ctx ~record units =
  let levels = ref [] in
  let rec loop units =
    match units with
    | [] -> None
    | [ u ] -> (
      match u with
      | Whole v -> Some v
      | Roots rs -> (
        (* a single fragment still re-merges its own complete trees *)
        match merge_pool ctx rs with
        | None -> None
        | Some (root, created) ->
          if record then begin
            let ev =
              {
                me_left_sizes = sizes_of rs;
                me_right_sizes = [];
                me_left_height = max_height rs;
                me_right_height = 0;
                me_created = created;
                me_discarded = 0;
              }
            in
            levels := [ ev ] :: !levels
          end;
          Some root))
    | _ ->
      let events = ref [] in
      let rec pair = function
        | a :: b :: rest ->
          let left_roots, dl = unit_roots ctx a in
          let right_roots, dr = unit_roots ctx b in
          let merged, created =
            match merge_pool ctx (left_roots @ right_roots) with
            | Some r -> r
            | None -> assert false (* both sides non-empty *)
          in
          if record then begin
            let ev =
              {
                me_left_sizes = sizes_of left_roots;
                me_right_sizes = sizes_of right_roots;
                me_left_height = max_height left_roots;
                me_right_height = max_height right_roots;
                me_created = created;
                me_discarded = dl + dr;
              }
            in
            events := ev :: !events
          end;
          Whole merged :: pair rest
        | ([ _ ] | []) as rest -> rest
      in
      let next = pair units in
      if record then levels := List.rev !events :: !levels;
      loop next
  in
  let root = loop units in
  (root, List.rev !levels)

let heal ?(events = true) ctx ~marked ~fresh =
  (* never drop the event records while something is watching: spans and
     metrics aggregate them, and an installed recorder means the caller
     came through a traced entry point and will receive the trace *)
  let record =
    events || ctx.recorder <> None || Fg_obs.Trace.enabled ()
    || Fg_obs.Metrics.is_recording ()
  in
  let s = ctx.scratch in
  ensure_stamps s ctx.next_id;
  s.epoch <- s.epoch + 2;
  let e = s.epoch in
  (* mark the deleted processor's vnodes, then taint every ancestor *)
  List.iter (fun v -> s.mark.(v.id) <- e + 1) marked;
  let rec taint_up v =
    match v.parent with
    | Some p when s.mark.(p.id) < e ->
      s.mark.(p.id) <- e;
      taint_up p
    | _ -> ()
  in
  List.iter taint_up marked;
  let roots =
    (* distinct tree roots containing marked vnodes *)
    let collect acc v =
      let r = root_of v in
      if s.seen.(r.id) = e then acc
      else begin
        s.seen.(r.id) <- e;
        r :: acc
      end
    in
    List.fold_left collect [] marked
  in
  (* Nset size: virtual neighbours of the deleted processor's vnodes *)
  let notified =
    let count_neighbors acc (v : vnode) =
      let n = (match v.parent with Some _ -> 1 | None -> 0) in
      let n = n + (match v.left with Some _ -> 1 | None -> 0) in
      let n = n + (match v.right with Some _ -> 1 | None -> 0) in
      acc + n
    in
    List.fold_left count_neighbors (List.length fresh) marked
  in
  let t_strip = Fg_obs.Profile.start () in
  let initial_discarded, num_fids =
    Fg_obs.Trace.with_span "rt.strip" (fun sp ->
        let discarded, num_fids = decompose ctx ~epoch:e roots in
        if Fg_obs.Trace.enabled () then begin
          Fg_obs.Trace.attr sp "trees" (Fg_obs.Event.Int (List.length roots));
          Fg_obs.Trace.attr sp "pool" (Fg_obs.Event.Int s.pool_len);
          Fg_obs.Trace.count_span sp "rt.helpers_discarded" discarded
        end;
        (discarded, num_fids))
  in
  Fg_obs.Profile.stamp Fg_obs.Profile.Strip t_strip;
  Fg_obs.Metrics.incr "rt.strip_calls";
  if Fg_obs.Metrics.is_recording () then
    Fg_obs.Metrics.incr ~n:initial_discarded "rt.helpers_discarded";
  (* group pool entries into fragments: thread a per-fid chain through the
     pool buffer (reverse scan, so chains run in visit order), then emit one
     Roots unit per non-empty fragment *)
  if Array.length s.frag_head < num_fids then
    s.frag_head <- Array.make (max 16 (2 * num_fids)) (-1)
  else Array.fill s.frag_head 0 num_fids (-1);
  if Array.length s.pool_next < s.pool_len then
    s.pool_next <- Array.make (Array.length s.pool_v) 0;
  for k = s.pool_len - 1 downto 0 do
    let f = s.pool_fid.(k) in
    s.pool_next.(k) <- s.frag_head.(f);
    s.frag_head.(f) <- k
  done;
  let fragment_units = ref [] in
  for f = num_fids - 1 downto 0 do
    if s.frag_head.(f) >= 0 then begin
      let rec chain k = if k < 0 then [] else s.pool_v.(k) :: chain s.pool_next.(k) in
      fragment_units := Roots (chain s.frag_head.(f)) :: !fragment_units
    end
  done;
  (* drop scratch references to stripped subtrees so the arena does not
     keep dead trees alive until the next heal overwrites the slots *)
  Array.fill s.pool_v 0 s.pool_len dummy_vnode;
  s.pool_len <- 0;
  let fresh_units = List.map (fun h -> Roots [ fresh_leaf ctx h ]) fresh in
  let units =
    let us = !fragment_units @ fresh_units in
    (* the common all-fresh case arrives already ordered (leaf ids ascend
       in creation order); [List.sort] is stable, so skipping it on sorted
       input yields the identical unit sequence without the O(n log n)
       mergesort allocation *)
    let rec is_sorted = function
      | a :: (b :: _ as tl) -> unit_order a b <= 0 && is_sorted tl
      | _ -> true
    in
    if is_sorted us then us else List.sort unit_order us
  in
  let anchors = List.length units in
  let t_merge = Fg_obs.Profile.start () in
  let root, levels =
    Fg_obs.Trace.with_span "rt.merge" (fun sp ->
        let root, levels = btv_reduce ctx ~record units in
        if Fg_obs.Trace.enabled () || Fg_obs.Metrics.is_recording () then begin
          let created, restripped =
            List.fold_left
              (List.fold_left (fun (c, d) ev -> (c + ev.me_created, d + ev.me_discarded)))
              (0, 0) levels
          in
          Fg_obs.Trace.attr sp "anchors" (Fg_obs.Event.Int anchors);
          Fg_obs.Trace.attr sp "levels" (Fg_obs.Event.Int (List.length levels));
          (match root with
          | Some r -> Fg_obs.Trace.attr sp "haft_leaves" (Fg_obs.Event.Int r.leaves)
          | None -> ());
          Fg_obs.Trace.count_span sp "rt.helpers_created" created;
          Fg_obs.Trace.count_span sp "rt.reps_consumed" created;
          Fg_obs.Trace.count_span sp "rt.helpers_discarded" restripped;
          Fg_obs.Metrics.incr "rt.merge_calls";
          Fg_obs.Metrics.incr ~n:created "rt.helpers_created";
          Fg_obs.Metrics.incr ~n:created "rt.reps_consumed";
          Fg_obs.Metrics.incr ~n:restripped "rt.helpers_discarded";
          match root with
          | Some r -> Fg_obs.Metrics.observe "rt.haft_leaves" (float_of_int r.leaves)
          | None -> ()
        end;
        (root, levels))
  in
  Fg_obs.Profile.stamp Fg_obs.Profile.Merge t_merge;
  let trace =
    {
      ht_anchors = anchors;
      ht_notified = notified;
      ht_initial_discarded = initial_discarded;
      ht_levels = levels;
      ht_root = root;
    }
  in
  (root, trace)

(* ---- traversal / export ---- *)

let iter_tree f root =
  let rec go v =
    f v;
    Option.iter go v.left;
    Option.iter go v.right
  in
  go root

let leaves_of root =
  let acc = ref [] in
  iter_tree (fun v -> if v.kind = Leaf then acc := v :: !acc) root;
  List.rev !acc

let rt_roots ctx =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let record _half leaf =
    let r = root_of leaf in
    if not (Hashtbl.mem seen r.id) then begin
      Hashtbl.replace seen r.id ();
      acc := r :: !acc
    end
  in
  Edge.Half.Tbl.iter record ctx.leaf_tbl;
  List.sort (fun a b -> compare a.id b.id) !acc

let rec to_haft v =
  match (v.left, v.right) with
  | None, None -> Fg_haft.Haft.Leaf v.half
  | Some l, Some r -> Fg_haft.Haft.node (to_haft l) (to_haft r)
  | _ -> invalid_arg "Rt.to_haft: malformed vnode (one child)"

let all_leaves ctx = Edge.Half.Tbl.fold (fun _ v acc -> v :: acc) ctx.leaf_tbl []
let all_helpers ctx = Edge.Half.Tbl.fold (fun _ v acc -> v :: acc) ctx.helper_tbl []

let helper_count ctx p =
  Edge.Half.Tbl.fold
    (fun half _ acc -> if Node_id.equal half.Edge.Half.proc p then acc + 1 else acc)
    ctx.helper_tbl 0

let pp_vnode ppf v =
  let k = match v.kind with Leaf -> "leaf" | Helper -> "helper" in
  Format.fprintf ppf "%s#%d %a (leaves=%d h=%d)" k v.id Edge.Half.pp v.half v.leaves
    v.height
