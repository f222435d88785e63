(* fg_lint — a compiler-libs lint pass that enforces the heal-path
   discipline of ARCHITECTURE.md as checkable rules instead of prose.

   The tool parses each [.ml] with the host compiler's parser
   ([Parse.implementation]) and walks the parsetree; no typechecking is
   performed, so rules that are really about types (R3) use a small
   syntactic type-guess pass that only fires on high-confidence evidence
   (annotations, known producers like [Adjacency.neighbors] or
   [List.sort Node_id.compare]). False negatives are acceptable; false
   positives are not — every rule errs on the side of silence.

   Rules (see ARCHITECTURE.md "Static analysis & sanitizers"):
     R1  no list-returning [Adjacency.neighbors] in hot-path modules
     R2  no [Hashtbl.hash] applied to tuple/constructor literals
     R3  no polymorphic [=]/[<>]/[compare]/[List.mem] on Node_id/Edge
     R4  allocating trace/metrics emission must be guarded by a
         recorder/[?events]/[Trace.enabled]/[Metrics.is_recording] check
     R5  every module under the configured roots has a matching [.mli]

   Suppression: a [(* fg-lint: allow R3 *)] comment anywhere on the
   offending line (or [allow all]). Configuration lives in fg_lint.conf.

   Usage:
     fg_lint [--conf FILE] [--json] [--only R1,R3] [--list-rules] PATH...
   Exit codes: 0 clean, 1 findings at severity error, 2 usage/IO error. *)

let version = "1.0"

(* ---------------- rule registry ---------------- *)

type severity = Error | Warning

type rule = { id : string; severity : severity; summary : string }

let rules : rule list =
  [
    {
      id = "R1";
      severity = Error;
      summary =
        "list-returning Adjacency.neighbors in a hot-path module (use \
         iter_neighbors/fold_neighbors/neighbors_into)";
    };
    {
      id = "R2";
      severity = Error;
      summary =
        "Hashtbl.hash applied to a tuple/constructor literal (boxes a fresh \
         value per call; use an arithmetic mix)";
    };
    {
      id = "R3";
      severity = Error;
      summary =
        "polymorphic =/<>/compare/List.mem on Node_id.t or Edge.t (use \
         Node_id.equal/Edge.equal and friends)";
    };
    {
      id = "R4";
      severity = Error;
      summary =
        "allocating trace/metrics/profile emission not guarded by a \
         recorder/?events/Trace.enabled/Metrics.is_recording/Profile.enabled \
         check";
    };
    { id = "R5"; severity = Error; summary = "module has no matching .mli" };
    {
      id = "R6";
      severity = Error;
      summary =
        "naked mutable state in a concurrency-scoped module (make it Atomic.t \
         / Bigarray, or declare ownership with a (* fg-lint: single-writer \
         <role> *) / guarded-by pragma)";
    };
    {
      id = "R7";
      severity = Error;
      summary =
        "unbalanced snapshot pin/unpin within a top-level binding, or a pin \
         that can escape on an exception path (use with_pin or Fun.protect)";
    };
    {
      id = "R8";
      severity = Error;
      summary =
        "Domain.spawn/Domain.join/Mutex/Condition outside the sanctioned \
         domain-management modules (route concurrency through Parallel)";
    };
    {
      id = "R9";
      severity = Error;
      summary =
        "blocking call (Unix.sleep*, Condition.wait, Mutex.lock, \
         Parallel.await) while a snapshot is pinned";
    };
  ]

let rule_by_id id = List.find_opt (fun r -> r.id = id) rules

type finding = {
  f_rule : string;
  f_severity : severity;
  f_file : string;
  f_line : int;
  f_col : int;
  f_msg : string;
}

let findings : finding list ref = ref []

let report ~rule ~loc msg =
  let r =
    match rule_by_id rule with
    | Some r -> r
    | None -> invalid_arg ("unknown rule " ^ rule)
  in
  let pos = loc.Location.loc_start in
  findings :=
    {
      f_rule = r.id;
      f_severity = r.severity;
      f_file = pos.Lexing.pos_fname;
      f_line = pos.Lexing.pos_lnum;
      f_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
      f_msg = msg;
    }
    :: !findings

(* ---------------- configuration ---------------- *)

type conf = {
  mutable enabled : string list; (* rule ids *)
  mutable hot_modules : string list; (* R1 scope: path prefixes *)
  mutable obs_modules : string list; (* R4 scope *)
  mutable mli_required : string list; (* R5 scope *)
  mutable conc_modules : string list; (* R6/R7/R9 scope *)
  mutable domain_sanctioned : string list; (* modules exempt from R8 *)
}

let default_conf () =
  {
    enabled = List.map (fun r -> r.id) rules;
    hot_modules = [ "lib/core"; "lib/graph/csr.ml"; "lib/graph/bfs.ml"; "lib/sim" ];
    obs_modules = [ "lib/core"; "lib/sim" ];
    mli_required = [ "lib" ];
    conc_modules =
      [
        "lib/graph/snapshot_store.ml";
        "lib/graph/parallel.ml";
        "lib/serve";
      ];
    domain_sanctioned = [ "lib/graph/parallel.ml" ];
  }

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char ',')
  |> List.filter (fun t -> t <> "")

let load_conf path =
  let conf = default_conf () in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       let line =
         match String.index_opt line '#' with
         | Some i -> String.sub line 0 i
         | None -> line
       in
       match String.index_opt line '=' with
       | None -> ()
       | Some i ->
         let key = String.trim (String.sub line 0 i) in
         let v = String.sub line (i + 1) (String.length line - i - 1) in
         let vals = split_ws (String.trim v) in
         (match key with
         | "rules" -> conf.enabled <- vals
         | "hot_modules" -> conf.hot_modules <- vals
         | "obs_modules" -> conf.obs_modules <- vals
         | "mli_required" -> conf.mli_required <- vals
         | "conc_modules" -> conf.conc_modules <- vals
         | "domain_sanctioned" -> conf.domain_sanctioned <- vals
         | _ ->
           Printf.eprintf "fg_lint: %s: unknown key %S (ignored)\n" path key)
     done
   with End_of_file -> ());
  close_in ic;
  conf

(* normalise ./foo//bar/../baz to the segment list [foo; baz] for scope
   matching *)
let normalize path =
  let parts =
    String.split_on_char '/' path |> List.filter (fun p -> p <> "" && p <> ".")
  in
  let rec collapse acc = function
    | [] -> List.rev acc
    | ".." :: rest -> (
      match acc with
      | top :: acc' when top <> ".." -> collapse acc' rest
      | _ -> collapse (".." :: acc) rest)
    | p :: rest -> collapse (p :: acc) rest
  in
  collapse [] parts

(* a scope matches when its segments appear contiguously, segment-aligned,
   anywhere in the file path — so "lib/core" covers lib/core/rt.ml whether
   the tool sees a repo-relative path, an absolute one, or a _build copy *)
let in_scope scope file =
  let fsegs = normalize file in
  let seg_prefix psegs l =
    let rec pre a b =
      match (a, b) with
      | [], _ -> true
      | x :: a', y :: b' when String.equal x y -> pre a' b'
      | _ -> false
    in
    pre psegs l
  in
  List.exists
    (fun p ->
      let psegs = normalize p in
      let rec at = function
        | [] -> false
        | _ :: tl as l -> seg_prefix psegs l || at tl
      in
      psegs <> [] && at fsegs)
    scope

(* ---------------- pragma suppression ---------------- *)

(* [pragmas.(line)] = rule ids allowed on that 1-based line ("all" allows
   everything). Scanned textually: the pragma is a comment, and comments
   are not part of the parsetree. *)
let scan_pragmas text =
  let tbl = Hashtbl.create 8 in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun i line ->
      let needle = "fg-lint: allow" in
      let nlen = String.length needle and llen = String.length line in
      let rec find j =
        if j + nlen > llen then ()
        else if String.sub line j nlen = needle then begin
          (* ids up to the end of the comment *)
          let rest = String.sub line (j + nlen) (llen - j - nlen) in
          let rest =
            match String.index_opt rest '*' with
            | Some k -> String.sub rest 0 k
            | None -> rest
          in
          Hashtbl.replace tbl (i + 1) (split_ws rest)
        end
        else find (j + 1)
      in
      find 0)
    lines;
  tbl

let suppressed pragmas rule line =
  match Hashtbl.find_opt pragmas line with
  | None -> false
  | Some ids -> List.mem "all" ids || List.mem rule ids

(* Ownership pragmas for R6: a mutable field / module-level ref whose line
   carries [(* fg-lint: single-writer <role> *)] or
   [(* fg-lint: guarded-by <lock> *)] declares who may write it, which is
   what the rule is really after — undocumented shared mutability. *)
let scan_ownership text =
  let tbl = Hashtbl.create 8 in
  let has_needle line needle =
    let nlen = String.length needle and llen = String.length line in
    let rec find j =
      if j + nlen > llen then false
      else String.sub line j nlen = needle || find (j + 1)
    in
    find 0
  in
  List.iteri
    (fun i line ->
      if has_needle line "fg-lint: single-writer" || has_needle line "fg-lint: guarded-by" then
        Hashtbl.replace tbl (i + 1) ())
    (String.split_on_char '\n' text);
  tbl

(* ---------------- Longident helpers ---------------- *)

let flatten lid = Longident.flatten lid

let rec last_two = function
  | [ a; b ] -> Some (a, b)
  | _ :: tl -> last_two tl
  | [] -> None

let last l = match List.rev l with x :: _ -> Some x | [] -> None

(* does the path end in [Module.name]? (any prefix, e.g. Fg_graph.Adjacency) *)
let ends_in lid (m, name) =
  match last_two (flatten lid) with Some (a, b) -> a = m && b = name | None -> false

(* ---------------- R3 type guesses ---------------- *)

type ty = Node | Edge | NodeList | EdgeList | TyRef of ty | Unknown

let elem = function NodeList -> Node | EdgeList -> Edge | _ -> Unknown
let listify = function Node -> NodeList | Edge -> EdgeList | _ -> Unknown
let is_scalar = function Node | Edge -> true | _ -> false
let is_list = function NodeList | EdgeList -> true | _ -> false

let ty_name = function
  | Node -> "Node_id.t"
  | Edge -> "Edge.t"
  | NodeList -> "Node_id.t list"
  | EdgeList -> "Edge.t list"
  | TyRef _ -> "ref"
  | Unknown -> "?"

open Parsetree

let rec ty_of_core_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, []) -> (
    match last_two (flatten txt) with
    | Some ("Node_id", "t") -> Node
    | Some ("Edge", "t") -> Edge
    | _ -> Unknown)
  | Ptyp_constr ({ txt = Lident "list"; _ }, [ t' ]) -> listify (ty_of_core_type t')
  | Ptyp_constr ({ txt = Lident "ref"; _ }, [ t' ]) -> TyRef (ty_of_core_type t')
  | _ -> Unknown

type env = (string * ty) list

let join a b = if a = b then a else Unknown

(* known producers; called only for applications with at least one arg *)
let rec apply_ty (env : env) fn (args : (Asttypes.arg_label * expression) list) =
  let unlabeled =
    List.filter_map
      (function Asttypes.Nolabel, e -> Some e | _ -> None)
      args
  in
  let arg n = List.nth_opt unlabeled n in
  let arg_ty n = match arg n with Some e -> ty_of env e | None -> Unknown in
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    let path = flatten txt in
    match last_two path with
    | Some ("Adjacency", ("neighbors" | "nodes")) -> NodeList
    | Some ("Set", "elements") when List.mem "Node_id" path -> NodeList
    | Some ("List", "hd") -> elem (arg_ty 0)
    | Some ("List", ("rev" | "tl")) -> arg_ty 0
    | Some ("List", ("filter" | "sort_uniq")) -> arg_ty 1
    | Some ("List", "append") -> join (arg_ty 0) (arg_ty 1)
    | Some ("List", "sort") -> (
      match arg 0 with
      | Some { pexp_desc = Pexp_ident { txt = cmp; _ }; _ }
        when ends_in cmp ("Node_id", "compare") -> NodeList
      | Some { pexp_desc = Pexp_ident { txt = cmp; _ }; _ }
        when ends_in cmp ("Edge", "compare") -> EdgeList
      | _ -> arg_ty 1)
    | Some ("Rng", "pick") -> elem (arg_ty 1)
    | _ -> (
      match path with
      | [ "ref" ] -> TyRef (arg_ty 0)
      | [ "!" ] -> ( match arg_ty 0 with TyRef t -> t | _ -> Unknown)
      | [ "@" ] -> join (arg_ty 0) (arg_ty 1)
      | _ -> Unknown))
  | Pexp_field (_, { txt = fld; _ }) -> (
    (* accessor-record calls: [h.Healer.live_nodes ()] *)
    match last (flatten fld) with Some "live_nodes" -> NodeList | _ -> Unknown)
  | _ -> Unknown

and ty_of (env : env) (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Lident x; _ } -> (
    match List.assoc_opt x env with Some t -> t | None -> Unknown)
  | Pexp_constraint (_, t) -> ty_of_core_type t
  | Pexp_apply (fn, args) -> apply_ty env fn args
  | Pexp_construct ({ txt = Lident "::"; _ }, Some { pexp_desc = Pexp_tuple [ hd; tl ]; _ })
    -> (
    match ty_of env hd with
    | (Node | Edge) as t -> listify t
    | _ -> ( match ty_of env tl with (NodeList | EdgeList) as l -> l | _ -> Unknown))
  | Pexp_ifthenelse (_, t, Some f) -> join (ty_of env t) (ty_of env f)
  | Pexp_sequence (_, e') | Pexp_letmodule (_, _, e') | Pexp_open (_, e') ->
    ty_of env e'
  | Pexp_let (_, _, _) -> Unknown (* body env differs; stay conservative *)
  | _ -> Unknown

(* extend [env] by matching [pat] against a value of type [t] *)
let rec bind_pat (env : env) (pat : pattern) (t : ty) =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> (txt, t) :: env
  | Ppat_alias (p, { txt; _ }) -> (txt, t) :: bind_pat env p t
  | Ppat_constraint (p, ct) -> bind_pat env p (ty_of_core_type ct)
  | Ppat_construct
      ({ txt = Lident "::"; _ }, Some (_, { ppat_desc = Ppat_tuple [ h; tl ]; _ }))
    ->
    let env = bind_pat env h (elem t) in
    bind_pat env tl t
  | Ppat_construct (_, Some (_, p)) -> bind_pat env p Unknown
  | Ppat_tuple ps -> List.fold_left (fun env p -> bind_pat env p Unknown) env ps
  | Ppat_or (a, b) -> bind_pat (bind_pat env a t) b t
  | _ -> env

(* ---------------- R4 helpers ---------------- *)

let emission_target lid =
  match last_two (flatten lid) with
  | Some ("Trace", (("count" | "count_span" | "attr" | "point") as f)) ->
    Some ("Trace." ^ f)
  | Some ("Metrics", (("incr" | "observe") as f)) -> Some ("Metrics." ^ f)
  | Some ("Profile", (("stamp" | "record_ns") as f)) -> Some ("Profile." ^ f)
  | Some ("Hdr", (("record" | "record_sharded") as f)) -> Some ("Hdr." ^ f)
  | _ -> None

(* an argument whose evaluation may allocate at the call site: anything
   but constants, variables, field loads and int arithmetic on those *)
let rec allocating_expr (e : expression) =
  match e.pexp_desc with
  | Pexp_constant _ | Pexp_ident _ -> false
  | Pexp_construct (_, None) -> false
  | Pexp_field (e', _) -> allocating_expr e'
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ }, args)
    when List.mem op
           [ "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr" ]
    ->
    List.exists (fun (_, a) -> allocating_expr a) args
  | _ -> true

let allocating_arg (lbl : Asttypes.arg_label) (e : expression) =
  match lbl with
  | Asttypes.Nolabel -> allocating_expr e
  | Asttypes.Labelled _ | Asttypes.Optional _ ->
    (* every labelled arg of an emission function is optional in Fg_obs
       ([?n], [?attrs]), so the call site boxes a [Some _] per call —
       allocating no matter how cheap the payload expression is *)
    ignore e;
    true

(* does this guard condition check whether observability is on? *)
let obs_guard_cond (e : expression) =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            (match last (flatten txt) with
            | Some ("events" | "record" | "recorder") -> found := true
            | _ -> ());
            if
              ends_in txt ("Trace", "enabled")
              || ends_in txt ("Metrics", "is_recording")
              || ends_in txt ("Profile", "enabled")
            then found := true)
          | Pexp_field (_, { txt; _ }) -> (
            match last (flatten txt) with
            | Some ("events" | "recorder") -> found := true
            | _ -> ())
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

let mentions_recorder (e : expression) =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } | Pexp_field (_, { txt; _ }) -> (
            match last (flatten txt) with
            | Some "recorder" -> found := true
            | _ -> ())
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* ---------------- R6 helpers ---------------- *)

(* a type that is intrinsically safe to share: an atomic cell, or an
   off-heap Bigarray (written through a published index protocol the lint
   cannot see, but racing on which cannot corrupt the OCaml heap) *)
let rec r6_safe_core_type (t : core_type) =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, args) ->
    let path = flatten txt in
    (match last_two path with Some ("Atomic", "t") -> true | _ -> List.mem "Bigarray" path)
    || List.exists r6_safe_core_type args
  | _ -> false

(* module-level [let x = ref e] (possibly under a type constraint) *)
let rec is_ref_binding (e : expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident "ref"; _ }; _ }, _) -> true
  | Pexp_constraint (e', _) -> is_ref_binding e'
  | _ -> false

(* ---------------- R8 classification ---------------- *)

(* Domain.self / recommended_domain_count are pure queries and stay legal
   everywhere (the sharded HDR histograms key on Domain.self); only
   lifecycle and lock primitives are corralled into sanctioned modules. *)
let r8_target lid =
  match last_two (flatten lid) with
  | Some ("Domain", (("spawn" | "join") as f)) -> Some ("Domain." ^ f)
  | Some ("Mutex", f) -> Some ("Mutex." ^ f)
  | Some ("Condition", f) -> Some ("Condition." ^ f)
  | _ -> None

(* ---------------- R7/R9 pin events ---------------- *)

(* The paired protocol the serving tier leans on: a snapshot pin.
   [pin]/[unpin]/[with_pin] bind tightly enough to match bare. *)
type pin_class = Pin_open | Pin_close | With_pin | Not_pin

let classify_pin path =
  match last path with
  | Some "pin" -> Pin_open
  | Some "unpin" -> Pin_close
  | Some "with_pin" -> With_pin
  | None | Some _ -> Not_pin

(* calls that park the calling domain (or sleep it): poison while holding
   a pin — a stalled reader stalls reclamation for everyone *)
let classify_blocking path =
  match last_two path with
  | Some ("Unix", (("sleep" | "sleepf") as f)) -> Some ("Unix." ^ f)
  | Some ("Condition", "wait") -> Some "Condition.wait"
  | Some ("Mutex", "lock") -> Some "Mutex.lock"
  | Some ("Parallel", "await") -> Some "Parallel.await"
  | _ -> ( match path with [ "await" ] -> Some "await" | _ -> None)

let is_raise_name path =
  match last path with
  | Some ("raise" | "raise_notrace" | "failwith" | "invalid_arg") -> true
  | None | Some _ -> false

type pevent =
  | Ev_open of Location.t
  | Ev_close
  | Ev_block of string * Location.t
  | Ev_raise of Location.t

let rec has_exception_pat (p : pattern) =
  match p.ppat_desc with
  | Ppat_exception _ -> true
  | Ppat_or (a, b) -> has_exception_pat a || has_exception_pat b
  | _ -> false

(* Linearize one top-level binding into protocol events, in source order.
   [sr] ("suppress raises") is set inside exception-safe regions — the
   body of [Fun.protect ~finally] and the body of a [try]/[match ... with
   exception ...] — where an escaping exception still runs the close. *)
let collect_pevents (top : expression) =
  let acc = ref [] in
  let push ev = acc := ev :: !acc in
  let rec go ~sr (e : expression) =
    match e.pexp_desc with
    | Pexp_apply (fn, args) -> (
      match fn.pexp_desc with
      | Pexp_ident { txt; _ } when ends_in txt ("Fun", "protect") ->
        let fin, rest =
          List.partition (fun (l, _) -> l = Asttypes.Labelled "finally") args
        in
        List.iter (fun (_, a) -> go ~sr:true a) rest;
        List.iter (fun (_, a) -> go ~sr a) fin
      | Pexp_ident { txt; _ } -> (
        let path = flatten txt in
        if (not sr) && is_raise_name path then push (Ev_raise e.pexp_loc);
        match classify_pin path with
        | With_pin ->
          push (Ev_open e.pexp_loc);
          List.iter (fun (_, a) -> go ~sr a) args;
          push Ev_close
        | Pin_open ->
          push (Ev_open e.pexp_loc);
          List.iter (fun (_, a) -> go ~sr a) args
        | Pin_close ->
          push Ev_close;
          List.iter (fun (_, a) -> go ~sr a) args
        | Not_pin ->
          (match classify_blocking path with
          | Some name -> push (Ev_block (name, e.pexp_loc))
          | None -> ());
          List.iter (fun (_, a) -> go ~sr a) args)
      | _ ->
        go ~sr fn;
        List.iter (fun (_, a) -> go ~sr a) args)
    | Pexp_try (body, cases) ->
      go ~sr:true body;
      List.iter
        (fun c ->
          Option.iter (go ~sr) c.pc_guard;
          go ~sr c.pc_rhs)
        cases
    | Pexp_match (scrut, cases) when List.exists (fun c -> has_exception_pat c.pc_lhs) cases
      ->
      go ~sr:true scrut;
      List.iter
        (fun c ->
          Option.iter (go ~sr) c.pc_guard;
          go ~sr c.pc_rhs)
        cases
    | _ ->
      let open Ast_iterator in
      let it = { default_iterator with expr = (fun _ e' -> go ~sr e') } in
      default_iterator.expr it e
  in
  go ~sr:false top;
  List.rev !acc

(* ---------------- per-file lint context ---------------- *)

type lint_ctx = {
  file : string;
  conf : conf;
  pragmas : (int, string list) Hashtbl.t;
  ownership : (int, unit) Hashtbl.t; (* lines with single-writer/guarded-by *)
  hot : bool; (* R1 applies *)
  obs : bool; (* R4 applies *)
  conc : bool; (* R6/R7/R9 apply *)
  sanctioned : bool; (* exempt from R8 *)
}

let rule_on ctx id = List.mem id ctx.conf.enabled

let emit ctx ~rule ~loc msg =
  let line = loc.Location.loc_start.Lexing.pos_lnum in
  if rule_on ctx rule && not (suppressed ctx.pragmas rule line) then
    report ~rule ~loc msg

let owned ctx loc = Hashtbl.mem ctx.ownership loc.Location.loc_start.Lexing.pos_lnum

(* R7/R9 over one binding's linearized events: walk the sequence tracking
   the pin depth; a blocking call at positive depth is R9, a raise at
   positive depth (outside an exception-safe region — those raises were
   already suppressed by the collector) is R7, and a depth left open at
   the end of the binding is R7. Extra closes are legal: a release-helper
   binding closes a pin its caller opened. *)
let analyze_pevents ctx ~(binding_loc : Location.t) events =
  if ctx.conc && (rule_on ctx "R7" || rule_on ctx "R9") then begin
    let depth = ref 0 and last_open = ref binding_loc in
    List.iter
      (function
        | Ev_open loc ->
          incr depth;
          last_open := loc
        | Ev_close -> depth := max 0 (!depth - 1)
        | Ev_block (name, loc) ->
          if !depth > 0 then
            emit ctx ~rule:"R9" ~loc
              (Printf.sprintf
                 "blocking call %s while holding Snapshot_store.pin/unpin; release \
                  before blocking (a parked holder stalls reclamation)"
                 name)
        | Ev_raise loc ->
          if !depth > 0 then
            emit ctx ~rule:"R7" ~loc
              "exception raised while a snapshot is pinned: the pin escapes if this \
               path is taken; use with_pin or Fun.protect ~finally:unpin")
      events;
    if !depth > 0 then
      emit ctx ~rule:"R7" ~loc:!last_open
        (Printf.sprintf
           "%d Snapshot_store.pin/unpin open(s) without a matching close in this \
            binding (the resource escapes; close on every path)"
           !depth)
  end

(* R6 over one type declaration: every mutable field in a
   concurrency-scoped module must be atomically typed, a Bigarray, or
   carry an ownership pragma on its line *)
let check_type_decl ctx (td : type_declaration) =
  if ctx.conc && rule_on ctx "R6" then
    match td.ptype_kind with
    | Ptype_record labels ->
      List.iter
        (fun ld ->
          if
            ld.pld_mutable = Asttypes.Mutable
            && (not (r6_safe_core_type ld.pld_type))
            && not (owned ctx ld.pld_loc)
          then
            emit ctx ~rule:"R6" ~loc:ld.pld_loc
              (Printf.sprintf
                 "mutable field %s.%s in a concurrency-scoped module: make it Atomic.t \
                  / Bigarray-backed, or document ownership with (* fg-lint: \
                  single-writer <role> *) / (* fg-lint: guarded-by <lock> *)"
                 td.ptype_name.txt ld.pld_name.txt))
        labels
    | _ -> ()

(* R6 over one module-level value binding: [let x = ref e] is shared
   mutable state with no stated owner (function-local refs are fine —
   they do not escape a single domain's stack without also tripping R6
   at their destination) *)
let check_value_binding_ref ctx (vb : value_binding) =
  if ctx.conc && rule_on ctx "R6" && is_ref_binding vb.pvb_expr && not (owned ctx vb.pvb_loc)
  then
    emit ctx ~rule:"R6" ~loc:vb.pvb_loc
      "module-level ref in a concurrency-scoped module: make it Atomic.t, or document \
       ownership with (* fg-lint: single-writer <role> *) / (* fg-lint: guarded-by \
       <lock> *)"

(* ---------------- the walker ---------------- *)

let check_apply ctx env ~guarded fn args loc =
  (* R1: any use of a list-returning neighbours accessor in a hot module
     (checked at the identifier, so partial applications count too) *)
  (match fn.pexp_desc with
  | Pexp_ident { txt; _ } when ctx.hot && ends_in txt ("Adjacency", "neighbors") ->
    emit ctx ~rule:"R1" ~loc
      "Adjacency.neighbors allocates a list per call on a hot path; use \
       iter_neighbors/fold_neighbors/neighbors_into"
  | _ -> ());
  (* R2: Hashtbl.hash over a freshly boxed literal *)
  (match fn.pexp_desc with
  | Pexp_ident { txt; _ } when ends_in txt ("Hashtbl", "hash") -> (
    match args with
    | (Asttypes.Nolabel, a) :: _ -> (
      match a.pexp_desc with
      | Pexp_tuple _ | Pexp_construct (_, Some _) | Pexp_record _
      | Pexp_variant (_, Some _) | Pexp_array _ ->
        emit ctx ~rule:"R2" ~loc
          "Hashtbl.hash over a tuple/constructor literal boxes a fresh value \
           per call; hash the components and mix arithmetically"
      | _ -> ())
    | _ -> ())
  | _ -> ());
  (* R3: polymorphic equality / compare / List.mem on Node_id or Edge *)
  (match fn.pexp_desc with
  | Pexp_ident { txt = Lident (("=" | "<>" | "compare") as op); _ } -> (
    match args with
    | [ (_, a); (_, b) ] ->
      let ta = ty_of env a and tb = ty_of env b in
      let bad = if is_scalar ta then Some ta else if is_scalar tb then Some tb else None in
      (match bad with
      | Some t ->
        emit ctx ~rule:"R3" ~loc
          (Printf.sprintf
             "polymorphic %s on a %s; use %s.equal/compare" op (ty_name t)
             (match t with Edge -> "Edge" | _ -> "Node_id"))
      | None -> ())
    | _ -> ())
  | Pexp_ident { txt; _ } when ends_in txt ("List", "mem") -> (
    match args with
    | [ (_, x); (_, l) ] ->
      let tx = ty_of env x and tl = ty_of env l in
      if is_scalar tx || is_list tl then
        let t = if is_scalar tx then tx else elem tl in
        emit ctx ~rule:"R3" ~loc
          (Printf.sprintf
             "List.mem uses polymorphic equality on %s; use List.exists (%s.equal x)"
             (ty_name t)
             (match t with Edge -> "Edge" | _ -> "Node_id"))
    | _ -> ())
  | _ -> ());
  (* R4: allocating emission outside a guard *)
  match fn.pexp_desc with
  | Pexp_ident { txt; _ } when ctx.obs && not guarded -> (
    match emission_target txt with
    | Some name when List.exists (fun (l, a) -> allocating_arg l a) args ->
      emit ctx ~rule:"R4" ~loc
        (Printf.sprintf
           "%s with computed arguments allocates even when observability is \
            off; guard with Fg_obs.Trace.enabled () / \
            Fg_obs.Metrics.is_recording () (or a recorder/?events check)"
           name)
    | _ -> ())
  | _ -> ()

let rec walk ctx (env : env) ~guarded (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    (* R8: even a mention (partial application, callback) counts — the
       primitive is escaping into unsanctioned code *)
    match r8_target txt with
    | Some name when not ctx.sanctioned ->
      emit ctx ~rule:"R8" ~loc:e.pexp_loc
        (Printf.sprintf
           "%s outside the sanctioned domain-management modules; route domain \
            lifecycle and locking through Parallel"
           name)
    | _ -> ())
  | Pexp_let (_, vbs, body) ->
    List.iter (fun vb -> walk ctx env ~guarded vb.pvb_expr) vbs;
    let env' =
      List.fold_left
        (fun acc vb -> bind_pat acc vb.pvb_pat (ty_of env vb.pvb_expr))
        env vbs
    in
    walk ctx env' ~guarded body
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (walk ctx env ~guarded) default;
    walk ctx (bind_pat env pat Unknown) ~guarded body
  | Pexp_function cases -> walk_cases ctx env ~guarded Unknown cases
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
    walk ctx env ~guarded scrut;
    let guarded = guarded || mentions_recorder scrut in
    walk_cases ctx env ~guarded (ty_of env scrut) cases
  | Pexp_ifthenelse (cond, then_, else_) ->
    walk ctx env ~guarded cond;
    walk ctx env ~guarded:(guarded || obs_guard_cond cond) then_;
    Option.iter (walk ctx env ~guarded) else_
  | Pexp_apply (fn, args) ->
    check_apply ctx env ~guarded fn args e.pexp_loc;
    walk ctx env ~guarded fn;
    List.iter (fun (_, a) -> walk ctx env ~guarded a) args
  | _ -> walk_children ctx env ~guarded e

and walk_cases ctx env ~guarded scrut_ty cases =
  List.iter
    (fun c ->
      let env' = bind_pat env c.pc_lhs scrut_ty in
      Option.iter (walk ctx env' ~guarded) c.pc_guard;
      walk ctx env' ~guarded c.pc_rhs)
    cases

and walk_children ctx env ~guarded e =
  (* generic descent: re-enter [walk] on each sub-expression, keeping the
     current environment and guard state *)
  let open Ast_iterator in
  let it = { default_iterator with expr = (fun _ e' -> walk ctx env ~guarded e') } in
  default_iterator.expr it e

let walk_structure ctx (str : structure) =
  let open Ast_iterator in
  let env = ref [] in
  let it =
    {
      default_iterator with
      expr = (fun _ e -> walk ctx !env ~guarded:false e);
      structure_item =
        (fun it item ->
          match item.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                walk ctx !env ~guarded:false vb.pvb_expr;
                check_value_binding_ref ctx vb;
                analyze_pevents ctx ~binding_loc:vb.pvb_loc (collect_pevents vb.pvb_expr))
              vbs;
            env :=
              List.fold_left
                (fun acc vb -> bind_pat acc vb.pvb_pat (ty_of !env vb.pvb_expr))
                !env vbs
          | Pstr_type (_, tds) -> List.iter (check_type_decl ctx) tds
          | _ -> default_iterator.structure_item it item);
    }
  in
  it.structure it str

(* ---------------- driving ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  text

let lint_file conf path =
  let text = read_file path in
  let ctx =
    {
      file = path;
      conf;
      pragmas = scan_pragmas text;
      ownership = scan_ownership text;
      hot = in_scope conf.hot_modules path;
      obs = in_scope conf.obs_modules path;
      conc = in_scope conf.conc_modules path;
      sanctioned = in_scope conf.domain_sanctioned path;
    }
  in
  (* R5: interface discipline *)
  if
    rule_on ctx "R5"
    && in_scope conf.mli_required path
    && not (Sys.file_exists (Filename.remove_extension path ^ ".mli"))
  then
    report ~rule:"R5"
      ~loc:
        Location.
          {
            loc_start = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
            loc_end = { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 };
            loc_ghost = false;
          }
      "module has no matching .mli (every module under lib/ exposes an \
       explicit interface)";
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  Location.input_name := path;
  match Parse.implementation lexbuf with
  | ast -> walk_structure ctx ast
  | exception exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok _) -> "syntax error"
      | _ -> Printexc.to_string exn
    in
    Printf.eprintf "fg_lint: %s: cannot parse (%s)\n" path msg;
    exit 2

let rec gather_ml path acc =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if entry = "_build" || (String.length entry > 0 && entry.[0] = '.') then acc
        else gather_ml (Filename.concat path entry) acc)
      acc (Sys.readdir path)
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

(* ---------------- output ---------------- *)

let severity_name = function Error -> "error" | Warning -> "warning"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print_json fs =
  print_string "{\"tool\":\"fg_lint\",\"version\":\"";
  print_string version;
  print_string "\",\"findings\":[";
  List.iteri
    (fun i f ->
      if i > 0 then print_char ',';
      Printf.printf
        "{\"rule\":%S,\"severity\":%S,\"file\":%S,\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
        f.f_rule (severity_name f.f_severity) f.f_file f.f_line f.f_col
        (json_escape f.f_msg))
    fs;
  Printf.printf "],\"count\":%d}\n" (List.length fs)

(* GitHub Actions workflow-command annotations: one ::error/::warning per
   finding, shown inline on the PR diff. Columns are 1-based there. *)
let print_github fs =
  List.iter
    (fun f ->
      Printf.printf "::%s file=%s,line=%d,col=%d::[%s] %s\n"
        (severity_name f.f_severity)
        f.f_file f.f_line (f.f_col + 1) f.f_rule f.f_msg)
    fs;
  Printf.printf "fg_lint: %d finding%s\n" (List.length fs)
    (if List.length fs = 1 then "" else "s")

let print_text fs =
  List.iter
    (fun f ->
      Printf.printf "%s:%d:%d: [%s] %s: %s\n" f.f_file f.f_line f.f_col f.f_rule
        (severity_name f.f_severity) f.f_msg)
    fs;
  match List.length fs with
  | 0 -> print_endline "fg_lint: no findings"
  | n -> Printf.printf "fg_lint: %d finding%s\n" n (if n = 1 then "" else "s")

(* ---------------- main ---------------- *)

let () =
  let conf_file = ref None
  and json = ref false
  and github = ref false
  and only = ref None
  and paths = ref [] in
  let usage () =
    prerr_endline
      "usage: fg_lint [--conf FILE] [--json] [--github] [--only R1,R3] [--list-rules] \
       PATH...";
    exit 2
  in
  let rec parse = function
    | "--conf" :: f :: rest ->
      conf_file := Some f;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--github" :: rest ->
      github := true;
      parse rest
    | "--only" :: ids :: rest ->
      only := Some (split_ws ids);
      parse rest
    | "--list-rules" :: _ ->
      List.iter
        (fun r -> Printf.printf "%s  [%s]  %s\n" r.id (severity_name r.severity) r.summary)
        rules;
      exit 0
    | "--help" :: _ | "-h" :: _ -> usage ()
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | p :: rest ->
      paths := p :: !paths;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !paths = [] then usage ();
  let conf =
    match !conf_file with
    | Some f when Sys.file_exists f -> load_conf f
    | Some f ->
      Printf.eprintf "fg_lint: config %s not found\n" f;
      exit 2
    | None -> default_conf ()
  in
  (match !only with
  | Some ids ->
    List.iter
      (fun id -> if rule_by_id id = None then (Printf.eprintf "fg_lint: unknown rule %s\n" id; exit 2))
      ids;
    conf.enabled <- ids
  | None -> ());
  let files =
    List.fold_left (fun acc p -> gather_ml p acc) [] (List.rev !paths)
    |> List.sort compare
  in
  List.iter (fun f -> lint_file conf f) files;
  (* fully deterministic order — (file, line, rule, col) — so --json
     output is byte-stable for CI diffing *)
  let fs =
    List.sort
      (fun a b ->
        match compare a.f_file b.f_file with
        | 0 -> (
          match compare a.f_line b.f_line with
          | 0 -> (
            match compare a.f_rule b.f_rule with 0 -> compare a.f_col b.f_col | c -> c)
          | c -> c)
        | c -> c)
      !findings
  in
  if !json then print_json fs else if !github then print_github fs else print_text fs;
  if List.exists (fun f -> f.f_severity = Error) fs then exit 1
