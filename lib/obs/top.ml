type row = { r_hdr : Hdr.t; mutable r_total_ns : int }

type t = {
  window : float;
  rows : (string, row) Hashtbl.t;
  heal_ts : float Queue.t;
  delta_ts : float Queue.t;
  mutable now : float;
  mutable first : float; (* < 0 until the first event *)
  mutable stat : Event.attrs;
  mutable events : int;
}

let create ?(window = 10.0) () =
  {
    window;
    rows = Hashtbl.create 16;
    heal_ts = Queue.create ();
    delta_ts = Queue.create ();
    now = 0.;
    first = -1.;
    stat = [];
    events = 0;
  }

let row t name =
  match Hashtbl.find_opt t.rows name with
  | Some r -> r
  | None ->
    let r = { r_hdr = Hdr.create (); r_total_ns = 0 } in
    Hashtbl.replace t.rows name r;
    r

let trim t q =
  while (not (Queue.is_empty q)) && Queue.peek q < t.now -. t.window do
    ignore (Queue.pop q)
  done

let feed t e =
  t.events <- t.events + 1;
  let ts = Event.ts e in
  if t.first < 0. then t.first <- ts;
  if ts > t.now then t.now <- ts;
  (match e with
  | Event.Span_end { name; dur; ts; _ } ->
    let r = row t name in
    let ns = int_of_float (dur *. 1e9) in
    Hdr.record r.r_hdr ns;
    r.r_total_ns <- r.r_total_ns + ns;
    (match name with
    | "fg.delete" -> Queue.push ts t.heal_ts
    | _ -> ())
  | Event.Point { name = "fg.delta"; ts; _ } -> Queue.push ts t.delta_ts
  | Event.Point { name = "fg.stat"; attrs; _ } -> t.stat <- attrs
  | _ -> ());
  trim t t.heal_ts;
  trim t t.delta_ts

let events_seen t = t.events

let rate t q =
  if Queue.is_empty q then 0.
  else
    let span = t.now -. t.first in
    let span = if span > t.window then t.window else span in
    let span = if span < 1e-3 then 1e-3 else span in
    float_of_int (Queue.length q) /. span

let heal_rate t = rate t t.heal_ts
let delta_rate t = rate t t.delta_ts

let fmt_ns ns =
  let f = float_of_int ns in
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if ns < 1_000_000_000 then Printf.sprintf "%.2fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

let fmt_value = function
  | Event.Int i -> string_of_int i
  | Event.Float x -> Printf.sprintf "%.3g" x
  | Event.Str s -> s
  | Event.Bool b -> string_of_bool b

let max_rows = 14

let render ?(ansi = false) t =
  let buf = Buffer.create 1024 in
  if ansi then Buffer.add_string buf "\027[H\027[2J";
  Printf.bprintf buf "fg top — %d events, window %.1fs (stream time)\n" t.events
    t.window;
  Printf.bprintf buf "heals/s %8.1f    deltas/s %8.1f\n\n" (heal_rate t)
    (delta_rate t);
  let rows =
    Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.rows []
    |> List.sort (fun (_, a) (_, b) -> compare b.r_total_ns a.r_total_ns)
  in
  if rows <> [] then begin
    Printf.bprintf buf "%-22s %8s %9s %9s %9s %9s %9s\n" "phase" "n" "p50"
      "p90" "p99" "p99.9" "max";
    List.iteri
      (fun i (name, r) ->
        if i < max_rows then
          let h = r.r_hdr in
          Printf.bprintf buf "%-22s %8d %9s %9s %9s %9s %9s\n" name
            (Hdr.count h) (fmt_ns (Hdr.p50 h)) (fmt_ns (Hdr.p90 h))
            (fmt_ns (Hdr.p99 h))
            (fmt_ns (Hdr.p999 h))
            (fmt_ns (Hdr.max_value h)))
      rows;
    if List.length rows > max_rows then
      Printf.bprintf buf "… %d more phases\n" (List.length rows - max_rows)
  end
  else Buffer.add_string buf "(no spans yet)\n";
  if t.stat <> [] then begin
    Buffer.add_string buf "\nstat:";
    List.iter
      (fun (k, v) -> Printf.bprintf buf " %s=%s" k (fmt_value v))
      t.stat;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf
