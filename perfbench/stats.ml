(* Growable sample buffers and exact order statistics. *)

module Vec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 256 0.; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0. in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let length v = v.len
  let to_array v = Array.sub v.data 0 v.len
  let append ~into v = for i = 0 to v.len - 1 do push into v.data.(i) done
  let sum v =
    let s = ref 0. in
    for i = 0 to v.len - 1 do s := !s +. v.data.(i) done;
    !s
end

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile: the sample of rank ceil (q * n). *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n land 1 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let vquantile v q = quantile (Vec.to_array v) q
let vmedian v = median (Vec.to_array v)

let mean a =
  if Array.length a = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* The highest of the usual percentiles that still has at least ten
   samples above it, or [None] below 20 samples. *)
let resolvable_percentile n =
  List.find_opt
    (fun p -> float_of_int n *. (1. -. (p /. 100.)) >= 10.)
    [ 99.9; 99.; 95.; 90.; 75.; 50. ]
