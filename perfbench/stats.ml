(* Order statistics over timing samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Median of a non-empty array (mean of the middle pair when even). *)
let median a =
  let a = sorted a in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_l l = median (Array.of_list l)

(* Nearest-rank [p]-quantile of [a]; [None] unless at least [beyond]
   samples lie above it, so a tail percentile is only reported when it is
   backed by that many observations. *)
let quantile ?(beyond = 0) a p =
  let a = sorted a in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. float n)) in
  let rank = max 1 (min n rank) in
  if n = 0 || n - rank < beyond then None else Some a.(rank - 1)

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float (Array.length a)
