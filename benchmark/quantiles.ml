(* Medians and quartiles, computed exactly as Python's
   [statistics.median] and [statistics.quantiles(data, n=4)] (the
   default "exclusive" method) compute them, so the spreads this
   benchmark reports match the ones a reader recomputes from its raw
   values. *)

let sorted l = List.sort Float.compare l |> Array.of_list

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantiles.median: no data"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q2, q3); a single value is its own quartiles. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Quantiles.quartiles: no data"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
