(* Order statistics over a run's samples. *)

(* Linear interpolation between closest ranks (the "inclusive" method
   of Python's statistics.quantiles). *)
let quantile q l =
  match List.sort Float.compare l with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = int_of_float pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median l = quantile 0.5 l
