type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* SplitMix64 output mix (Steele, Lea & Flood 2014). [@inline] keeps
   the Int64 arithmetic unboxed: called out of line, mix64 boxes its
   argument and result, 12 minor words per {!derive_seed} (measured),
   which a million-flow set-up pays once per flow. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed = { state = mix64 (Int64.of_int seed) }
let state t = t.state
let set_state t s = t.state <- s

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t = { state = bits64 t }

(* Seed of an independent task stream, derived from a root seed and a
   stream index.  Mixing the root before adding [stream + 1] gammas
   reproduces the SplitMix64 stream-jump construction: distinct
   (root, stream) pairs land on uncorrelated points of the generator's
   2^64 cycle, so experiment cells sharing a root seed never share a
   random stream.  The top bit is cleared to keep the seed a
   non-negative OCaml int, printable and CLI-round-trippable. *)
let derive_seed ~root ~stream =
  let z =
    Int64.add (mix64 (Int64.of_int root))
      (Int64.mul golden_gamma (Int64.of_int (stream + 1)))
  in
  Int64.to_int (Int64.shift_right_logical (mix64 z) 1)

let float t =
  (* 53 high bits → uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so Int64.to_int cannot land on the native sign bit.
     Rejection-free: modulo bias is negligible for simulation bounds. *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
  v mod bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let exponential t ~mean =
  assert (mean > 0.);
  let u = 1. -. float t in
  -.mean *. Float.log u

let pareto t ~shape ~scale =
  assert (shape > 0. && scale > 0.);
  let u = 1. -. float t in
  scale /. Float.pow u (1. /. shape)

let normal t ~mu ~sigma =
  let u1 = 1. -. float t in
  let u2 = float t in
  let r = Float.sqrt (-2. *. Float.log u1) in
  mu +. (sigma *. r *. Float.cos (2. *. Float.pi *. u2))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
