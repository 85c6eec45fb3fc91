(* Splitmix-style generator on the native word.  The original
   implementation was textbook splitmix64 over boxed [Int64]; every draw
   allocated a handful of boxes, which made the scheduler the largest
   allocator in the fuzzing harness's per-step profile.  This version runs
   the same mix structure on OCaml's untagged 63-bit [int] (multiplication
   wraps modulo 2^63, identically on every 64-bit platform), so drawing is
   allocation-free.  The stream differs from the Int64 version's; nothing
   in the library pins specific stream values, only reproducibility from a
   seed. *)

type t = { mutable state : int }

(* The splitmix64 constants truncated to fit a 63-bit literal; still odd,
   still avalanche well at this width. *)
let golden_gamma = 0x1E3779B97F4A7C15

let mix z =
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let create ~seed = { state = mix seed }
let copy t = { state = t.state }

let next t =
  t.state <- t.state + golden_gamma;
  mix t.state

let split t = { state = mix (next t) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Masking keeps the draw non-negative; modulo bias is negligible for
     the small bounds used here. *)
  next t land max_int mod bound

let bool t = next t land 1 = 1

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l -> List.nth l (int t (List.length l))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n Fun.id in
  shuffle_in_place t a;
  a
