(** Symmetry canonicalization of encoded states under full anonymity.

    Full anonymity is a symmetry theorem in disguise: all processors run
    the same program, so two processors with the same input are
    behaviourally identical, and the registers have no global names, so
    relabelling physical registers is invisible to every program.  For a
    {e fixed} wiring, however, not every relabelling is sound — a
    processor permutation [pi] changes which hidden permutation each local
    state is interpreted through, so it must be compensated by the unique
    register permutation [rho = sigma_{pi 0} ∘ sigma_0⁻¹], and only when
    the same [rho] reconciles {e every} processor is the pair an
    automorphism of the transition system ({!Anonmem.Wiring.automorphisms}
    computes exactly this subgroup; its documentation carries the proof
    sketch).  This is why the naive "sort local-state slices within each
    input class and sort register slices" recipe is {e unsound}: it
    quotients by permutations outside the group and silently merges
    genuinely distinct states.  We instead canonicalize by {b orbit
    minimum}: the representative is the lexicographically least image of
    the encoded key under the group.  The group has at most [n!] elements
    ([n <= 4] in any feasible exploration), and orbit-minimum is
    trivially idempotent and constant on orbits.  No image is built to
    find the minimum: {!make} turns each group element into a byte-gather
    map, the scan compares each candidate image against the best one so
    far byte by byte through the two maps (most comparisons stop inside
    the first local slice), and only the winner is materialised — the key
    itself when the identity wins.  The exact engines store packed keys
    ({!Key_layout}): {!pack_least} packs the winner straight through its
    gather map, and {!image} builds it wide only for a state not seen
    before.

    Canonicalization operates directly on the byte-string state encodings
    of {!Explorer.CHECKABLE} protocols: permuting processors permutes the
    fixed-width local slices, permuting registers permutes the value
    slices, and local states carry over {e verbatim} — private register
    indices inside a local state (scan cursors, write cursors) need no
    relabelling because they are reinterpreted through the moved wiring
    permutation.  A key is exactly the state image: anything longer or
    shorter is refused.  See DESIGN.md
    §"Symmetry reduction" for the soundness argument and for why named
    processors would break it. *)

open Repro_util

type sym = { pi : int array; rho : int array }
(** One automorphism, as raw image arrays: processor [p]'s slice moves to
    slot [pi.(p)], register [r]'s slice to slot [rho.(r)]. *)

type t = {
  n : int;
  m : int;
  lw : int;  (** local slice width, bytes *)
  vw : int;  (** register slice width, bytes *)
  body : int;  (** [n*lw + m*vw]: the bytes the group permutes *)
  group : sym list;  (** the full group, identity first *)
  elements : sym array;  (** [group], indexable *)
  gathers : int array array;
      (** one byte-gather map per element of [group], in its order: byte
          [i < body] of the element's image is [key.[g.(i)]] *)
}

let of_permutation p = Array.init (Permutation.size p) (Permutation.apply p)

let make ~local_width:lw ~value_width:vw ~wiring ~classes =
  let n = Anonmem.Wiring.processors wiring in
  let m = Anonmem.Wiring.registers wiring in
  let body = (n * lw) + (m * vw) in
  let group =
    Anonmem.Wiring.automorphisms wiring ~classes
    |> List.map (fun (pi, rho) ->
           { pi = of_permutation pi; rho = of_permutation rho })
  in
  let is_identity s =
    Array.for_all2 ( = ) s.pi (Array.init n Fun.id)
    && Array.for_all2 ( = ) s.rho (Array.init m Fun.id)
  in
  let identity, nontrivial = List.partition is_identity group in
  let group = identity @ nontrivial in
  let gather s =
    let g = Array.make body 0 in
    for p = 0 to n - 1 do
      for j = 0 to lw - 1 do
        g.((s.pi.(p) * lw) + j) <- (p * lw) + j
      done
    done;
    let roff = n * lw in
    for r = 0 to m - 1 do
      for j = 0 to vw - 1 do
        g.(roff + (s.rho.(r) * vw) + j) <- roff + (r * vw) + j
      done
    done;
    g
  in
  {
    n;
    m;
    lw;
    vw;
    body;
    group;
    elements = Array.of_list group;
    gathers = Array.of_list (List.map gather group);
  }

let is_trivial t = Array.length t.gathers = 1
let group t = t.group
let group_order t = Array.length t.gathers

(** Element [k] of {!group}, the index {!pack_least} returns. *)
let element t k = t.elements.(k)

let check_key t who len =
  if len <> t.body then invalid_arg (who ^ ": key is not the state image")

(** Apply one automorphism to an encoded key of exactly the
    [n*lw + m*vw] state image.  This is the reference semantics the tests
    hold {!canonicalize} to. *)
let apply t s key =
  check_key t "Canon.apply" (String.length key);
  let out = Bytes.of_string key in
  for p = 0 to t.n - 1 do
    Bytes.blit_string key (p * t.lw) out (s.pi.(p) * t.lw) t.lw
  done;
  let roff = t.n * t.lw in
  for r = 0 to t.m - 1 do
    Bytes.blit_string key
      (roff + (r * t.vw))
      out
      (roff + (s.rho.(r) * t.vw))
      t.vw
  done;
  Bytes.unsafe_to_string out

(* Sign of image [g] against image [h] of [key] from byte [i] on, read in
   place through the two gather maps.  Callers have checked that [key] is
   [body] bytes; every map entry is below [body]. *)
let rec compare_images key g h body i =
  if i = body then 0
  else
    let c =
      Char.code (Bytes.unsafe_get key (Array.unsafe_get g i))
      - Char.code (Bytes.unsafe_get key (Array.unsafe_get h i))
    in
    if c <> 0 then c else compare_images key g h body (i + 1)

(* Index in [group] of the least image of [key]: the [String.compare]
   minimum over the group, the earlier element on ties (so the identity,
   index 0, whenever the key is its own minimum). *)
let least t key =
  let best = ref 0 in
  for k = 1 to Array.length t.gathers - 1 do
    if compare_images key t.gathers.(k) t.gathers.(!best) t.body 0 < 0 then
      best := k
  done;
  !best

(** [image t key k] is image [k] (an index into {!group}) of the wide
    [key], built through its gather map. *)
let image t key k =
  check_key t "Canon.image" (Bytes.length key);
  let g = t.gathers.(k) in
  let out = Bytes.create t.body in
  for i = 0 to t.body - 1 do
    Bytes.unsafe_set out i (Bytes.unsafe_get key (Array.unsafe_get g i))
  done;
  Bytes.unsafe_to_string out

(** Orbit minimum of [key] under the group — the canonical representative.
    Idempotent, and constant on orbits (two keys canonicalize equally iff
    some group element maps one to the other).  Returns [key] itself when
    it is its own minimum, and otherwise allocates exactly the result.
    @raise Invalid_argument on a key that is not the state image. *)
let canonicalize t key =
  check_key t "Canon.canonicalize" (String.length key);
  let b = Bytes.unsafe_of_string key in
  match least t b with 0 -> key | k -> image t b k

(** [pack_least t layout key dst]: [dst] holds the wide [key] packed
    under [layout]; rewrite it as the packed orbit minimum,
    [Key_layout.pack layout (canonicalize t key)], and return the
    winner's index for {!image}.  The identity wins most often and then
    [dst] is left as it is; otherwise the winner is packed straight
    through its gather map, never built.  Allocates nothing.
    @raise Key_layout.Field_overflow as [Key_layout.pack] does. *)
let pack_least t layout key dst =
  check_key t "Canon.pack_least" (Bytes.length key);
  let k = least t key in
  if k <> 0 then Key_layout.pack_gather layout key t.gathers.(k) dst;
  k
