(* Hybrid bitset/sorted-list integer sets.

   The hot paths of the library (the write–scan engines, the fuzzing
   harness, the model-checking codecs) manipulate sets of small
   non-negative integers — group identifiers, typically below ten.  Those
   are packed into a single immutable word: element [i] is bit [i], for
   [i] in [0 .. Sys.int_size - 2] (0..61 on 64-bit), exactly the domain
   {!to_bits} has always supported.  Union, intersection, difference,
   subset, equality and comparability are then one or two word
   operations.  Sets containing any element outside that window fall back
   to the strictly-sorted-list representation of {!Sorted_set.Make}.

   Canonical representation.  A set is [Bits] iff {e every} element lies
   in the small window — including the empty set — and [Wide] lists are
   strictly sorted; every operation below re-normalizes.  Hence equal
   sets are structurally equal and hash identically, the contract the
   model checker's state hashing depends on (the sorted-list
   implementation had the same property, and test/test_iset_diff.ml
   checks the two agree operation-by-operation across the boundary). *)

type elt = int

(* Bits 0 .. small_limit-1 of a non-negative OCaml int. *)
let small_limit = Sys.int_size - 1
let is_small x = x >= 0 && x < small_limit

type t =
  | Bits of int  (** all elements in [0, small_limit); the canonical form *)
  | Wide of int list
      (** strictly sorted; contains at least one element outside the
          window *)

(* ---- sorted-list primitives for the Wide fallback --------------------- *)

let rec l_mem (x : elt) = function
  | [] -> false
  | y :: rest -> if x = y then true else if x < y then false else l_mem x rest

let rec l_add (x : elt) = function
  | [] -> [ x ]
  | y :: rest as s ->
      if x = y then s else if x < y then x :: s else y :: l_add x rest

let rec l_remove (x : elt) = function
  | [] -> []
  | y :: rest as s ->
      if x = y then rest else if x < y then s else y :: l_remove x rest

let rec l_union (a : elt list) (b : elt list) =
  match (a, b) with
  | [], s | s, [] -> s
  | x :: xs, y :: ys ->
      if x = y then x :: l_union xs ys
      else if x < y then x :: l_union xs b
      else y :: l_union a ys

let rec l_inter (a : elt list) (b : elt list) =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
      if x = y then x :: l_inter xs ys
      else if x < y then l_inter xs b
      else l_inter a ys

let rec l_diff (a : elt list) (b : elt list) =
  match (a, b) with
  | [], _ -> []
  | s, [] -> s
  | x :: xs, y :: ys ->
      if x = y then l_diff xs ys
      else if x < y then x :: l_diff xs b
      else l_diff a ys

let rec l_subset (a : elt list) (b : elt list) =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: xs, y :: ys ->
      if x = y then l_subset xs ys else if x < y then false else l_subset a ys

let rec l_compare (a : elt list) (b : elt list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs, y :: ys ->
      let c = Int.compare x y in
      if c <> 0 then c else l_compare xs ys

(* ---- mask primitives -------------------------------------------------- *)

let bit_index pow =
  (* [pow] is a power of two; its exponent. *)
  let rec go i v = if v = 1 then i else go (i + 1) (v lsr 1) in
  go 0 pow

let popcount b =
  let rec go b acc = if b = 0 then acc else go (b land (b - 1)) (acc + 1) in
  go b 0

let mask_elements b =
  let rec go b acc =
    if b = 0 then List.rev acc
    else
      let low = b land -b in
      go (b lxor low) (bit_index low :: acc)
  in
  go b []

(* Mask of the in-window elements of a sorted list. *)
let mask_of_in_window l =
  List.fold_left (fun acc x -> if is_small x then acc lor (1 lsl x) else acc) 0 l

(* Re-establish the invariant on a strictly sorted list. *)
let norm_sorted l =
  if List.for_all is_small l then
    Bits (List.fold_left (fun acc x -> acc lor (1 lsl x)) 0 l)
  else Wide l

let to_sorted_list = function Bits b -> mask_elements b | Wide l -> l

(* ---- the Sorted_set.S operations -------------------------------------- *)

let empty = Bits 0
let is_empty = function Bits 0 -> true | _ -> false
let singleton x = if is_small x then Bits (1 lsl x) else Wide [ x ]

let mem x = function
  | Bits b -> is_small x && b land (1 lsl x) <> 0
  | Wide l -> l_mem x l

let add x = function
  | Bits b when is_small x -> Bits (b lor (1 lsl x))
  | (Bits _ | Wide _) as s -> norm_sorted (l_add x (to_sorted_list s))

let remove x = function
  | Bits b -> if is_small x then Bits (b land lnot (1 lsl x)) else Bits b
  | Wide l -> norm_sorted (l_remove x l)

let union a b =
  match (a, b) with
  | Bits x, Bits y -> Bits (x lor y)
  (* A [Wide] operand keeps its out-of-window element in the union, so no
     re-normalization is needed. *)
  | _ -> Wide (l_union (to_sorted_list a) (to_sorted_list b))

let inter a b =
  match (a, b) with
  | Bits x, Bits y -> Bits (x land y)
  | Bits x, Wide l | Wide l, Bits x -> Bits (x land mask_of_in_window l)
  | Wide x, Wide y -> norm_sorted (l_inter x y)

let diff a b =
  match (a, b) with
  | Bits x, Bits y -> Bits (x land lnot y)
  | Bits x, Wide l -> Bits (x land lnot (mask_of_in_window l))
  | Wide _, _ -> norm_sorted (l_diff (to_sorted_list a) (to_sorted_list b))

let subset a b =
  match (a, b) with
  | Bits x, Bits y -> x land lnot y = 0
  | Bits x, Wide l -> x land lnot (mask_of_in_window l) = 0
  (* A Wide set owns an element no Bits set can contain. *)
  | Wide _, Bits _ -> false
  | Wide x, Wide y -> l_subset x y

(* Canonical representation: equal sets have the same constructor and
   the same payload, so set equality is compared case by case, with
   monomorphic int compares instead of the runtime's polymorphic [=]. *)
let equal a b =
  match (a, b) with
  | Bits x, Bits y -> x = y
  | Wide x, Wide y -> List.equal Int.equal x y
  | Bits _, Wide _ | Wide _, Bits _ -> false

let strict_subset a b = subset a b && not (equal a b)
let comparable a b = subset a b || subset b a

let compare a b =
  match (a, b) with
  | Bits x, Bits y ->
      (* Lexicographic on the sorted element sequences, matching the
         sorted-list order: strip the common low bits, then the set
         holding the smaller next element is smaller — unless it has no
         next element at all (a prefix is smaller). *)
      if x = y then 0
      else
        let d = x lxor y in
        let low = d land -d in
        if x land low <> 0 then if y land lnot (low - 1) = 0 then 1 else -1
        else if x land lnot (low - 1) = 0 then -1
        else 1
  | _ -> l_compare (to_sorted_list a) (to_sorted_list b)

let cardinal = function Bits b -> popcount b | Wide l -> List.length l
let elements = to_sorted_list
let of_list l = norm_sorted (List.sort_uniq Int.compare l)

let fold f s acc =
  match s with
  | Bits b ->
      let rec go b acc =
        if b = 0 then acc
        else
          let low = b land -b in
          go (b lxor low) (f (bit_index low) acc)
      in
      go b acc
  | Wide l -> List.fold_left (fun acc x -> f x acc) acc l

let iter f = function
  | Bits b ->
      let rec go b =
        if b <> 0 then begin
          let low = b land -b in
          f (bit_index low);
          go (b lxor low)
        end
      in
      go b
  | Wide l -> List.iter f l

let for_all f = function
  | Bits b ->
      let rec go b =
        b = 0
        ||
        let low = b land -b in
        f (bit_index low) && go (b lxor low)
      in
      go b
  | Wide l -> List.for_all f l

let exists f = function
  | Bits b ->
      let rec go b =
        b <> 0
        &&
        let low = b land -b in
        f (bit_index low) || go (b lxor low)
      in
      go b
  | Wide l -> List.exists f l

let filter f = function
  | Bits b ->
      let rec go b acc =
        if b = 0 then Bits acc
        else
          let low = b land -b in
          go (b lxor low) (if f (bit_index low) then acc lor low else acc)
      in
      go b 0
  | Wide l -> norm_sorted (List.filter f l)

let map f s = of_list (List.map f (to_sorted_list s))

let min_elt_opt = function
  | Bits 0 -> None
  | Bits b -> Some (bit_index (b land -b))
  | Wide l -> ( match l with [] -> None | x :: _ -> Some x)

let max_elt_opt = function
  | Bits 0 -> None
  | Bits b ->
      let rec go i v = if v = 1 then i else go (i + 1) (v lsr 1) in
      Some (go 0 b)
  | Wide l -> (
      let rec last = function
        | [] -> None
        | [ x ] -> Some x
        | _ :: rest -> last rest
      in
      last l)

let choose_opt = min_elt_opt

let rank x s =
  match s with
  | Bits b ->
      if is_small x && b land (1 lsl x) <> 0 then
        Some (1 + popcount (b land ((1 lsl x) - 1)))
      else None
  | Wide l ->
      let rec go i = function
        | [] -> None
        | y :: rest -> if x = y then Some i else if x < y then None else go (i + 1) rest
      in
      go 1 l

let union_all l = List.fold_left union empty l

let pp pp_elt ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ",") pp_elt) (elements s)

(* ---- integer-specific helpers ----------------------------------------- *)

let of_range lo hi =
  if lo > hi then empty
  else if lo >= 0 && hi < small_limit then
    (* hi+1 low bits minus the lo low bits, careful at the top bit *)
    Bits (lnot 0 lsr (Sys.int_size - 1 - hi) land lnot ((1 lsl lo) - 1))
  else
    let rec go i acc = if i < lo then acc else go (i - 1) (add i acc) in
    go hi empty

let to_bits = function
  | Bits b -> b
  | Wide _ -> invalid_arg "Iset.to_bits: element out of range"

let of_bits bits = if bits <= 0 then empty else Bits bits
let pp_set = pp Fmt.int
let to_string s = Fmt.str "%a" pp_set s
