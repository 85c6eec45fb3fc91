open Repro_util

type t = { perms : Permutation.t array; inverses : Permutation.t array }

let make perms =
  let n = Array.length perms in
  if n = 0 then invalid_arg "Wiring.make: no processors";
  let m = Permutation.size perms.(0) in
  Array.iter
    (fun p ->
      if Permutation.size p <> m then
        invalid_arg "Wiring.make: permutations of unequal size")
    perms;
  { perms = Array.copy perms; inverses = Array.map Permutation.inverse perms }

let identity ~n ~m = make (Array.init n (fun _ -> Permutation.identity m))
let random rng ~n ~m = make (Array.init n (fun _ -> Permutation.random rng m))
let of_lists lists = make (Array.of_list (List.map Permutation.of_list lists))
let processors t = Array.length t.perms
let registers t = Permutation.size t.perms.(0)
let phys t ~p i = Permutation.apply t.perms.(p) i
let local_of_phys t ~p r = Permutation.apply t.inverses.(p) r
let perm t ~p = t.perms.(p)

let enumerate ~n ~m ~fix_first =
  let all = Permutation.enumerate m in
  let choices p = if fix_first && p = 0 then [ Permutation.identity m ] else all in
  let rec go p =
    if p = n then [ [] ]
    else
      List.concat_map
        (fun perm -> List.map (fun rest -> perm :: rest) (go (p + 1)))
        (choices p)
  in
  List.map (fun perms -> make (Array.of_list perms)) (go 0)

let enumerate_classes ~n ~m =
  (* Orbit key seen from pivot [j]: renormalize so that [j]'s wiring is
     the identity (compose everything with [sigma_j^{-1}], a global
     register renaming) and forget the order of the other processors.
     Two normalized wirings are processor-relabelling-equivalent iff
     some pivots give them the same key; the canonical representative
     is the tuple that spells out its own minimal key in order. *)
  let key_at perms j =
    let inv = Permutation.inverse perms.(j) in
    let rest = ref [] in
    for k = Array.length perms - 1 downto 0 do
      if k <> j then
        rest := Permutation.to_list (Permutation.compose inv perms.(k)) :: !rest
    done;
    List.sort compare !rest
  in
  List.filter
    (fun t ->
      let own = List.map Permutation.to_list (List.tl (Array.to_list t.perms)) in
      own = key_at t.perms 0
      && List.for_all
           (fun j -> compare own (key_at t.perms j) <= 0)
           (List.init (n - 1) (fun j -> j + 1)))
    (enumerate ~n ~m ~fix_first:true)

let classes_of_inputs inputs =
  let n = Array.length inputs in
  Array.init n (fun p ->
      let rec first q = if inputs.(q) = inputs.(p) then q else first (q + 1) in
      first 0)

let automorphisms t ~classes =
  let n = processors t and m = registers t in
  if Array.length classes <> n then
    invalid_arg "Wiring.automorphisms: classes array has wrong arity";
  let class_preserving pi =
    let ok = ref true in
    for p = 0 to n - 1 do
      if classes.(Permutation.apply pi p) <> classes.(p) then ok := false
    done;
    !ok
  in
  List.filter_map
    (fun pi ->
      if not (class_preserving pi) then None
      else
        (* The register permutation is forced: moving processor 0's slot to
           processor [pi 0] rewires reads of physical register sigma_0(i) to
           sigma_{pi 0}(i), so rho = sigma_{pi 0} o sigma_0^{-1}; the pair is
           an automorphism only if the same rho reconciles every processor. *)
        let rho =
          Permutation.compose
            t.perms.(Permutation.apply pi 0)
            t.inverses.(0)
        in
        let consistent = ref true in
        for p = 0 to n - 1 do
          if
            not
              (Permutation.equal
                 t.perms.(Permutation.apply pi p)
                 (Permutation.compose rho t.perms.(p)))
          then consistent := false
        done;
        if !consistent then Some (pi, rho) else None)
    (Permutation.enumerate n)
  |> fun syms ->
  assert (
    List.exists
      (fun (pi, rho) ->
        Permutation.equal pi (Permutation.identity n)
        && Permutation.equal rho (Permutation.identity m))
      syms);
  syms

let equal a b =
  Array.length a.perms = Array.length b.perms
  && Array.for_all2 Permutation.equal a.perms b.perms

let pp ppf t =
  Fmt.pf ppf "[%a]"
    Fmt.(array ~sep:(any "; ") Permutation.pp)
    t.perms
