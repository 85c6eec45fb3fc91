(* The host-speed reference.

   On shared VMs identical units run up to 2x slower, or 20% faster, for
   a minute or more at a time, and no run length that fits the time
   budget averages over episodes that long.  So the parent runs this
   fixed computation in a fresh child process before and after every
   unit, and reports a unit's times divided by the reference's.  It
   calls no library code, so only the host moves it.  Its three kernels
   follow what the workloads are sensitive to: memory latency (a pointer
   chase through an 8 MiB table, like the visited-set probes), allocation
   and hashing of short strings (like the GC-heavy engines), and first
   touches of fresh pages (every unit is a fresh process).  On a 2-vCPU
   VM, the spread of ten 15 s runs' medians reached 0.22 in seconds and
   0.07 in units of this reference. *)

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let chase table =
  let x = ref 1 and acc = ref 0 in
  for _ = 1 to 300_000 do
    x := table.(!x);
    acc := ((!acc * 31) + !x) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc)

let strings () =
  let h = Hashtbl.create 16 in
  for i = 1 to 40_000 do
    Hashtbl.replace h (string_of_int (i * 7919) ^ "-key-payload") i
  done;
  ignore (Sys.opaque_identity (Hashtbl.length h))

let fresh_pages () =
  let b = Bytes.create (32 lsl 20) in
  let i = ref 0 in
  while !i < Bytes.length b do
    Bytes.unsafe_set b !i 'x';
    i := !i + 4096
  done;
  ignore (Sys.opaque_identity b)

(* Seconds the three kernels take together, about 0.1 s at full speed. *)
let seconds () =
  let mask = (1 lsl 20) - 1 in
  let table = Array.init (1 lsl 20) (fun i -> ((i * 1664525) + 1013904223) land mask) in
  timed (fun () -> chase table) +. timed strings +. timed fresh_pages
