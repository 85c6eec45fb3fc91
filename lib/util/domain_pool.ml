(* The persistent worker pool; see the interface. *)

let mutex = Mutex.create ()
let work_available = Condition.create ()
let job_done = Condition.create ()
let jobs : (unit -> unit) Queue.t = Queue.create ()
let shutting_down = ref false
let spawned = ref 0
let handles : unit Domain.t list ref = ref []

(* Hard cap on pool workers, comfortably below the runtime's 128-domain
   recommendation ceiling (the caller's own domain and any unrelated
   domains need room too). *)
let max_workers = 64

let rec worker_loop () =
  Mutex.lock mutex;
  let rec await () =
    if !shutting_down then None
    else if Queue.is_empty jobs then begin
      Condition.wait work_available mutex;
      await ()
    end
    else Some (Queue.pop jobs)
  in
  match await () with
  | None -> Mutex.unlock mutex
  | Some job ->
      Mutex.unlock mutex;
      job ();
      worker_loop ()

(* Grow the pool to [k] workers (bounded by [max_workers]); no-op once
   they exist.  Workers adopt the spawning domain's minor-heap size:
   [Gc.set] is domain-local in OCaml 5, and a freshly spawned domain
   falls back to the (small) OCAMLRUNPARAM default.  Minor collections
   are stop-the-world across {e all} domains, so one worker left on a
   256k-word minor heap would drag every domain — including the caller —
   into its frequent collections, which on a single-core host costs a
   scheduler round-trip each time. *)
let ensure k =
  Mutex.lock mutex;
  let k = min k max_workers in
  let gc = Gc.get () in
  let worker () =
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = gc.Gc.minor_heap_size };
    worker_loop ()
  in
  while (not !shutting_down) && !spawned < k do
    incr spawned;
    handles := Domain.spawn worker :: !handles
  done;
  Mutex.unlock mutex

let size () =
  Mutex.lock mutex;
  let n = !spawned in
  Mutex.unlock mutex;
  n

let parallel ~domains f =
  let nd = max 1 domains in
  if nd = 1 then f 0
  else begin
    ensure (nd - 1);
    let remaining = ref (nd - 1) in
    let pool_error = ref None in
    let finish err =
      Mutex.lock mutex;
      (match err with
      | Some _ when !pool_error = None -> pool_error := err
      | _ -> ());
      decr remaining;
      if !remaining = 0 then Condition.broadcast job_done;
      Mutex.unlock mutex
    in
    Mutex.lock mutex;
    for w = 1 to nd - 1 do
      Queue.push
        (fun () ->
          match f w with
          | () -> finish None
          | exception e -> finish (Some e))
        jobs
    done;
    Condition.broadcast work_available;
    Mutex.unlock mutex;
    let own_error = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock mutex;
    while !remaining > 0 do
      Condition.wait job_done mutex
    done;
    let err = match own_error with Some _ -> own_error | None -> !pool_error in
    Mutex.unlock mutex;
    match err with Some e -> raise e | None -> ()
  end

let () =
  at_exit (fun () ->
      Mutex.lock mutex;
      shutting_down := true;
      Condition.broadcast work_available;
      let hs = !handles in
      handles := [];
      Mutex.unlock mutex;
      List.iter Domain.join hs)
