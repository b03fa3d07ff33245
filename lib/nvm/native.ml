(* The native backend: locations are [Atomic.t] cells, threads are OCaml
   domains. There is no simulated persistence here — flush and fence only
   count (and optionally burn calibrated time), which is exactly what a
   deployment on real NVRAM hardware would compile them to ([clwb] /
   [sfence] have no observable effect until the power fails).

   Crash testing therefore lives in the simulator backend ([Sim_nvm]); the
   native backend is the implementation a downstream user runs. *)

type 'a loc = 'a Atomic.t

type any = Any : 'a loc -> any

(* Per-domain counters, registered globally so [stats] can aggregate.
   An exiting domain folds its counters into [retired] and leaves the
   registry, which therefore holds only live domains instead of growing
   with every domain ever spawned. *)

let registry : Stats.t list ref = ref []
let retired = Stats.zero ()
let registry_lock = Mutex.create ()

let local_stats : Stats.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = Stats.zero () in
      Mutex.lock registry_lock;
      registry := s :: !registry;
      Mutex.unlock registry_lock;
      Domain.at_exit (fun () ->
          Mutex.lock registry_lock;
          Stats.accumulate ~into:retired s;
          registry := List.filter (fun s' -> s' != s) !registry;
          Mutex.unlock registry_lock);
      s)

let stats () =
  let total = Stats.zero () in
  Mutex.lock registry_lock;
  List.iter (fun s -> Stats.accumulate ~into:total s) (retired :: !registry);
  Mutex.unlock registry_lock;
  total

let reset_stats () =
  Mutex.lock registry_lock;
  List.iter Stats.reset (retired :: !registry);
  Mutex.unlock registry_lock

(* Optional calibrated delays so that flush/fence cost something even on a
   machine without persistent memory; off by default. *)

let flush_spin = Atomic.make 0
let fence_spin = Atomic.make 0

let configure_delays ~flush_iters ~fence_iters =
  Atomic.set flush_spin flush_iters;
  Atomic.set fence_spin fence_iters

let spin n =
  for _ = 1 to n do
    ignore (Sys.opaque_identity ())
  done

let alloc v =
  let s = Domain.DLS.get local_stats in
  s.allocs <- s.allocs + 1;
  Atomic.make v

let read l =
  let s = Domain.DLS.get local_stats in
  s.reads <- s.reads + 1;
  Atomic.get l

let write l v =
  let s = Domain.DLS.get local_stats in
  s.writes <- s.writes + 1;
  Atomic.set l v

let cas l ~expected ~desired =
  let s = Domain.DLS.get local_stats in
  let ok = Atomic.compare_and_set l expected desired in
  Stats.record_cas s ~site:(Stats.take_site ()) ~ok;
  ok

let flush _l =
  let s = Domain.DLS.get local_stats in
  Stats.record_flush s ~site:(Stats.take_site ());
  spin (Atomic.get flush_spin)

let fence () =
  let s = Domain.DLS.get local_stats in
  Stats.record_fence s ~site:(Stats.take_site ());
  spin (Atomic.get fence_spin)

let flush_any (Any l) = flush l
