(* The two set workloads: [list-16t] (Harris list, nvt policy, sixteen
   simulated threads in a closed loop on the simulator) and
   [native-list] (Harris list with durable persistence on the native
   Atomic backend, two OCaml domains in a closed loop). *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Workload = Nvt_workload.Workload
module I = Nvt_harness.Instances

module type SET = Nvt_core.Set_intf.SET

let range = 1024
let mix = Workload.default
let cost = Nvt_nvm.Cost_model.nvram

(* ------------------------------------------------------------------ *)
(* list-16t                                                            *)
(* ------------------------------------------------------------------ *)

let sim_threads = 16
let sim_ops = 30_000

let list_set =
  I.instantiate
    (module Nvt_structures.Harris_list)
    (module Nvt_nvm.Policy.Nvtraverse)

module Traced_list = Span.Structure (Nvt_structures.Harris_list)

(* The same instance with every structure operation and every memory
   access (through the policy's [Apply]) recorded as a span. *)
let list_set_traced =
  I.instantiate
    (module Traced_list)
    (Span.policy (module Nvt_nvm.Policy.Nvtraverse))

type sim_rep = {
  host_s : float;  (* the closed loop only, probe slices excluded *)
  probe : float * float;
      (* probe slices run inside the loop: (probes' worth, host seconds) *)
  makespan : int;
  steps : int;
  stats : Stats.t;
  live_end : int;
  gc_minor : float;
  gc_major : int;
  error : string option;
}

(* The simulated-machine fingerprint two runs of one seed must share. *)
let fingerprint r =
  ( r.makespan,
    r.steps,
    r.live_end,
    Stats.total_shared_ops r.stats,
    r.stats.Stats.flushes,
    r.stats.fences,
    r.stats.allocs )

(* Mirrors [Nvt_harness.Throughput.run] (same machine seed and jitter,
   same per-thread generator seeds), with the results counted so the
   final size can be checked. *)
let sim_setup (type a) (module S : SET with type t = a) ~seed =
  let m = Machine.create ~seed ~cost ~jitter:2 () in
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  Machine.persist_all m;
  (m, s)

(* The closed loop runs in slices of [probe_every] virtual time units
   with a slice of [probe_scale] of the core probe between them, so the
   host's speed is sampled all through a repetition that takes seconds
   (probes between repetitions, seconds apart, missed much of its
   drift). The slicing does not change the simulation ([Machine.run]
   is [advance_to max_int]). *)
let probe_every = 100_000
let probe_scale = 1.0 /. 16.0

(* A traced repetition runs unsliced and stops recording when the
   closed loop ends, so the checks below stay out of the trace. *)
let sim_rep ?(traced = false) (module S : SET) ~seed ~ops =
  let m, s = Span.span Span.setup "setup" (fun () -> sim_setup (module S) ~seed) in
  let prefilled = S.size s in
  let inserted = ref 0 and deleted = ref 0 in
  let base = ops / sim_threads and rem = ops mod sim_threads in
  for tid = 0 to sim_threads - 1 do
    let n = base + if tid < rem then 1 else 0 in
    let g = Workload.gen ~seed:((seed * 977) + tid) ~mix ~range in
    if n > 0 then
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to n do
               match Workload.next g with
               | Workload.Insert k ->
                 if S.insert s ~key:k ~value:k then incr inserted
               | Workload.Delete k -> if S.delete s k then incr deleted
               | Workload.Lookup k -> ignore (S.member s k)
             done))
  done;
  let st0 = Stats.copy (Machine.stats m) and steps0 = Machine.steps m in
  let g0 = Measure.gc () in
  let slices = ref 0 and probe_s = ref 0.0 in
  let rec drive t =
    match Machine.advance_to m ~time:t with
    | `Barrier ->
      incr slices;
      probe_s :=
        !probe_s
        +. Measure.time_s (fun () ->
               Measure.probe_work ~scale:probe_scale Measure.core);
      drive (t + probe_every)
    | `Completed -> Machine.Completed
    | `Crashed_at t -> Machine.Crashed_at t
  in
  let t0 = Measure.now_ns () in
  let outcome =
    if traced then Span.span Span.sim "run" (fun () -> Machine.run m)
    else drive probe_every
  in
  let host_s = Measure.secs_since t0 -. !probe_s in
  if traced then Span.uninstall ();
  let g1 = Measure.gc () in
  let error =
    match outcome with
    | Machine.Crashed_at _ -> Some "list-16t: unexpected crash"
    | Machine.Completed -> (
      match S.check_invariants s with
      | exception Failure msg -> Some ("list-16t: invariant: " ^ msg)
      | () ->
        let want = prefilled + !inserted - !deleted in
        if S.size s <> want then
          Some
            (Printf.sprintf "list-16t: final size %d, expected %d" (S.size s)
               want)
        else None)
  in
  { host_s;
    probe = (float_of_int !slices *. probe_scale, !probe_s);
    makespan = max 1 (Machine.makespan m);
    steps = Machine.steps m - steps0;
    stats = Stats.diff ~after:(Machine.stats m) ~before:st0;
    live_end = Machine.live_cells m;
    gc_minor = g1.minor_words -. g0.minor_words;
    gc_major = g1.major_collections - g0.major_collections;
    error }

let list_setup ~seed =
  let (module S : SET) = list_set in
  ignore (sim_setup (module S) ~seed)

(* One traced closed loop on a fresh recorder. *)
let list_traced ~seed =
  let r = Span.for_simulator () in
  Span.install r;
  let t0 = Measure.now_ns () in
  let rep = sim_rep ~traced:true list_set_traced ~seed ~ops:sim_ops in
  let host_s = Measure.secs_since t0 in
  (rep, r, host_s)

(* ------------------------------------------------------------------ *)
(* native-list                                                         *)
(* ------------------------------------------------------------------ *)

module Native = Nvt_nvm.Native
module Pn = Nvt_nvm.Persist.Make (Native)
module Native_list = Nvt_structures.Harris_list.Make (Native) (Pn.Durable)
module Tn = Span.Mem (Native)
module Ptn = Nvt_nvm.Persist.Make (Tn)
module Native_list_traced =
  Span.Set (Nvt_structures.Harris_list.Make (Tn) (Ptn.Durable))

let native_domains = 2
let native_ops = 200_000 (* per domain *)

(* Tracing costs about ten times the operation itself here, so the
   traced loop is shorter. *)
let native_traced_ops = 50_000

type native_rep = {
  n_host_s : float;
  n_stats : Stats.t;
  p50_us : float;
  p99_us : float;
  kind_p50_us : float array;  (* insert, delete, lookup *)
  n_gc_minor : float;
  n_gc_major : int;
  n_error : string option;
  recorders : Span.t list;  (* traced runs: one per domain *)
}

let native_setup (type a) (module S : SET with type t = a) =
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  s

let native_rep_of (type a) (module S : SET with type t = a) ~traced ~seed ~ops =
  let s = Span.span Span.setup "setup" (fun () -> native_setup (module S)) in
  (* the main domain only waits from here on: stop its recorder *)
  if traced then Span.uninstall ();
  let prefilled = S.size s in
  Native.reset_stats ();
  let g0 = Measure.gc () in
  let t0 = Measure.now_ns () in
  let workers =
    List.init native_domains (fun d ->
        Domain.spawn (fun () ->
            let r =
              if traced then begin
                let r = Span.for_native () in
                Span.install r;
                Some r
              end
              else None
            in
            let g = Workload.gen ~seed:((seed * 977) + d) ~mix ~range in
            let lat = Array.make ops 0 and kind = Bytes.make ops '\000' in
            let ins = ref 0 and del = ref 0 in
            for i = 0 to ops - 1 do
              let op = Workload.next g in
              let a = Measure.now_ns () in
              (match op with
              | Workload.Insert k ->
                Bytes.unsafe_set kind i '\000';
                if S.insert s ~key:k ~value:k then incr ins
              | Workload.Delete k ->
                Bytes.unsafe_set kind i '\001';
                if S.delete s k then incr del
              | Workload.Lookup k ->
                Bytes.unsafe_set kind i '\002';
                ignore (S.member s k));
              lat.(i) <- Measure.now_ns () - a
            done;
            Span.uninstall ();
            (lat, kind, !ins, !del, r)))
  in
  let res = List.map Domain.join workers in
  let host_s = Measure.secs_since t0 in
  let g1 = Measure.gc () in
  let ins = List.fold_left (fun n (_, _, i, _, _) -> n + i) 0 res in
  let del = List.fold_left (fun n (_, _, _, d, _) -> n + d) 0 res in
  let error =
    match S.check_invariants s with
    | exception Failure msg -> Some ("native-list: invariant: " ^ msg)
    | () ->
      let want = prefilled + ins - del in
      if S.size s <> want then
        Some
          (Printf.sprintf "native-list: final size %d, expected %d" (S.size s)
             want)
      else None
  in
  (* a repetition keeps its percentiles, not its samples *)
  let lat = Array.concat (List.map (fun (l, _, _, _, _) -> l) res) in
  let kind = Bytes.concat Bytes.empty (List.map (fun (_, k, _, _, _) -> k) res) in
  let us p a = Measure.pct_int a p /. 1e3 in
  let of_kind k =
    let b = Measure.Ibuf.create () in
    Array.iteri
      (fun i l -> if Bytes.get kind i = Char.chr k then Measure.Ibuf.push b l)
      lat;
    Measure.Ibuf.contents b
  in
  { n_host_s = host_s;
    n_stats = Native.stats ();
    p50_us = us 0.5 lat;
    p99_us = us 0.99 lat;
    kind_p50_us = Array.init 3 (fun k -> us 0.5 (of_kind k));
    n_gc_minor = g1.minor_words -. g0.minor_words;
    n_gc_major = g1.major_collections - g0.major_collections;
    n_error = error;
    recorders = List.filter_map (fun (_, _, _, _, r) -> r) res }

let native_rep ~seed ~ops =
  native_rep_of (module Native_list) ~traced:false ~seed ~ops

let native_setup_only () = ignore (native_setup (module Native_list))

(* The traced run: one recorder per domain for the closed loops, and
   one on the main domain for set-up. *)
let native_traced ~seed =
  let main = Span.for_native () in
  Span.install main;
  let t0 = Measure.now_ns () in
  let rep =
    native_rep_of (module Native_list_traced) ~traced:true ~seed
      ~ops:native_traced_ops
  in
  let host_s = Measure.secs_since t0 in
  (rep, main :: rep.recorders, host_s)
