(* Self-benchmark of the simulator: simulated steps per wall-clock
   second, swept over thread counts and structures.

   Every figure panel's cost is (steps of simulation) x (wall time per
   step), and the second factor is pure harness overhead — the
   scheduler, the dirty-cell tracking, the effect-handler fiber switch.
   This bench pins that factor so scheduler regressions show up in the
   perf trajectory rather than silently inflating CI time. Steps/sec is
   the right metric (not ops/sec): it is what the scheduler rewrite
   changes, and it is comparable across structures whose per-operation
   step counts differ.

   Three panels:
   - [list]: Harris list under the nvt policy, 30% updates — the
     workhorse workload of the figure panels;
   - [hash]: hash table under the nvt policy, 30% updates — near-O(1)
     operations, so more of each step is harness;
   - [evict]: Harris list, write-only mix with the random-eviction
     adversary on — exercises the dirty-set tracking (the crashlab
     configuration).

   The sweep extends past the panels' 1–64 threads to 128 because the
   pre-rewrite scheduler cost O(threads) per step: the top of the sweep
   is where a regression back to linear scanning is unmissable. Each
   configuration reports the best of [reps] runs — the simulator is
   deterministic, so variation is machine noise and the minimum is the
   honest estimate. *)

module Machine = Nvt_sim.Machine
module Cost_model = Nvt_nvm.Cost_model
module I = Nvt_harness.Instances
module Workload = Nvt_workload.Workload
module Record = Nvt_harness.Record

type panel = {
  p_name : string;
  p_structure : string;  (* key in the Instances registry *)
  p_update_pct : int;
  p_eviction : float;  (* 0.0 = adversary off *)
}

let panels =
  [ { p_name = "list"; p_structure = "list"; p_update_pct = 30;
      p_eviction = 0.0 };
    { p_name = "hash"; p_structure = "hash"; p_update_pct = 30;
      p_eviction = 0.0 };
    { p_name = "evict"; p_structure = "list"; p_update_pct = 100;
      p_eviction = 0.05 } ]

let structure key =
  match List.assoc_opt key I.structures with
  | Some s -> s
  | None -> invalid_arg ("selfperf: unknown structure " ^ key)

let nvt_policy =
  match I.flavour "nvt" with
  | Some f -> f.I.policy
  | None -> invalid_arg "selfperf: nvt policy missing from registry"

(* One measured run: prefill, spawn, time Machine.run. Returns (steps,
   wall seconds). *)
let measure ~seed ~range ~total_ops (p : panel) ~threads =
  let module S = (val I.instantiate (structure p.p_structure) nvt_policy) in
  let eviction =
    if p.p_eviction > 0.0 then Machine.Random_eviction p.p_eviction
    else Machine.No_eviction
  in
  let m = Machine.create ~seed ~cost:Cost_model.nvram ~eviction ~jitter:2 () in
  let s = S.create () in
  List.iter
    (fun k -> if k < range then ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  Machine.persist_all m;
  let base = total_ops / threads in
  let rem = total_ops mod threads in
  let mix = Workload.updates ~pct:p.p_update_pct in
  for tid = 0 to threads - 1 do
    let per_thread = base + if tid < rem then 1 else 0 in
    let g = Workload.gen ~seed:((seed * 977) + tid) ~mix ~range in
    if per_thread > 0 then
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to per_thread do
               match Workload.next g with
               | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
               | Workload.Delete k -> ignore (S.delete s k)
               | Workload.Lookup k -> ignore (S.member s k)
             done))
  done;
  let t0 = Unix.gettimeofday () in
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let dt = Unix.gettimeofday () -. t0 in
  (Machine.steps m, dt)

(* Domain-scaling series: D independent simulations (the parallel
   runner's shape — one machine per domain, no sharing) forked over a
   {!Nvt_sim.Domain_pool}, wall-clocked across the join. Work grows
   with D (each domain simulates its own full workload), so perfect
   scaling is a flat wall clock: steps/sec growing ~D-fold. Past the
   host's core count aggregate steps/sec stops growing and wall time
   grows D-fold instead. *)
let measure_domains (p : panel) ~seed ~range ~total_ops ~domains
    ~threads_per_domain =
  let pool = Nvt_sim.Domain_pool.create domains in
  let steps = Array.make domains 0 in
  Fun.protect
    ~finally:(fun () -> Nvt_sim.Domain_pool.shutdown pool)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Nvt_sim.Domain_pool.run pool (fun d ->
          let s, _ =
            measure ~seed:(seed + (101 * d)) ~range ~total_ops p
              ~threads:threads_per_domain
          in
          steps.(d) <- s);
      let dt = Unix.gettimeofday () -. t0 in
      (Array.fold_left ( + ) 0 steps, dt))

(* A row's metrics: the step count is simulated (it repeats for a
   seed), the rate is host time. *)
let rate ~steps ~seconds =
  [ Record.count "steps" steps;
    Record.wall ~unit:"steps/s" "steps_per_s" (float_of_int steps /. seconds) ]

let run ?json_path ~quick ~seed () =
  let thread_counts =
    if quick then [ 1; 8; 32; 64 ]
    else [ 1; 2; 4; 8; 16; 32; 48; 64; 96; 128 ]
  in
  let total_ops = if quick then 6_000 else 40_000 in
  let reps = if quick then 1 else 3 in
  let range = 256 in
  Printf.printf
    "simulator self-benchmark (%s): simulated steps per wall second\n%!"
    (if quick then "quick" else "full");
  let rows =
    List.concat_map
      (fun p ->
        List.map
          (fun threads ->
            let best = ref None in
            for _ = 1 to reps do
              let steps, dt = measure ~seed ~range ~total_ops p ~threads in
              match !best with
              | Some (_, dt') when dt' <= dt -> ()
              | _ -> best := Some (steps, dt)
            done;
            let steps, seconds = Option.get !best in
            { Record.table = "threads";
              labels = [ ("panel", p.p_name); ("threads", string_of_int threads) ];
              metrics = rate ~steps ~seconds })
          thread_counts)
      panels
  in
  let domain_counts = if quick then [ 1; 2; 4 ] else [ 1; 2; 4; 8 ] in
  let threads_per_domain = 32 in
  let dpanel = List.hd panels in
  let domain_rows =
    List.map
      (fun domains ->
        (* steps summed over the domains' machines, seconds across the
           fork/join *)
        let steps, seconds =
          measure_domains dpanel ~seed ~range ~total_ops ~domains
            ~threads_per_domain
        in
        { Record.table = "domains";
          labels =
            [ ("panel", dpanel.p_name); ("domains", string_of_int domains);
              ("threads_per_domain", string_of_int threads_per_domain) ];
          metrics = rate ~steps ~seconds })
      domain_counts
  in
  let rows = rows @ domain_rows in
  Record.print rows;
  Record.finish ?json_path
    { bench = "selfperf";
      scale = (if quick then "quick" else "full");
      seed = Some seed;
      config =
        [ ("total_ops", Int total_ops);
          ("range", Int range);
          ("reps", Int reps);
          ( "panels",
            List
              (List.map
                 (fun (p : panel) ->
                   Nvt_harness.Json.Obj
                     [ ("panel", Str p.p_name);
                       ("structure", Str p.p_structure);
                       ("policy", Str "nvt");
                       ("update_pct", Int p.p_update_pct);
                       ("eviction", Float p.p_eviction) ])
                 panels) ) ];
      rows }
