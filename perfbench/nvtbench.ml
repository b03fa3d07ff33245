(* The repository benchmark: four workloads, their end-to-end and
   per-layer metrics, and the correctness checks every run makes.

     nvtbench.exe --workload W --seed N --seconds S --trace 0|1
                  [--out DIR] [--commit C] [--source-digest D]
     nvtbench.exe --selftest

   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
   metrics are [end_to_end], with --trace 1 [per_layer]. The line
   before it is the full record (every metric computed, the workload
   config, seed, commit, nproc and OCaml version), also appended to
   DIR/records.jsonl; a traced run writes its spans to DIR as Chrome
   trace-event JSON. The exit status is 0 only when every check held.
   See README.md in this directory. *)

module Stats = Nvt_nvm.Stats
module Json = Nvt_harness.Json

let workloads = [ "list-16t"; "svc-perop"; "svc-crash"; "native-list" ]

(* The metrics BENCHMARK.json declares, in its order, with units. *)
let end_to_end =
  [ ("host_ops_per_s", "ops/s");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
    ("fences_per_op", "count/op");
    ("flushes_per_op", "count/op");
    ("accesses_per_op", "count/op") ]

let sites =
  [ "app";
    "nvt:ensure_reachable";
    "nvt:make_persistent";
    "nvt:crit_read";
    "nvt:crit_update";
    "nvt:crit_fence";
    "nvt:crit_flush";
    "nvt:return_fence";
    "svc:ledger_flush";
    "svc:ledger_fence";
    "svc:commit_flush";
    "svc:commit_fence";
    "svc:ckpt_flush";
    "svc:ckpt_fence";
    "svc:ckpt_commit_flush";
    "svc:ckpt_commit_fence" ]

let site_metric site = "site." ^ String.map (fun c -> if c = ':' then '.' else c) site

let per_layer =
  [ ("sim_mops", "Mops/s");
    ("ack_p50_vt", "vt");
    ("ack_p99_vt", "vt");
    ("max_rate_at_slo", "req/Mvt");
    ("recovery_vt_per_crash", "vt");
    ("failed_frac", "ratio");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("sim.steps_per_op", "count/op");
    ("sim.host_ns_per_step", "ns");
    ("sim.vt_per_op", "vt/op");
    ("sim.live_cells_end", "count");
    ("sim.live_cells_per_capacity", "ratio");
    ("nvm.reads_per_op", "count/op");
    ("nvm.writes_per_op", "count/op");
    ("nvm.cas_per_op", "count/op");
    ("nvm.cas_fail_ratio", "ratio");
    ("nvm.allocs_per_op", "count/op") ]
  @ List.concat_map
      (fun s ->
        [ (site_metric s ^ ".flushes_per_op", "count/op");
          (site_metric s ^ ".fences_per_op", "count/op") ])
      (sites @ [ "other" ])
  @ [ ("service.resent", "count");
      ("service.dedup_acks", "count");
      ("service.checkpoints", "count");
      ("service.ckpt_flushes_per_ckpt", "count");
      ("recovery.replayed_per_crash", "count");
      ("recovery.steps_per_crash", "count");
      ("recovery.steps_per_store_key", "count") ]
  @ List.concat_map
      (fun op ->
        [ ("structures." ^ op ^ "_vt_p50", "vt");
          ("structures." ^ op ^ "_reads_per_op", "count/op");
          ("structures." ^ op ^ "_us_p50", "us") ])
      (Array.to_list Span.op_names)
  @ [ ("gc.minor_words_per_op", "words/op"); ("gc.major_collections", "count") ]
  @ List.concat_map
      (fun l -> [ (l ^ ".vt_self_share", "ratio"); (l ^ ".host_self_share", "ratio") ])
      (Array.to_list Span.layers)
  @ [ ("trace.overhead_frac", "ratio");
      ("trace.spans", "count");
      ("host.raw_ops_per_s", "ops/s");
      ("host.raw_setup_s", "s");
      ("host.probe_s", "s") ]

(* ------------------------------------------------------------------ *)
(* One run                                                             *)
(* ------------------------------------------------------------------ *)

type run = {
  config : Json.t;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable reps : int;
  values : (string, float) Hashtbl.t;
  mutable context : (string * float) list;
      (* figures that explain the metrics without being one (sample
         counts, sizes): printed and recorded, never compared *)
  mutable rep_s : float list;  (* host seconds of each repetition *)
  mutable probe_s : float list;  (* the probe's host seconds after each *)
  mutable scale : float list;  (* each repetition's scale factor *)
}

let set run name v = Hashtbl.replace run.values name v
let note run name v = run.context <- run.context @ [ (name, v) ]
let error run msg = run.errors <- run.errors @ [ msg ]
let check run = function Some msg -> error run msg | None -> ()
let per n d = if d = 0 then Float.nan else float_of_int n /. float_of_int d
let medf f reps = Measure.median (List.map f reps)

(* Set-up takes milliseconds, so one sample is mostly noise: each
   repetition is preceded by this many timed set-ups, spreading the
   samples over the whole run, and [setup_s] is their median. *)
let setups_per_rep = 7

(* The host this benchmark runs on is shared, and its speed drifts by a
   third over minutes, far more than any bound worth setting. So every
   repetition (and every set-up sample) is timed next to the reference
   probe ([Measure.probe_work], which uses nothing from the library) and
   host times are reported at the reference speed: scaled by the
   probe's reference time over its time around them. The reference is
   the memory probe's typical time on the two-core host the bounds were
   set on, alone or with a second domain probing beside it. The raw
   figures and the probe times stay in the record. *)
let probe_ref_s ~domains = if domains = 1 then 0.075 else 0.09

(* The core probe's reference time, for probe slices run inside a
   repetition. *)
let core_ref_s = 0.055

(* Repeat [f] until [budget] seconds have passed, at least [min_reps]
   times. Returns each result, oldest first, with its scale factor:
   the probe's reference time over the mean of the probe times just
   before and just after it, or, when [within] gives the probe slices
   a result ran inside itself (probes' worth, host seconds), over
   their time per probe. [host_s] is a result's raw host seconds.
   Each repetition starts from a collected heap, so none pays for its
   predecessor's garbage. [heap_peak_mb] is read after the first repetition: the
   heap's top only grows, and later repetitions of the same work raise
   it by fragmentation alone, so a later reading would depend on how
   many repetitions the host's speed allowed. *)
let repeat ?(probe_domains = 1) ?within run ~budget ~min_reps ~setup ~host_s f =
  let probe_ref_s = probe_ref_s ~domains:probe_domains in
  let probe () =
    Gc.full_major ();
    Measure.probe_s ~domains:probe_domains
  in
  let t0 = Measure.now_ns () in
  (* the first probe runs after the first repetition, so that the heap
     reading sees the workload alone *)
  let rec go acc k =
    if k >= min_reps && Measure.secs_since t0 >= budget then List.rev acc
    else begin
      let su = List.init setups_per_rep (fun _ -> Measure.time_s setup) in
      Gc.full_major ();
      let r = f () in
      if k = 0 then set run "heap_peak_mb" (Measure.heap_peak_mb ());
      go ((r, su, probe ()) :: acc) (k + 1)
    end
  in
  let xs = go [] 0 in
  let probes = List.map (fun (_, _, p) -> p) xs in
  run.probe_s <- probes;
  run.rep_s <- List.map (fun (r, _, _) -> host_s r) xs;
  set run "host.probe_s" (Measure.median probes);
  (* the probe nearest before each repetition and its set-ups (the
     first has only the one after it) *)
  let before =
    List.filteri (fun i _ -> i < List.length xs) (List.hd probes :: probes)
  in
  set run "setup_s"
    (Measure.median
       (List.concat
          (List.map2
             (fun (_, su, _) p -> List.map (fun t -> t *. probe_ref_s /. p) su)
             xs before)));
  set run "host.raw_setup_s"
    (Measure.median (List.concat_map (fun (_, su, _) -> su) xs));
  let scaled =
    List.map2
      (fun (r, _, p) p' ->
        match within with
        | Some w ->
          let units, secs = w r in
          (r, core_ref_s *. units /. secs)
        | None -> (r, probe_ref_s /. ((p +. p') /. 2.0)))
      xs before
  in
  run.scale <- List.map snd scaled;
  scaled

(* Every simulated repetition of one seed must reproduce the first. *)
let same_fingerprint run name fp reps =
  match reps with
  | [] -> ()
  | r0 :: rest ->
    if List.exists (fun r -> fp r <> fp r0) rest then
      error run (name ^ ": repetitions of one seed differ in simulated metrics")

let nvm_metrics run (st : Stats.t) ~ops =
  set run "fences_per_op" (per st.fences ops);
  set run "flushes_per_op" (per st.flushes ops);
  set run "accesses_per_op" (per (Stats.total_shared_ops st) ops);
  set run "nvm.reads_per_op" (per st.reads ops);
  set run "nvm.writes_per_op" (per st.writes ops);
  set run "nvm.cas_per_op" (per st.cas ops);
  set run "nvm.cas_fail_ratio" (per st.cas_failures st.cas);
  set run "nvm.allocs_per_op" (per st.allocs ops);
  let of_ = ref 0 and oe = ref 0 in
  List.iter
    (fun (name, (s : Stats.site)) ->
      if List.mem name sites then begin
        set run (site_metric name ^ ".flushes_per_op") (per s.s_flushes ops);
        set run (site_metric name ^ ".fences_per_op") (per s.s_fences ops)
      end
      else begin
        of_ := !of_ + s.s_flushes;
        oe := !oe + s.s_fences
      end)
    (Stats.sites st);
  set run "site.other.flushes_per_op" (per !of_ ops);
  set run "site.other.fences_per_op" (per !oe ops)

let span_metrics run (s : Span.summary) ~traced_s ~untraced_s =
  let hs = Span.shares s.host_self and vs = Span.shares s.vt_self in
  Array.iteri
    (fun i l ->
      set run (l ^ ".host_self_share") hs.(i);
      set run (l ^ ".vt_self_share") vs.(i))
    Span.layers;
  set run "trace.overhead_frac" (traced_s /. untraced_s);
  set run "trace.spans" (float_of_int s.spans);
  Array.iteri
    (fun k op ->
      set run ("structures." ^ op ^ "_vt_p50") s.op_vt_p50.(k);
      set run ("structures." ^ op ^ "_reads_per_op") s.op_reads_per_op.(k))
    Span.op_names

let trace_path ~out ~workload ~seed =
  Filename.concat out (Printf.sprintf "trace-%s-seed%d.json" workload seed)

let capacity = Nvt_nvm.Cost_model.nvram.capacity_lines

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* Host throughput of repetitions [(result, scale)]: at the reference
   speed, and raw (the latter for the record). *)
let throughput run ~ops ~secs reps =
  set run "host_ops_per_s"
    (medf (fun (r, f) -> float_of_int ops /. (secs r *. f)) reps);
  set run "host.raw_ops_per_s"
    (medf (fun (r, _) -> float_of_int ops /. secs r) reps)

let raw_setup_s run = Hashtbl.find run.values "host.raw_setup_s"

let list_16t run ~seed ~budget ~trace ~out =
  let ops = Set_bench.sim_ops in
  let scaled =
    repeat run ~budget ~min_reps:3
      ~within:(fun (r : Set_bench.sim_rep) -> r.probe)
      ~setup:(fun () -> Set_bench.list_setup ~seed)
      ~host_s:(fun (r : Set_bench.sim_rep) -> r.host_s)
      (fun () -> Set_bench.sim_rep Set_bench.list_set ~seed ~ops)
  in
  let reps = List.map fst scaled in
  run.reps <- List.length reps;
  run.attempted <- ops * run.reps;
  List.iter (fun (r : Set_bench.sim_rep) -> check run r.error) reps;
  same_fingerprint run "list-16t" Set_bench.fingerprint reps;
  let r = List.hd reps in
  throughput run ~ops ~secs:(fun (r : Set_bench.sim_rep) -> r.host_s) scaled;
  nvm_metrics run r.stats ~ops;
  set run "sim_mops" (1e3 *. float_of_int ops /. float_of_int r.makespan);
  set run "sim.steps_per_op" (per r.steps ops);
  set run "sim.host_ns_per_step"
    (medf
       (fun ((r : Set_bench.sim_rep), f) -> r.host_s *. f *. 1e9 /. float_of_int r.steps)
       scaled);
  set run "sim.vt_per_op" (per r.makespan ops);
  set run "sim.live_cells_end" (float_of_int r.live_end);
  set run "sim.live_cells_per_capacity" (per r.live_end capacity);
  set run "gc.minor_words_per_op"
    (medf (fun (r : Set_bench.sim_rep) -> r.gc_minor /. float_of_int ops) reps);
  set run "gc.major_collections"
    (medf (fun (r : Set_bench.sim_rep) -> float_of_int r.gc_major) reps);
  if trace then begin
    let tr, rec_, traced_s = Set_bench.list_traced ~seed in
    check run tr.error;
    run.attempted <- run.attempted + ops;
    if Set_bench.fingerprint tr <> Set_bench.fingerprint r then
      error run "list-16t: the traced run's simulation differs from the untraced one";
    span_metrics run (Span.summary [ rec_ ]) ~traced_s
      ~untraced_s:(raw_setup_s run +. Measure.median run.rep_s);
    Span.write_trace (trace_path ~out ~workload:"list-16t" ~seed) [ rec_ ]
  end

let native_list run ~seed ~budget ~trace ~out =
  let ops = Set_bench.native_domains * Set_bench.native_ops in
  let scaled =
    repeat ~probe_domains:Set_bench.native_domains run ~budget ~min_reps:3
      ~setup:Set_bench.native_setup_only
      ~host_s:(fun (r : Set_bench.native_rep) -> r.n_host_s)
      (fun () -> Set_bench.native_rep ~seed ~ops:Set_bench.native_ops)
  in
  let reps = List.map fst scaled in
  run.reps <- List.length reps;
  run.attempted <- ops * run.reps;
  List.iter (fun (r : Set_bench.native_rep) -> check run r.n_error) reps;
  throughput run ~ops ~secs:(fun (r : Set_bench.native_rep) -> r.n_host_s) scaled;
  (* fences/flushes per op: the median repetition's whole stats *)
  let st (r : Set_bench.native_rep) = r.n_stats in
  let mid =
    List.nth
      (List.sort (fun a b -> compare (st a).fences (st b).fences) reps)
      (List.length reps / 2)
  in
  nvm_metrics run mid.n_stats ~ops;
  (* latencies at the reference speed too *)
  let us f = medf (fun ((r : Set_bench.native_rep), k) -> f r *. k) scaled in
  set run "op_p50_us" (us (fun r -> r.p50_us));
  set run "op_p99_us" (us (fun r -> r.p99_us));
  Array.iteri
    (fun k op ->
      set run ("structures." ^ op ^ "_us_p50") (us (fun r -> r.kind_p50_us.(k))))
    Span.op_names;
  set run "gc.minor_words_per_op"
    (medf (fun (r : Set_bench.native_rep) -> r.n_gc_minor /. float_of_int ops) reps);
  set run "gc.major_collections"
    (medf (fun (r : Set_bench.native_rep) -> float_of_int r.n_gc_major) reps);
  if trace then begin
    let tr, recs, traced_s = Set_bench.native_traced ~seed in
    check run tr.n_error;
    (* the traced loop is shorter: compare time per operation *)
    let traced_ops = Set_bench.native_domains * Set_bench.native_traced_ops in
    run.attempted <- run.attempted + traced_ops;
    span_metrics run (Span.summary recs)
      ~traced_s:(traced_s /. float_of_int traced_ops)
      ~untraced_s:
        ((raw_setup_s run +. Measure.median run.rep_s) /. float_of_int ops);
    Span.write_trace (trace_path ~out ~workload:"native-list" ~seed) recs
  end

let service ~name ~crashes (c : Nvt_service.Runner.config) run ~seed ~budget
    ~trace ~out =
  let scaled =
    repeat run ~budget ~min_reps:3
      ~setup:(fun () -> ignore (Svc_bench.setup c))
      ~host_s:(fun (r : Svc_bench.rep) -> r.host_s)
      (fun () -> Svc_bench.rep c)
  in
  let reps = List.map fst scaled in
  run.reps <- List.length reps;
  run.attempted <- c.requests * run.reps;
  List.iter
    (fun (r : Svc_bench.rep) ->
      run.failed <- run.failed + Svc_bench.failed r.report;
      List.iter (error run) (Svc_bench.errors ~name ~crashes r.report))
    reps;
  same_fingerprint run name
    (fun (r : Svc_bench.rep) -> Svc_bench.fingerprint r.report)
    reps;
  let r = (List.hd reps).report in
  let acked = r.acked in
  (* the runner's own set-up is inside its wall time; take it out *)
  let setup = raw_setup_s run in
  let run_s (x : Svc_bench.rep) = Float.max 1e-9 (x.host_s -. setup) in
  throughput run ~ops:acked ~secs:run_s scaled;
  nvm_metrics run r.stats ~ops:acked;
  set run "sim_mops" (1e3 *. float_of_int acked /. float_of_int (max 1 r.makespan));
  set run "ack_p50_vt" (Svc_bench.ack_pct r 0.5);
  set run "ack_p99_vt" (Svc_bench.ack_pct r 0.99);
  set run "sim.steps_per_op" (per r.steps acked);
  set run "sim.host_ns_per_step"
    (medf (fun (x, f) -> run_s x *. f *. 1e9 /. float_of_int r.steps) scaled);
  set run "sim.vt_per_op" (per r.makespan acked);
  set run "service.resent" (float_of_int r.resent);
  set run "service.dedup_acks" (float_of_int r.dedup_acks);
  set run "service.checkpoints" (float_of_int r.checkpoints);
  let ckpt_flushes =
    List.fold_left
      (fun n (site, (s : Stats.site)) ->
        if String.length site >= 9 && String.sub site 0 9 = "svc:ckpt_" then
          n + s.s_flushes
        else n)
      0 (Stats.sites r.stats)
  in
  set run "service.ckpt_flushes_per_ckpt" (per ckpt_flushes r.checkpoints);
  note run "recovery.crashes" (float_of_int r.crashes_fired);
  set run "recovery_vt_per_crash" (per r.recovery_time r.crashes_fired);
  set run "recovery.replayed_per_crash" (per r.replayed r.crashes_fired);
  set run "recovery.steps_per_crash" (per r.recovery_steps r.crashes_fired);
  set run "gc.minor_words_per_op"
    (medf (fun (x : Svc_bench.rep) -> x.gc_minor /. float_of_int acked) reps);
  set run "gc.major_collections"
    (medf (fun (x : Svc_bench.rep) -> float_of_int x.gc_major) reps);
  if trace then begin
    if not crashes then begin
      let rungs = Svc_bench.ladder ~seed in
      List.iter
        (fun (g : Svc_bench.rung) ->
          Printf.printf
            "# ladder gap %d  rate %.1f req/Mvt  p99 %g vt  backlog %d vt  %s\n"
            g.gap g.rate g.p99 g.backlog (if g.ok then "meets SLO" else "misses SLO"))
        rungs;
      set run "max_rate_at_slo" (Svc_bench.max_rate rungs)
    end;
    let t = Svc_bench.traced c in
    check run t.t_error;
    run.attempted <- run.attempted + c.requests;
    if crashes && t.t_crashes < Svc_bench.min_crashes then
      error run (Printf.sprintf "%s: traced run fired %d crashes" name t.t_crashes);
    set run "sim.live_cells_end" (float_of_int t.live_end);
    set run "sim.live_cells_per_capacity" (per t.live_end capacity);
    note run "recovery.store_keys" (float_of_int t.store_keys);
    set run "recovery.steps_per_store_key"
      (per r.recovery_steps (r.crashes_fired * t.store_keys));
    span_metrics run (Span.summary [ t.recorder ]) ~traced_s:t.t_host_s
      ~untraced_s:(Measure.median run.rep_s);
    Span.write_trace (trace_path ~out ~workload:name ~seed) [ t.recorder ]
  end

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* JSON numbers with every digit needed to read the value back exactly
   (non-finite ones as null). *)
let num v =
  if not (Float.is_finite v) then "null"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let metrics_json run names =
  "{"
  ^ String.concat ","
      (List.map
         (fun (n, u) ->
           let v = Option.value (Hashtbl.find_opt run.values n) ~default:0.0 in
           let v = if Float.is_nan v then 0.0 else v in
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}"
             (Json.to_string (Str n)) (num v) (Json.to_string (Str u)))
         names)
  ^ "}"

let print_table run =
  let names =
    List.filter (fun (n, _) -> Hashtbl.mem run.values n) (end_to_end @ per_layer)
  in
  List.iter
    (fun (n, u) ->
      Printf.printf "  %-40s %16s  %s\n" n (num (Hashtbl.find run.values n)) u)
    names;
  List.iter
    (fun (n, v) -> Printf.printf "  (context) %-30s %16s\n" n (num v))
    run.context

let main ~workload ~seed ~seconds ~trace ~out ~commit ~digest =
  let budget = if trace then float_of_int seconds /. 2.0 else float_of_int seconds in
  let cfg, go =
    match workload with
    | "list-16t" ->
      ( Json.Obj
          [ ("structure", Str "list");
            ("flavour", Str "nvt");
            ("backend", Str "sim");
            ("threads", Int Set_bench.sim_threads);
            ("ops", Int Set_bench.sim_ops);
            ("key_range", Int Set_bench.range);
            ("mix", Str Set_bench.mix.name);
            ("loop", Str "closed");
            ("capacity_lines", Int capacity);
            ("probe_slice_every_vt", Int Set_bench.probe_every) ],
        list_16t )
    | "native-list" ->
      ( Json.Obj
          [ ("structure", Str "list");
            ("flavour", Str "Persist.Durable");
            ("backend", Str "native");
            ("domains", Int Set_bench.native_domains);
            ("ops_per_domain", Int Set_bench.native_ops);
            ("key_range", Int Set_bench.range);
            ("mix", Str Set_bench.mix.name);
            ("loop", Str "closed") ],
        native_list )
    | "svc-perop" ->
      let c = Svc_bench.perop ~seed ~requests:100_000 in
      ( Json.Obj
          [ ("runner", Svc_bench.config_json c);
            ("slo_p99_vt", Int Svc_bench.slo_p99_vt);
            ("ladder_gaps", List (List.map (fun g -> Json.Int g) Svc_bench.ladder_gaps));
            ("ladder_requests", Int Svc_bench.ladder_requests) ],
        service ~name:workload ~crashes:false c )
    | "svc-crash" ->
      let c = Svc_bench.crash ~seed ~requests:40_000 in
      ( Json.Obj
          [ ("runner", Svc_bench.config_json c);
            ("min_crashes", Int Svc_bench.min_crashes) ],
        service ~name:workload ~crashes:true c )
    | w ->
      Printf.eprintf "unknown workload %S (known: %s)\n" w
        (String.concat ", " workloads);
      exit 2
  in
  let run =
    { config = cfg;
      attempted = 0;
      failed = 0;
      errors = [];
      reps = 0;
      values = Hashtbl.create 128;
      context = [ ("capacity_lines", float_of_int capacity) ];
      rep_s = [];
      probe_s = [];
      scale = [] }
  in
  (try go run ~seed ~budget ~trace ~out
   with e -> error run ("exception: " ^ Printexc.to_string e));
  run.attempted <- max 1 run.attempted;
  if run.errors <> [] && run.failed = 0 then run.failed <- 1;
  set run "failed_frac" (per run.failed run.attempted);
  let correct = run.errors = [] in
  Printf.printf "# %s seed %d: %d repetitions, %s\n" workload seed run.reps
    (if correct then "all checks passed" else "CHECKS FAILED");
  Printf.printf "# repetition host seconds: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") run.rep_s));
  List.iter (fun e -> Printf.printf "# error: %s\n" e) run.errors;
  print_table run;
  let record =
    Printf.sprintf
      "{\"benchmark\":\"nvtbench/1\",\"workload\":%s,\"seed\":%d,\
       \"seconds\":%d,\"trace\":%b,\"commit\":%s,\"source_digest\":%s,\
       \"nproc\":%d,\"ocaml\":%s,\"repetition_host_s\":[%s],\
       \"probe_host_s\":[%s],\"repetition_scale\":[%s],\"config\":%s,\
       \"errors\":%s,\"context\":{%s},\"metrics\":%s}"
      (Json.to_string (Str workload)) seed seconds trace
      (Json.to_string (Str commit)) (Json.to_string (Str digest))
      (Domain.recommended_domain_count ())
      (Json.to_string (Str Sys.ocaml_version))
      (String.concat "," (List.map num run.rep_s))
      (String.concat "," (List.map num run.probe_s))
      (String.concat "," (List.map num run.scale))
      (Json.to_string run.config)
      (Json.to_string (List (List.map (fun e -> Json.Str e) run.errors)))
      (String.concat ","
         (List.map
            (fun (n, v) -> Printf.sprintf "%s:%s" (Json.to_string (Str n)) (num v))
            run.context))
      (metrics_json run
         (List.filter (fun (n, _) -> Hashtbl.mem run.values n) (end_to_end @ per_layer)))
  in
  print_endline ("record: " ^ record);
  (try
     let oc =
       open_out_gen [ Open_append; Open_creat ] 0o644
         (Filename.concat out "records.jsonl")
     in
     output_string oc (record ^ "\n");
     close_out oc
   with Sys_error msg -> Printf.printf "# could not append the record: %s\n" msg);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n%!"
    correct run.attempted run.failed
    (metrics_json run (if trace then per_layer else end_to_end));
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Self-test                                                           *)
(* ------------------------------------------------------------------ *)

(* Determinism: one seed twice gives bit-identical simulated metrics
   and another seed changes them, on both simulated kinds. Failure
   accounting: an overloaded service (the one `nvtsim serve -n 100000
   --range 65536` runs, under the runner's default watchdog) stalls,
   and must report failed requests and an unbounded p99 rather than
   percentiles of the acknowledged survivors. *)
let selftest () =
  let ok = ref true in
  let expect what b =
    Printf.printf "%s %s\n%!" (if b then "ok  " else "FAIL") what;
    if not b then ok := false
  in
  let list seed =
    Set_bench.fingerprint (Set_bench.sim_rep Set_bench.list_set ~seed ~ops:3000)
  in
  expect "list-16t: same seed, identical simulated metrics" (list 7 = list 7);
  expect "list-16t: another seed changes them" (list 7 <> list 8);
  let svc seed =
    Svc_bench.fingerprint (Nvt_service.Runner.run (Svc_bench.perop ~seed ~requests:3000))
  in
  expect "svc-perop: same seed, identical simulated metrics" (svc 7 = svc 7);
  expect "svc-perop: another seed changes them" (svc 7 <> svc 8);
  let crash seed =
    Svc_bench.fingerprint (Nvt_service.Runner.run (Svc_bench.crash ~seed ~requests:3000))
  in
  expect "svc-crash: same seed, identical simulated metrics" (crash 7 = crash 7);
  expect "svc-crash: another seed changes them" (crash 7 <> crash 8);
  let overloaded =
    Nvt_service.Runner.run
      { Nvt_service.Runner.default_config with
        requests = 100_000;
        key_range = 65_536;
        update_pct = 20;
        mode = Nvt_service.Service.Group { batch = 16; timeout = 4000 } }
  in
  let f = Svc_bench.failed overloaded in
  Printf.printf "# overloaded service: %d of %d acknowledged, failed_frac %g\n"
    overloaded.acked overloaded.config.requests
    (per f overloaded.config.requests);
  expect "overloaded service: failed_frac > 0" (f > 0);
  expect "overloaded service: p99 is unbounded, not the survivors' p99"
    (Svc_bench.ack_pct overloaded 0.99 = Float.infinity);
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let out = ref "." and commit = ref "unknown" and digest = ref "unknown" in
  let self = ref false in
  let usage = "nvtbench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measurement time");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
      ("--out", Arg.Set_string out, " directory for records and traces");
      ("--commit", Arg.Set_string commit, " commit being measured");
      ("--source-digest", Arg.Set_string digest, " digest of the measured sources");
      ("--selftest", Arg.Set self, " run the benchmark's own checks") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then selftest ()
  else
    main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~out:!out ~commit:!commit ~digest:!digest
