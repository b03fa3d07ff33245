(* The two service workloads. [svc-perop] and [svc-crash] run through
   [Nvt_service.Runner.run], which owns the exactly-once oracle and the
   audit pass; the traced run drives the same generated requests
   through the public [Service] calls itself, over a span-recording
   structure and policy handed to [Service.create]. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Workload = Nvt_workload.Workload
module I = Nvt_harness.Instances
module Runner = Nvt_service.Runner
module Service = Nvt_service.Service

(* Eras are bounded by their own request count, not by the default
   liveness watchdog, which a 100k-request era outruns; a genuine stall
   still trips this one. *)
let watchdog = 200_000_000

let perop ~seed ~requests =
  { Runner.default_config with
    structure = "hash";
    flavour = "nvt";
    shards = 4;
    clients = 16;
    requests;
    mean_gap = 600;
    skew = 0.99;
    update_pct = 50;
    key_range = 4096;
    mode = Service.Per_op;
    seed;
    watchdog;
    domains = 1 }

let crash_eras = 12
let crash_steps = 100_000

let crash ~seed ~requests =
  { Runner.default_config with
    structure = "hash";
    flavour = "nvt";
    shards = 4;
    clients = 16;
    requests;
    mean_gap = 600;
    skew = 0.0;
    update_pct = 60;
    key_range = 16384;
    mode = Service.Group { batch = 16; timeout = 2000 };
    seed;
    crash_steps = List.init crash_eras (fun _ -> crash_steps);
    watchdog;
    domains = 1;
    checkpoint_interval = 400_000 }

(* Crash eras a run must reach, so per-crash figures average at least
   this many recoveries. *)
let min_crashes = 10

let config_json (c : Runner.config) =
  let open Nvt_harness.Json in
  Obj
    [ ("structure", Str c.structure);
      ("flavour", Str c.flavour);
      ("shards", Int c.shards);
      ("clients", Int c.clients);
      ("requests", Int c.requests);
      ("mean_gap", Int c.mean_gap);
      ("skew", Float c.skew);
      ("update_pct", Int c.update_pct);
      ("key_range", Int c.key_range);
      ("mode", Str (Service.mode_name c.mode));
      ("crash_steps", List (List.map (fun s -> Int s) c.crash_steps));
      ("checkpoint_interval", Int c.checkpoint_interval);
      ("merge_epoch", Int c.merge_epoch);
      ("watchdog", Int c.watchdog);
      ("domains", Int c.domains);
      ("audit", Bool c.audit);
      ("capacity_lines", Int c.cost.Nvt_nvm.Cost_model.capacity_lines) ]

(* ------------------------------------------------------------------ *)
(* Untraced runs                                                       *)
(* ------------------------------------------------------------------ *)

type rep = { report : Runner.report; host_s : float; gc_minor : float; gc_major : int }

let rep c =
  let g0 = Measure.gc () in
  let t0 = Measure.now_ns () in
  let report = Runner.run c in
  let host_s = Measure.secs_since t0 in
  (* the per-shard apply histories are large and nothing here reads them *)
  let report = { report with histories = [||] } in
  let g1 = Measure.gc () in
  { report;
    host_s;
    gc_minor = g1.minor_words -. g0.minor_words;
    gc_major = g1.major_collections - g0.major_collections }

(* Requests not completed correctly: never acknowledged (a stall), plus
   one per oracle or audit violation, capped at the attempted count. *)
let failed (r : Runner.report) =
  min r.config.requests
    (r.config.requests - r.acked + List.length r.violations)

let errors ~name ~crashes (r : Runner.report) =
  List.map (fun v -> name ^ ": " ^ v) r.violations
  @ (if r.acked < r.config.requests then
       [ Printf.sprintf "%s: %d of %d requests acknowledged" name r.acked
           r.config.requests ]
     else [])
  @ (if r.config.audit && r.audit_acks = 0 then
       [ name ^ ": the audit pass acknowledged nothing" ]
     else [])
  @
  if crashes && r.crashes_fired < min_crashes then
    [ Printf.sprintf "%s: only %d crashes fired, %d required" name
        r.crashes_fired min_crashes ]
  else []

(* Percentile of the ack latencies over every *attempted* request: a
   request never acknowledged counts as missing every limit, so once
   more than [1 - p] of the requests failed the percentile is
   unbounded instead of being read off the acknowledged survivors. *)
let ack_pct (r : Runner.report) p =
  let f = failed r in
  if f = 0 then
    float_of_int (if p <= 0.5 then r.latency.p50 else r.latency.p99)
  else if float_of_int f /. float_of_int r.config.requests > 1.0 -. p then
    Float.infinity
  else float_of_int r.latency.lmax

(* The simulated-machine fingerprint two runs of one seed must share. *)
let fingerprint (r : Runner.report) =
  ( (r.acked, r.makespan, r.steps, r.latency.p50, r.latency.p99),
    (Stats.total_shared_ops r.stats, r.stats.flushes, r.stats.fences),
    (r.recovery_steps, r.recovery_time, r.replayed, r.checkpoints, r.resent) )

(* ------------------------------------------------------------------ *)
(* Offered-rate ladder (svc-perop)                                     *)
(* ------------------------------------------------------------------ *)

(* The ack p99 limit, in virtual time units, a ladder rung must meet. *)
let slo_p99_vt = 20_000
let ladder_gaps = [ 1000; 800; 600; 500; 400; 300 ]
let ladder_requests = 20_000

let exponential rng mean =
  let u = 1.0 -. Random.State.float rng 1.0 in
  max 1 (int_of_float (Float.round (-.float_of_int mean *. log u)))

(* The runner's arrival schedule for a config: the same seeded streams
   in the same order (multi-put and read-modify-write mixes off). *)
let arrivals (c : Runner.config) =
  let dist = if c.skew <= 0.0 then Workload.Uniform else Workload.Zipf c.skew in
  let wl =
    Workload.gen_dist ~dist ~seed:(c.seed + 1)
      ~mix:(Workload.updates ~pct:c.update_pct)
      ~range:c.key_range
  in
  let arr_rng = Random.State.make [| c.seed; 0xa11 |] in
  let cli_rng = Random.State.make [| c.seed; 0xc11 |] in
  let seq = Array.make c.clients 0 in
  let clock = ref 0 in
  Array.init c.requests (fun _ ->
      clock := !clock + exponential arr_rng c.mean_gap;
      let client = Random.State.int cli_rng c.clients in
      let s = seq.(client) in
      seq.(client) <- s + 1;
      let op =
        match Workload.next wl with
        | Workload.Insert k -> Service.Put (k, k + 1)
        | Workload.Delete k -> Service.Del k
        | Workload.Lookup k -> Service.Get k
      in
      (!clock, { Service.client; seq = s; op }))

type rung = { gap : int; rate : float; p99 : float; backlog : int; ok : bool }

(* A rung meets the objective when nothing failed, the ack p99 is
   within the limit, and the last acknowledgement trails the last
   arrival by no more than the limit (no growing backlog). *)
let ladder ~seed =
  List.map
    (fun gap ->
      let c = { (perop ~seed ~requests:ladder_requests) with mean_gap = gap } in
      let r = Runner.run c in
      let last, _ = (arrivals c).(c.requests - 1) in
      let p99 = ack_pct r 0.99 in
      let backlog = r.makespan - last in
      { gap;
        rate = 1e6 /. float_of_int gap;
        p99;
        backlog;
        ok = failed r = 0 && p99 <= float_of_int slo_p99_vt
             && backlog <= slo_p99_vt })
    ladder_gaps

let max_rate rungs =
  List.fold_left (fun m g -> if g.ok then Float.max m g.rate else m) 0.0 rungs

(* ------------------------------------------------------------------ *)
(* Set-up and the traced run                                           *)
(* ------------------------------------------------------------------ *)

let epoch (c : Runner.config) = max 1 c.merge_epoch
let round_up (c : Runner.config) v = (v + epoch c - 1) / epoch c * epoch c

(* What the runner builds before its first request: machine, service,
   prefill, persist. *)
let setup ?(structure = fun s -> s) ?(flavour = fun f -> f)
    (c : Runner.config) =
  let f = Option.get (I.flavour c.flavour) in
  let str =
    I.structure_for f c.structure (List.assoc c.structure I.structures)
  in
  let m = Machine.create ~seed:c.seed ~cost:c.cost () in
  let commit_interval =
    match c.mode with
    | Service.Group { timeout; _ } -> round_up c (max 1 timeout)
    | Service.Per_op -> epoch c
  in
  let checkpoint =
    if c.checkpoint_interval <= 0 then 0 else round_up c c.checkpoint_interval
  in
  let svc =
    Service.create ~commit_interval ~checkpoint ~structure:(structure str)
      ~flavour:(flavour f) ~shards:c.shards ~mode:c.mode ()
  in
  Service.prefill svc
    (List.filter (fun k -> k < c.key_range) (Workload.prefill_keys ~range:c.key_range));
  Machine.persist_all m;
  (m, svc)

let traced_structure (module Str : I.STRUCTURE) : (module I.STRUCTURE) =
  (module Span.Structure (Str))

type traced = {
  recorder : Span.t;
  t_host_s : float;
  t_crashes : int;
  live_end : int;
  store_keys : int;
  t_error : string option;
}

(* The traced run: one machine, arrivals released and
   acknowledgements collected at every merge-epoch barrier as the
   runner does, crashes forced once an era has run its step budget,
   then recovery as simulated threads and a re-send of every
   outstanding request. It checks that every request is acknowledged
   exactly once and that the service's invariants hold. *)
let traced (c : Runner.config) =
  let r = Span.for_simulator () in
  Span.install r;
  let t0 = Measure.now_ns () in
  let m, svc =
    Span.span Span.setup "setup" (fun () ->
        setup ~structure:traced_structure ~flavour:Span.flavour c)
  in
  Span.set_base r Span.service;
  let arr = arrivals c in
  let n = Array.length arr in
  let index = Hashtbl.create n in
  Array.iteri
    (fun i (_, (q : Service.request)) -> Hashtbl.replace index (q.client, q.seq) i)
    arr;
  let acks = Array.make n 0 in
  let completed = ref 0 in
  let issued = Array.make c.clients None in
  let backlog = Array.init c.clients (fun _ -> Queue.create ()) in
  let pending = Queue.create () in
  Service.set_on_ack svc (fun q _ ~dedup:_ -> Queue.push q pending);
  let issue (q : Service.request) =
    issued.(q.client) <- Some q;
    Service.submit svc q
  in
  let process_acks () =
    Queue.iter
      (fun (q : Service.request) ->
        let i = Hashtbl.find index (q.client, q.seq) in
        acks.(i) <- acks.(i) + 1;
        if acks.(i) = 1 then begin
          incr completed;
          issued.(q.client) <- None;
          Option.iter issue (Queue.take_opt backlog.(q.client))
        end)
      pending;
    Queue.clear pending
  in
  let cursor = ref 0 in
  let release t =
    while !cursor < n && fst arr.(!cursor) <= t do
      let q = snd arr.(!cursor) in
      incr cursor;
      if issued.(q.client) <> None then Queue.push q backlog.(q.client)
      else issue q
    done
  in
  let vtime = ref 0 in
  let advance () =
    vtime := !vtime + epoch c;
    Span.span Span.sim "advance" (fun () -> Machine.advance_to m ~time:!vtime)
  in
  let crashes = ref 0 in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let recover () =
    Span.drop_threads r;
    Span.set_base r Span.recovery;
    Span.span Span.recovery "recovery" (fun () ->
        Service.spawn_recovery svc m;
        let rec go steps =
          if steps > c.watchdog then fail "traced: recovery stalled"
          else match advance () with `Completed -> () | _ -> go (steps + 1)
        in
        go 0);
    Span.drop_threads r;
    Span.set_base r Span.service
  in
  let rec era budget =
    Service.start svc m;
    Array.iter (Option.iter (Service.submit svc)) issued;
    let base = Machine.steps m in
    let rec loop () =
      let res = advance () in
      let steps = Machine.steps m - base in
      match budget with
      | b :: _ when steps >= b ->
        process_acks ();
        ignore (Machine.force_crash m);
        incr crashes;
        recover ();
        era (List.tl budget)
      | _ ->
        process_acks ();
        release !vtime;
        if !completed >= n then Service.request_stop svc;
        if res = `Completed then ()
        else if steps >= c.watchdog then fail "traced: era stalled"
        else loop ()
    in
    loop ()
  in
  era c.crash_steps;
  let host_s = Measure.secs_since t0 in
  Span.uninstall ();
  if !completed < n then
    fail (Printf.sprintf "traced: %d of %d requests acknowledged" !completed n);
  if Array.exists (fun a -> a > 1) acks then
    fail "traced: a request was acknowledged twice";
  (match Service.check_invariants svc with
  | exception Failure msg -> fail ("traced: invariant: " ^ msg)
  | () -> ());
  { recorder = r;
    t_host_s = host_s;
    t_crashes = !crashes;
    live_end = Machine.live_cells m;
    store_keys = List.length (Service.contents svc);
    t_error = !error }
