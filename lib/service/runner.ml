(* The open-loop load harness and crash laboratory for the service.

   Requests arrive at Poisson times (exponential inter-arrival gaps,
   seeded) over a configurable number of sequential client sessions; a
   client with an outstanding request backlogs later arrivals, and
   latency is measured from the *scheduled* arrival, so queueing delay
   counts — the open-loop discipline.

   Execution model: the service's shards are striped over [domains]
   groups (clamped to the shard count); each group is one
   {!Service.create} slice living on its own {!Machine} instance, and
   each machine runs on its own OCaml domain through a
   {!Nvt_sim.Domain_pool}. The main domain owns every piece of
   cross-group state — client sessions, arrival schedule, oracle,
   crash clock — and touches it only at virtual-time merge barriers:

     every [merge_epoch] units of virtual time, all machines advance
     to the same barrier (Machine.advance_to), then the main domain
     drains the per-group apply/ack event buffers, merges them in
     effective-time order, releases due arrivals into the owning
     group's shard queues, and decides stop/crash/watchdog.

   Determinism contract. A crash-free run's per-shard apply histories
   and oracle verdict are independent of the domain count: shards are
   disjoint, worker virtual time depends only on the worker's own
   operations, requests enter shard queues only at barriers, and
   acknowledgement release times are quantized to domain-count-
   independent boundaries — true virtual time for per-op and dedup
   acks (worker-local), the next commit-interval boundary for group
   acks (a group commit's fence cost depends on how the batch is
   sliced, so the true ack time is rounded up to the interval the
   committer fired at; the committer itself commits at virtual-time
   multiples of the interval, see {!Service}). Crashed runs stay
   verdict-stable — the oracle checks hold for every domain count —
   but not history-identical, because each machine coin-flips its own
   pending write-backs at the crash.

   Crashes are injected per era as in [Crashlab], except the trigger
   is checked at merge barriers: the era's first barrier at which the
   machines' aggregate step count reaches the configured threshold
   force-crashes every machine at the same virtual time. Before the
   crash fires, all collected and deferred acknowledgements are
   processed — they are durably committed, so deferring them past the
   crash would re-send already-acknowledged requests. After recovery
   the next era re-sends every outstanding request, exactly what a
   real client would do. An oracle in plain OCaml state — which
   survives simulated crashes, making it a perfect observer — checks
   exactly-once semantics:

     - every request is acknowledged exactly once;
     - no request is applied to a store after it was acknowledged
       (double application of acknowledged work);
     - the final store contents equal a replay of the committed logs
       over the prefill (acknowledged-then-lost work would diverge);
     - every acknowledged request appears exactly once in the
       committed logs;
     - at every recovered quiescent point, every acknowledged request
       answers [Completed] to {!Service.op_status};
     - on crash-free runs, replaying the committed logs reproduces
       each recorded result exactly and every request is applied once.

   An optional audit pass then re-sends every client's last
   acknowledged request and requires a deduplicated answer with the
   recorded result and zero store applications.

   Liveness is guarded by a watchdog: an era that runs [watchdog]
   aggregate steps without completing is crashed and reported as a
   stall violation instead of simulating forever. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Workload = Nvt_workload.Workload
module I = Nvt_harness.Instances

type config = {
  structure : string;  (* registry key, e.g. "hash" *)
  flavour : string;  (* registry key, e.g. "nvt" *)
  shards : int;
  clients : int;
  requests : int;
  mean_gap : int;  (* mean inter-arrival gap, simulated time units *)
  skew : float;  (* 0 = uniform keys; else Zipf skew parameter *)
  update_pct : int;
  key_range : int;
  mode : Service.mode;
  seed : int;
  crash_steps : int list;  (* one crash per era, like Crashlab *)
  cost : Nvt_nvm.Cost_model.t;
  eviction : Machine.eviction;
  watchdog : int;  (* max aggregate steps per era before a stall *)
  audit : bool;  (* post-run re-send audit *)
  domains : int;  (* shard groups on real domains; clamped to shards *)
  merge_epoch : int;  (* virtual time units between merge barriers *)
  checkpoint_interval : int;  (* 0: no checkpoints *)
  recovery_crashes : int list;  (* step thresholds of crashes fired
                                   *during* recovery (double-crash) *)
  plan : Nvt_nvm.Optimizer.plan option;
      (* optimizer plan installed on every machine; [None] inherits the
         calling domain's ambient plan, so a harness that wraps [run]
         in {!Nvt_nvm.Optimizer.set} still reaches worker machines *)
  multi_pct : int;  (* % of requests issued as same-shard multi-puts *)
  multi_k : int;  (* keys per multi-put (capped at the shard's pool) *)
  rmw_pct : int;  (* % of requests issued as read-modify-writes *)
}

let default_config =
  { structure = "hash";
    flavour = "nvt";
    shards = 4;
    clients = 16;
    requests = 1000;
    mean_gap = 600;
    skew = 0.99;
    update_pct = 50;
    key_range = 256;
    mode = Service.Group { batch = 16; timeout = 2000 };
    seed = 1;
    crash_steps = [];
    cost = Nvt_nvm.Cost_model.nvram;
    eviction = Machine.No_eviction;
    watchdog = 2_000_000;
    audit = true;
    domains = 1;
    merge_epoch = 500;
    checkpoint_interval = 0;
    recovery_crashes = [];
    plan = None;
    multi_pct = 0;
    multi_k = 4;
    rmw_pct = 0 }

type latency = { p50 : int; p95 : int; p99 : int; lmax : int; mean : float }

type report = {
  config : config;
  acked : int;
  applies : int;  (* store applications, including crash re-sends *)
  resent : int;
  multi_puts : int;  (* requests issued as same-shard multi-puts *)
  rmws : int;  (* requests issued as read-modify-writes *)
  dedup_acks : int;  (* re-sends answered from the ledger *)
  audit_acks : int;
  crashes_requested : int;
  crashes_fired : int;
  recovery_crashes_requested : int;
  recovery_crashes_fired : int;
  checkpoints : int;  (* checkpoints durably committed *)
  truncated : int;  (* log slots dropped by checkpoints *)
  replayed : int;  (* log entries replayed by recovery passes *)
  recovery_steps : int;  (* aggregate steps spent inside recovery *)
  recovery_time : int;  (* virtual time consumed by recovery passes *)
  live_keys : int;  (* committed store size at the end; 0 if stalled *)
  eras : int;
  makespan : int;
  steps : int;
  committed : int;
  latency : latency;
  stats : Stats.t;  (* main-run window (prefill and audit excluded) *)
  violations : string list;
  histories : (int * int) list array;
      (* per global shard, the (client, seq) apply order *)
}

(* ------------------------------------------------------------------ *)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

let exponential rng mean =
  let u = 1.0 -. Random.State.float rng 1.0 (* (0, 1] *) in
  max 1 (int_of_float (Float.round (-.float_of_int mean *. log u)))

type arrival = { a_client : int; a_seq : int; a_op : Service.op; a_time : int }

(* Per-request oracle record. *)
type rec_ = {
  r_arrival : int;
  r_op : Service.op;
  mutable r_acks : int;
  mutable r_ack_res : Service.result option;
  mutable r_applies : int;
  mutable r_pos : (int * int) option;
      (* (global shard, slot) of the service's commit claim — where the
         durable-commit audit holds the ledger against the ack *)
}

(* One entry of a group's event buffer: the worker-side hooks record
   what happened and at which virtual time; the main domain merges and
   interprets the streams at the next barrier. *)
type ev =
  | E_apply of Service.request * int  (* apply virtual time *)
  | E_commit of Service.request * int (* global shard *) * int (* slot *) * int
  | E_ack of Service.request * Service.result * bool (* dedup *) * int

let ev_req = function
  | E_apply (r, _) | E_commit (r, _, _, _) | E_ack (r, _, _, _) -> r

let ev_rank = function E_apply _ -> 0 | E_commit _ -> 1 | E_ack _ -> 2

(* The merge order of released events: effective time, then client,
   seq, and apply < commit < ack. *)
let compare_ev (t1, e1) (t2, e2) =
  if t1 <> t2 then Int.compare t1 t2
  else
    let r1 = ev_req e1 and r2 = ev_req e2 in
    if r1.Service.client <> r2.Service.client then
      Int.compare r1.client r2.client
    else if r1.seq <> r2.seq then Int.compare r1.seq r2.seq
    else Int.compare (ev_rank e1) (ev_rank e2)

let is_completed = function `Completed -> true | _ -> false

let run (c : config) : report =
  let structure =
    match List.assoc_opt c.structure I.structures with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "service: unknown structure %S" c.structure)
  in
  let flavour =
    match I.flavour c.flavour with
    | Some f -> f
    | None -> invalid_arg (Printf.sprintf "service: unknown policy %S" c.flavour)
  in
  if not (I.supports flavour c.structure) then
    invalid_arg
      (Printf.sprintf "service: policy %S does not support structure %S"
         c.flavour c.structure);
  (* resolve the flavour's structure variant (SOFT's rewritten list,
     the detectable wrapper) before the slices instantiate stores *)
  let structure = I.structure_for flavour c.structure structure in
  let domains = max 1 (min c.domains c.shards) in
  let epoch = max 1 c.merge_epoch in
  (* The group commit interval, in whole epochs: commit boundaries fall
     on barriers, so a group ack's effective release time is the same
     for every domain count. *)
  let commit_interval =
    match c.mode with
    | Service.Group { timeout; _ } -> (max 1 timeout + epoch - 1) / epoch * epoch
    | Service.Per_op -> epoch
  in
  let is_group =
    match c.mode with Service.Group _ -> true | Service.Per_op -> false
  in
  (* Checkpoint boundaries rounded to whole epochs for the same reason
     as commit boundaries: a checkpoint's cost lands between barriers
     identically for every domain count. *)
  let checkpoint =
    if c.checkpoint_interval <= 0 then 0
    else (c.checkpoint_interval + epoch - 1) / epoch * epoch
  in
  (* Each machine gets its own optimizer context with the plan
     pre-installed: machines run on worker domains, whose ambient
     contexts never saw the main domain's plan, and sharing one
     context across domains would race its counters. *)
  let plan =
    match c.plan with Some _ -> c.plan | None -> Nvt_nvm.Optimizer.plan ()
  in
  let machines =
    Array.init domains (fun g ->
        Machine.create ~seed:(c.seed + (1031 * g)) ~cost:c.cost
          ~eviction:c.eviction
          ~optimizer:(Nvt_nvm.Optimizer.of_plan plan) ())
  in
  (* Building a slice allocates its ledger cells on the calling
     domain's current machine; group g's slice must live on machine g. *)
  let services =
    Array.init domains (fun g ->
        Machine.set_current machines.(g);
        Service.create ~slice:(g, domains) ~commit_interval ~checkpoint
          ~structure ~flavour ~shards:c.shards ~mode:c.mode ())
  in
  let prefill =
    List.filter (fun k -> k < c.key_range)
      (Workload.prefill_keys ~range:c.key_range)
  in
  Array.iteri
    (fun g svc ->
      Machine.set_current machines.(g);
      Service.prefill svc prefill;
      Machine.persist_all machines.(g))
    services;

  (* ---- arrival schedule ---- *)
  let dist =
    if c.skew <= 0.0 then Workload.Uniform else Workload.Zipf c.skew
  in
  let wl =
    Workload.gen_dist ~dist ~seed:(c.seed + 1)
      ~mix:(Workload.updates ~pct:c.update_pct)
      ~range:c.key_range
  in
  let arr_rng = Random.State.make [| c.seed; 0xa11 |] in
  let cli_rng = Random.State.make [| c.seed; 0xc11 |] in
  let op_rng = Random.State.make [| c.seed; 0x0b7 |] in
  (* keys of each global shard, for building same-shard multi-puts *)
  let by_shard =
    lazy
      (let a = Array.make c.shards [] in
       for k = c.key_range - 1 downto 0 do
         let g = Service.global_shard ~shards:c.shards k in
         a.(g) <- k :: a.(g)
       done;
       Array.map Array.of_list a)
  in
  let seq_ctr = Array.make c.clients 0 in
  let clock = ref 0 in
  let arrivals =
    Array.init c.requests (fun _ ->
        clock := !clock + exponential arr_rng c.mean_gap;
        let client = Random.State.int cli_rng c.clients in
        let seq = seq_ctr.(client) in
        seq_ctr.(client) <- seq + 1;
        let op =
          match Workload.next wl with
          | Workload.Insert k -> Service.Put (k, k + 1)
          | Workload.Delete k -> Service.Del k
          | Workload.Lookup k -> Service.Get k
        in
        let op =
          (* [op_rng] is consumed only when the mixed ops are enabled,
             so default configurations keep their exact histories *)
          if c.multi_pct + c.rmw_pct <= 0 then op
          else begin
            let roll = Random.State.int op_rng 100 in
            let k = Service.key_of_op op in
            if roll < c.multi_pct then begin
              let pool =
                (Lazy.force by_shard).(Service.global_shard ~shards:c.shards k)
              in
              let n = Array.length pool in
              let kk = max 1 (min c.multi_k n) in
              let start = Random.State.int op_rng n in
              Service.Multi_put
                (List.init kk (fun i ->
                     let k' = pool.((start + i) mod n) in
                     (k', k' + 1)))
            end
            else if roll < c.multi_pct + c.rmw_pct then
              Service.Rmw (k, 1 + Random.State.int op_rng 7)
            else op
          end
        in
        { a_client = client; a_seq = seq; a_op = op; a_time = !clock })
  in
  let count_ops p =
    Array.fold_left (fun n a -> if p a.a_op then n + 1 else n) 0 arrivals
  in
  let multi_puts =
    count_ops (function Service.Multi_put _ -> true | _ -> false)
  in
  let rmws = count_ops (function Service.Rmw _ -> true | _ -> false) in

  (* ---- oracle state (plain OCaml: survives simulated crashes) ---- *)
  (* One record per request, indexed by client, then seq: each client's
     seqs are dense from 0, and [seq_ctr] has counted them, so the loop
     below overwrites every [unset] slot. *)
  let recs : rec_ array array =
    let unset =
      { r_arrival = 0; r_op = Service.Get 0; r_acks = 0; r_ack_res = None;
        r_applies = 0; r_pos = None }
    in
    Array.map (fun n -> Array.make n unset) seq_ctr
  in
  Array.iter
    (fun a ->
      recs.(a.a_client).(a.a_seq) <-
        { r_arrival = a.a_time;
          r_op = a.a_op;
          r_acks = 0;
          r_ack_res = None;
          r_applies = 0;
          r_pos = None })
    arrivals;
  let known cl sq = cl >= 0 && cl < c.clients && sq >= 0 && sq < seq_ctr.(cl) in
  let violations = ref [] in
  let violation fmt =
    Printf.ksprintf
      (fun s -> if List.length !violations < 32 then violations := s :: !violations)
      fmt
  in
  (* visit every request's record in (client, seq) order *)
  let iter_recs f = Array.iteri (fun cl a -> Array.iteri (f cl) a) recs in
  let rec_of (r : Service.request) =
    if known r.client r.seq then Some recs.(r.client).(r.seq)
    else begin
      violation "unknown request client=%d seq=%d" r.client r.seq;
      None
    end
  in
  let completed = ref 0 in
  let applies = ref 0 in
  let resent = ref 0 in
  let dedup_acks = ref 0 in
  let audit_mode = ref false in
  let audit_acks = ref 0 in
  let audit_expected = ref 0 in
  let latencies = Array.make c.requests 0 in
  let last_acked = Array.make c.clients (-1) in
  let issued : Service.request option array = Array.make c.clients None in
  let backlog : Service.request Queue.t array =
    Array.init c.clients (fun _ -> Queue.create ())
  in
  let group_of_key k = Service.global_shard ~shards:c.shards k mod domains in
  let submit_route (r : Service.request) =
    Service.submit services.(group_of_key (Service.key_of_op r.op)) r
  in
  let issue (r : Service.request) =
    issued.(r.client) <- Some r;
    submit_route r
  in

  (* ---- event buffers, filled by the worker-side hooks ---- *)
  let evq : ev Queue.t array = Array.init domains (fun _ -> Queue.create ()) in
  Array.iteri
    (fun g svc ->
      let mg = machines.(g) in
      Service.set_on_apply svc (fun req _res ->
          Queue.push (E_apply (req, Machine.now mg)) evq.(g));
      Service.set_on_commit svc (fun req ~shard ~slot ->
          Queue.push
            (E_commit (req, Service.global_of_local svc shard, slot, Machine.now mg))
            evq.(g));
      Service.set_on_ack svc (fun req res ~dedup ->
          Queue.push (E_ack (req, res, dedup, Machine.now mg)) evq.(g)))
    services;

  let histories = Array.make c.shards [] in

  (* A group ack's effective release time is the commit-interval
     boundary its commit fired at, rounded up from the true ack time
     (which includes the batch's slice-dependent fence cost); per-op
     and dedup acks are worker-local and release at their true time. *)
  let eff_of = function
    | E_apply (_, v) | E_commit (_, _, _, v) -> v
    | E_ack (_, _, dedup, v) ->
      if is_group && not dedup then ((v / commit_interval) + 1) * commit_interval
      else v
  in
  let deferred = ref [] in
  let drain () =
    let acc = ref [] in
    Array.iter
      (fun q ->
        Queue.iter
          (fun e ->
            (match e with
            | E_apply (req, _) when not !audit_mode ->
              let gs =
                Service.global_shard ~shards:c.shards (Service.key_of_op req.op)
              in
              histories.(gs) <- (req.client, req.seq) :: histories.(gs)
            | _ -> ());
            acc := (eff_of e, e) :: !acc)
          q;
        Queue.clear q)
      evq;
    List.rev !acc
  in
  let process_event = function
    | E_apply (req, _) ->
      incr applies;
      (match rec_of req with
      | None -> ()
      | Some x ->
        x.r_applies <- x.r_applies + 1;
        if !audit_mode then
          violation "audit: client=%d seq=%d re-applied after final ack"
            req.client req.seq
        else if x.r_acks > 0 then
          violation "client=%d seq=%d applied after acknowledgement"
            req.client req.seq)
    | E_commit (req, gs, slot, _) -> (
      match rec_of req with
      | None -> ()
      | Some x -> x.r_pos <- Some (gs, slot))
    | E_ack (req, res, dedup, v) -> (
      match rec_of req with
      | None -> ()
      | Some x ->
        if !audit_mode then begin
          if not dedup then
            violation "audit: client=%d seq=%d fresh ack, expected dedup"
              req.client req.seq;
          (match x.r_ack_res with
          | Some r0 when r0 = res -> ()
          | _ ->
            violation "audit: client=%d seq=%d answered %s, recorded %s"
              req.client req.seq
              (Format.asprintf "%a" Service.pp_result res)
              (match x.r_ack_res with
              | Some r0 -> Format.asprintf "%a" Service.pp_result r0
              | None -> "nothing"));
          incr audit_acks
        end
        else begin
          if dedup then incr dedup_acks;
          x.r_acks <- x.r_acks + 1;
          if x.r_acks > 1 then
            violation "client=%d seq=%d acknowledged twice" req.client req.seq
          else begin
            x.r_ack_res <- Some res;
            if !completed < Array.length latencies then
              latencies.(!completed) <- v - x.r_arrival;
            incr completed;
            if req.seq > last_acked.(req.client) then
              last_acked.(req.client) <- req.seq;
            issued.(req.client) <- None;
            match Queue.take_opt backlog.(req.client) with
            | Some nxt -> issue nxt
            | None -> ()
          end
        end)
  in
  (* Merge: everything released by barrier [t_bar] (or everything
     collected, at a crash) in (effective time, client, seq, apply<ack)
     order; the rest stays deferred for a later barrier. *)
  let process_ready ~all t_bar =
    let pending = !deferred @ drain () in
    let ready, later =
      if all then (pending, [])
      else List.partition (fun (eff, _) -> eff <= t_bar) pending
    in
    deferred := later;
    List.stable_sort compare_ev ready
    |> List.iter (fun (_, e) -> process_event e)
  in
  let cursor = ref 0 in
  let release_arrivals t_bar =
    while
      !cursor < Array.length arrivals && arrivals.(!cursor).a_time <= t_bar
    do
      let a = arrivals.(!cursor) in
      incr cursor;
      let r = { Service.client = a.a_client; seq = a.a_seq; op = a.a_op } in
      if Option.is_some issued.(a.a_client) then Queue.push r backlog.(a.a_client)
      else issue r
    done
  in

  (* ---- barrier loop over the domain pool ---- *)
  let before = Array.map (fun m -> Stats.copy (Machine.stats m)) machines in
  let pool = Nvt_sim.Domain_pool.create domains in
  Fun.protect ~finally:(fun () -> Nvt_sim.Domain_pool.shutdown pool)
  @@ fun () ->
  let results = Array.make domains `Barrier in
  let advance_all t_bar =
    Nvt_sim.Domain_pool.run pool (fun g ->
        results.(g) <- Machine.advance_to machines.(g) ~time:t_bar)
  in
  let total_steps () =
    Array.fold_left (fun n m -> n + Machine.steps m) 0 machines
  in
  let stop_all () = Array.iter Service.request_stop services in
  let crash_all () =
    Array.iter (fun m -> ignore (Machine.force_crash m)) machines
  in
  let vtime = ref 0 in
  let fired = ref 0 in
  let eras_count = ref 0 in
  let stalled = ref false in
  let rc_left = ref c.recovery_crashes in
  let rc_fired = ref 0 in
  (* Parallel recovery: spawn each shard's recovery pass as a simulated
     thread on its slice's machine, then drive all machines through the
     same barrier loop as an era — recovery consumes virtual time (the
     availability gap the recovery bench measures) and shards recover
     concurrently. A pending [recovery_crashes] threshold fires a crash
     *during* recovery exactly like an era crash, after which recovery
     restarts from the durable state (it is read-only plus volatile
     resets, so restarting is always safe). *)
  let recovery_steps = ref 0 in
  let recovery_time = ref 0 in
  let rec recover_parallel () =
    Array.iteri
      (fun g svc ->
        Machine.set_current machines.(g);
        Service.spawn_recovery svc machines.(g))
      services;
    let base_steps = total_steps () in
    let base_vtime = !vtime in
    (* called at every exit from this pass — completion, watchdog, or
       a recovery crash handing off to the restarted pass *)
    let account () =
      recovery_steps := !recovery_steps + (total_steps () - base_steps);
      recovery_time := !recovery_time + (!vtime - base_vtime)
    in
    let rec loop () =
      vtime := !vtime + epoch;
      advance_all !vtime;
      let rsteps = total_steps () - base_steps in
      match !rc_left with
      | s :: rest when rsteps >= s ->
        rc_left := rest;
        incr rc_fired;
        account ();
        crash_all ();
        recover_parallel ()
      | _ ->
        if Array.for_all is_completed results then account ()
        else if rsteps >= c.watchdog then begin
          stalled := true;
          account ();
          violation "stalled: recovery watchdog fired after %d steps"
            c.watchdog
        end
        else loop ()
    in
    loop ()
  in
  (* Durable-commit audit at each recovered quiescent point: every
     request acknowledged before the crash committed at a recorded
     (shard, slot), and that slot must still be below the shard's
     recovered commit extent (checkpoint base + retained suffix). The
     final-state check can only vouch for truncated records through a
     later committed seq of the same client — and after the full run a
     victim's successor can commit in a later era and vouch for an ack
     the crash actually erased; the recorded position needs no
     vouching, so a lost acknowledgement is caught red-handed here.
     This is the window the commit fence closes — recovery's store
     reconciliation repairs the state divergence that used to betray
     its loss, so the oracle must hold the ack against the ledger
     directly. *)
  let check_acks_durable () =
    let extent = Array.make c.shards 0 in
    Array.iter
      (fun svc ->
        let logs = Service.committed_log svc in
        Array.iteri
          (fun li (base, _, _) ->
            extent.(Service.global_of_local svc li) <-
              base + List.length logs.(li))
          (Service.checkpoint_state svc))
      services;
    iter_recs
      (fun cl sq (x : rec_) ->
        if x.r_acks > 0 then
          match x.r_pos with
          | Some (gs, slot) when slot >= extent.(gs) ->
            violation
              "recovery: client=%d seq=%d acknowledged at shard %d slot %d \
               but the recovered commit extent is %d — acknowledged work lost"
              cl sq gs slot extent.(gs)
          | Some _ -> ()
          | None ->
            violation
              "recovery: client=%d seq=%d acknowledged without an observed \
               commit"
              cl sq);
    (* The status query's obligation: at the recovered quiescent point
       every acknowledged request must answer [Completed] to the slice
       that owns its key — a commit a checkpoint forgot surfaces here
       as a lie to a re-connecting client rather than waiting for a
       re-send to double-apply. *)
    iter_recs
      (fun cl sq (x : rec_) ->
        if x.r_acks > 0 then begin
          let svc = services.(group_of_key (Service.key_of_op x.r_op)) in
          match Service.op_status svc ~client:cl ~seq:sq with
          | Nvt_nvm.Detectable.Completed, _ -> ()
          | st, _ ->
            violation
              "status: client=%d seq=%d acknowledged but status says %s" cl sq
              (Nvt_nvm.Detectable.status_name st)
        end)
  in
  (* One era: start the services, re-send outstanding requests, then
     advance all machines barrier by barrier until they complete, the
     era's crash threshold fires, or the watchdog trips. *)
  let run_era threshold =
    if not !audit_mode then incr eras_count;
    Array.iteri (fun g svc -> Service.start svc machines.(g)) services;
    Array.iter
      (function
        | Some r ->
          incr resent;
          submit_route r
        | None -> ())
      issued;
    let era_base = total_steps () in
    let rec loop () =
      vtime := !vtime + epoch;
      advance_all !vtime;
      let era_steps = total_steps () - era_base in
      match threshold with
      | Some s when era_steps >= s ->
        (* Everything collected is durably done; processing it now
           keeps already-acknowledged requests out of the re-send. *)
        process_ready ~all:true !vtime;
        crash_all ();
        incr fired;
        recover_parallel ();
        if not !stalled then check_acks_durable ()
      | _ ->
        process_ready ~all:false !vtime;
        release_arrivals !vtime;
        if
          (not !audit_mode) && !completed >= c.requests
          || (!audit_mode && !audit_acks >= !audit_expected)
        then stop_all ();
        if Array.for_all is_completed results then
          (* quiescent: sweep any acks still deferred past this barrier *)
          process_ready ~all:true !vtime
        else if era_steps >= c.watchdog then begin
          (* armed whether or not the era has a crash threshold: an era
             that deadlocks before its crash fires must still surface
             as a stall, not simulate forever *)
          if !audit_mode then
            violation "audit stalled: %d/%d dedup acks" !audit_acks
              !audit_expected
          else begin
            stalled := true;
            violation "stalled: watchdog fired after %d steps with %d/%d acked"
              c.watchdog !completed c.requests
          end;
          crash_all ()
        end
        else loop ()
    in
    loop ()
  in
  let rec eras = function
    | [] -> if !completed < c.requests && not !stalled then run_era None
    | s :: rest ->
      if !completed < c.requests && not !stalled then begin
        run_era (Some s);
        eras rest
      end
  in
  eras c.crash_steps;
  let main_steps = total_steps () in
  let main_makespan =
    Array.fold_left (fun n m -> max n (Machine.makespan m)) 0 machines
  in
  let stats =
    let agg = Stats.zero () in
    Array.iteri
      (fun g m ->
        Stats.accumulate ~into:agg
          (Stats.diff ~after:(Machine.stats m) ~before:before.(g)))
      machines;
    agg
  in

  (* ---- final-state verification (setup mode) ---- *)
  let live_keys = ref 0 in
  if not !stalled then begin
    (try Array.iter Service.check_invariants services
     with Failure msg -> violation "invariant: %s" msg);
    (* Per global shard, the durably committed checkpoint (base, store
       snapshot, covered (client, seq) dedup records). Shards without a
       checkpoint report base 0. *)
    let ckpt = Array.make c.shards (0, [], []) in
    Array.iter
      (fun svc ->
        Array.iteri
          (fun li st -> ckpt.(Service.global_of_local svc li) <- st)
          (Service.checkpoint_state svc))
      services;
    (* The replay model seeds each shard's keys from its checkpoint
       snapshot when one committed (the snapshot *is* the model replay
       of the truncated prefix over the prefill), else from the
       prefill, then replays the retained log suffixes. *)
    let model : (int, int) Hashtbl.t = Hashtbl.create (2 * c.key_range) in
    List.iter
      (fun k ->
        let base, _, _ = ckpt.(Service.global_shard ~shards:c.shards k) in
        if base = 0 then Hashtbl.replace model k k)
      prefill;
    Array.iter
      (fun (_, pairs, _) ->
        List.iter (fun (k, v) -> Hashtbl.replace model k v) pairs)
      ckpt;
    let apply_model (op : Service.op) : Service.result =
      match op with
      | Service.Put (k, v) ->
        if Hashtbl.mem model k then Service.Done false
        else begin
          Hashtbl.replace model k v;
          Service.Done true
        end
      | Service.Del k ->
        if Hashtbl.mem model k then begin
          Hashtbl.remove model k;
          Service.Done true
        end
        else Service.Done false
      | Service.Get k -> Service.Value (Hashtbl.find_opt model k)
      | Service.Multi_put kvs ->
        (* mirror the store's semantics exactly: add-if-absent per key
           in list order, true iff every key was fresh *)
        Service.Done
          (List.fold_left
             (fun acc (k, v) ->
               let fresh = not (Hashtbl.mem model k) in
               if fresh then Hashtbl.replace model k v;
               acc && fresh)
             true kvs)
      | Service.Rmw (k, d) -> (
        match Hashtbl.find_opt model k with
        | Some v ->
          Hashtbl.replace model k (v + d);
          Service.Value (Some v)
        | None ->
          Hashtbl.replace model k d;
          Service.Value None)
    in
    (* committed logs in global shard order, merged over the slices *)
    let logs = Array.make c.shards [] in
    Array.iter
      (fun svc ->
        Array.iteri
          (fun li log -> logs.(Service.global_of_local svc li) <- log)
          (Service.committed_log svc))
      services;
    (* (client, seq) -> times committed, shaped like [recs] *)
    let seen = Array.map (fun a -> Array.make (Array.length a) 0) recs in
    Array.iter
      (fun log ->
        List.iter
          (fun (e : Service.entry) ->
            if known e.e_client e.e_seq then
              seen.(e.e_client).(e.e_seq) <- seen.(e.e_client).(e.e_seq) + 1
            else
              violation "unknown committed entry client=%d seq=%d" e.e_client
                e.e_seq;
            let r = apply_model e.e_op in
            if !fired = 0 && r <> e.e_res then
              violation "crash-free replay: client=%d seq=%d %s -> %s, log says %s"
                e.e_client e.e_seq
                (Format.asprintf "%a" Service.pp_op e.e_op)
                (Format.asprintf "%a" Service.pp_result r)
                (Format.asprintf "%a" Service.pp_result e.e_res))
          log)
      logs;
    Array.iteri
      (fun cl a ->
        Array.iteri
          (fun sq n ->
            if n > 1 then violation "client=%d seq=%d committed %d times" cl sq n)
          a)
      seen;
    (* client -> highest committed seq visible anywhere (retained
       suffix records, or checkpoint coverage: requests whose log
       record was truncated away are vouched for by the checkpoint's
       dedup records). A sequential client submits seq n+1 only after
       seq n was acknowledged — and an ack happens only after commit —
       so a later committed seq vouches for every earlier acked one
       even when both its log record and its dedup-snapshot entry are
       gone: a shard's snapshot keeps only each client's last record
       on that shard, so a later request of the same client on the
       same shard replaces an earlier one's entry. *)
    let max_committed = Array.make c.clients (-1) in
    let note cl sq =
      if known cl sq && sq > max_committed.(cl) then max_committed.(cl) <- sq
    in
    Array.iteri
      (fun cl a -> Array.iteri (fun sq n -> if n > 0 then note cl sq) a)
      seen;
    Array.iter (fun (_, _, cov) -> List.iter (fun (cl, sq) -> note cl sq) cov) ckpt;
    iter_recs
      (fun cl sq (x : rec_) ->
        if x.r_acks > 0 then begin
          let vouched = sq <= max_committed.(cl) in
          if not vouched then
            violation "client=%d seq=%d acknowledged but not committed" cl sq;
          if !fired = 0 && x.r_applies <> 1 then
            violation "crash-free: client=%d seq=%d applied %d times" cl sq
              x.r_applies
        end);
    live_keys := Hashtbl.length model;
    let actual =
      Array.to_list services
      |> List.concat_map Service.contents
      |> List.sort compare
    in
    let expected =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) model [] |> List.sort compare
    in
    if actual <> expected then
      violation
        "state divergence: store has %d pairs, committed-log replay has %d \
         (acknowledged work lost or uncommitted work acknowledged)"
        (List.length actual) (List.length expected)
  end;

  (* ---- audit pass: every client re-sends its last acked request ---- *)
  let do_audit = c.audit && (not !stalled) && !completed = c.requests in
  if do_audit then begin
    audit_mode := true;
    audit_expected :=
      Array.fold_left (fun n s -> if s >= 0 then n + 1 else n) 0 last_acked;
    if !audit_expected > 0 then begin
      Array.iteri
        (fun client seq ->
          if seq >= 0 then
            submit_route { Service.client; seq; op = recs.(client).(seq).r_op })
        last_acked;
      run_era None
    end
  end;

  let lat = Array.sub latencies 0 (min !completed c.requests) in
  Array.sort compare lat;
  let latency =
    { p50 = percentile lat 0.50;
      p95 = percentile lat 0.95;
      p99 = percentile lat 0.99;
      lmax = (if Array.length lat = 0 then 0 else lat.(Array.length lat - 1));
      mean =
        (if Array.length lat = 0 then 0.0
         else
           float_of_int (Array.fold_left ( + ) 0 lat)
           /. float_of_int (Array.length lat)) }
  in
  { config = c;
    acked = !completed;
    applies = !applies;
    resent = !resent;
    multi_puts;
    rmws;
    dedup_acks = !dedup_acks;
    audit_acks = !audit_acks;
    crashes_requested = List.length c.crash_steps;
    crashes_fired = !fired;
    recovery_crashes_requested = List.length c.recovery_crashes;
    recovery_crashes_fired = !rc_fired;
    checkpoints =
      Array.fold_left
        (fun n svc -> n + Service.checkpoints_taken svc)
        0 services;
    truncated =
      Array.fold_left
        (fun n svc -> n + Service.truncated_slots svc)
        0 services;
    replayed =
      Array.fold_left
        (fun n svc -> n + Service.replayed_slots svc)
        0 services;
    recovery_steps = !recovery_steps;
    recovery_time = !recovery_time;
    live_keys = !live_keys;
    eras = !eras_count;
    makespan = main_makespan;
    steps = main_steps;
    committed =
      Array.fold_left (fun n svc -> n + Service.committed_total svc) 0 services;
    latency;
    stats;
    violations = List.rev !violations;
    histories = Array.map List.rev histories }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let fences_per_op r =
  if r.acked = 0 then 0.0
  else float_of_int r.stats.Stats.fences /. float_of_int r.acked

let flushes_per_op r =
  if r.acked = 0 then 0.0
  else float_of_int r.stats.Stats.flushes /. float_of_int r.acked

let pp_report ppf r =
  let c = r.config in
  Format.fprintf ppf
    "@[<v>service %s/%s shards=%d domains=%d clients=%d mode=%s dist=%s\n"
    c.structure c.flavour c.shards c.domains c.clients
    (Service.mode_name c.mode)
    (if c.skew <= 0.0 then "uniform" else Printf.sprintf "zipf(%.2f)" c.skew);
  Format.fprintf ppf
    "  acked %d/%d  applies %d  resent %d  dedup %d  audit %d@,"
    r.acked c.requests r.applies r.resent r.dedup_acks r.audit_acks;
  if r.multi_puts > 0 || r.rmws > 0 then
    Format.fprintf ppf "  mixed ops: %d multi-put(%d keys)  %d rmw@,"
      r.multi_puts c.multi_k r.rmws;
  Format.fprintf ppf "  crashes %d/%d  eras %d  steps %d  makespan %d@,"
    r.crashes_fired r.crashes_requested r.eras r.steps r.makespan;
  if c.checkpoint_interval > 0 || r.recovery_crashes_requested > 0 then
    Format.fprintf ppf
      "  checkpoints %d  truncated %d  recovery crashes %d/%d@,"
      r.checkpoints r.truncated r.recovery_crashes_fired
      r.recovery_crashes_requested;
  if r.crashes_fired > 0 || r.recovery_crashes_fired > 0 then
    Format.fprintf ppf
      "  recovery: replayed %d entries in %d steps (%d time units)@,"
      r.replayed r.recovery_steps r.recovery_time;
  Format.fprintf ppf
    "  latency p50 %d  p95 %d  p99 %d  max %d  mean %.1f@,"
    r.latency.p50 r.latency.p95 r.latency.p99 r.latency.lmax r.latency.mean;
  Format.fprintf ppf "  fences/op %.3f  flushes/op %.3f  committed %d@,"
    (fences_per_op r) (flushes_per_op r) r.committed;
  Format.fprintf ppf "  %a@," Stats.pp r.stats;
  Format.fprintf ppf "  sites:@,    %a@," Stats.pp_sites r.stats;
  (match r.violations with
  | [] -> Format.fprintf ppf "  exactly-once: OK@,"
  | vs ->
    Format.fprintf ppf "  VIOLATIONS (%d):@," (List.length vs);
    List.iter (fun v -> Format.fprintf ppf "    %s@," v) vs);
  Format.fprintf ppf "@]"

(* The report's numbers as bench metrics: every one is simulated, so a
   seed repeats them exactly. The per-site table is
   [Nvt_harness.Record.site_rows] of [r.stats]. *)
let metrics (r : report) : (string * Nvt_harness.Record.metric) list =
  let open Nvt_harness.Record in
  let vt name v = sim ~unit:"vt" name (float_of_int v) in
  let per_op name v = sim ~unit:"count/op" name v in
  [ count "acked" r.acked;
    count "applies" r.applies;
    count "resent" r.resent;
    count "multi_puts" r.multi_puts;
    count "rmws" r.rmws;
    count "dedup_acks" r.dedup_acks;
    count "audit_acks" r.audit_acks;
    count "crashes_requested" r.crashes_requested;
    count "crashes_fired" r.crashes_fired;
    count "recovery_crashes_requested" r.recovery_crashes_requested;
    count "recovery_crashes_fired" r.recovery_crashes_fired;
    count "checkpoints" r.checkpoints;
    count "truncated" r.truncated;
    count "replayed" r.replayed;
    count "recovery_steps" r.recovery_steps;
    vt "recovery_time" r.recovery_time;
    count "eras" r.eras;
    count "steps" r.steps;
    vt "makespan" r.makespan;
    count "committed" r.committed;
    count "live_keys" r.live_keys;
    vt "ack_p50" r.latency.p50;
    vt "ack_p95" r.latency.p95;
    vt "ack_p99" r.latency.p99;
    vt "ack_max" r.latency.lmax;
    sim ~unit:"vt" "ack_mean" r.latency.mean;
    per_op "fences_per_op" (fences_per_op r);
    per_op "flushes_per_op" (flushes_per_op r);
    count "flushes" r.stats.Stats.flushes;
    count "fences" r.stats.Stats.fences;
    count "cas" r.stats.Stats.cas;
    count "reads" r.stats.Stats.reads;
    count "writes" r.stats.Stats.writes ]
