(* The sharded durable service: exactly-once acknowledgement under
   adversarial crashes, deduplicated re-send answers, the group-commit
   fence saving, and a volatile negative control.

   Every [Runner.run] already carries its own oracle (acked exactly
   once, no application after acknowledgement, final state = committed
   replay, audit re-sends answered from the ledger); the tests assert
   its verdict across structures x policies x crash placements. *)

module Machine = Nvt_sim.Machine
module Service = Nvt_service.Service
module Runner = Nvt_service.Runner
module Stats = Nvt_nvm.Stats

let base =
  { Runner.default_config with
    shards = 3;
    clients = 8;
    requests = 120;
    mean_gap = 100;
    key_range = 64;
    update_pct = 60;
    watchdog = 1_000_000 }

let check_clean name (r : Runner.report) =
  (match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs));
  Alcotest.(check int) (name ^ ": all acked") r.config.requests r.acked

(* Crash-free sanity across both modes and a skew sweep. *)
let crash_free () =
  List.iter
    (fun mode ->
      List.iter
        (fun skew ->
          let r = Runner.run { base with mode; skew; flavour = "nvt" } in
          check_clean
            (Printf.sprintf "nvt/%s skew=%.2f" (Service.mode_name mode) skew)
            r;
          Alcotest.(check int)
            "no resends without crashes" 0 r.resent)
        [ 0.0; 0.99 ])
    [ Service.Per_op; Service.Group { batch = 8; timeout = 1500 } ]

(* The acceptance matrix: >= 2 structures x >= 2 policies, seeded
   multi-crash runs in both acknowledgement modes. *)
let crash_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun mode ->
              for seed = 0 to 2 do
                let cfg =
                  { base with
                    structure;
                    flavour;
                    mode;
                    seed = seed + 1;
                    (* the second era's work shrinks with the first
                       crash landing late; 500 keeps the second crash
                       inside the shortest era across the matrix *)
                    crash_steps = [ 700 + (151 * seed); 500 ] }
                in
                let r = Runner.run cfg in
                check_clean
                  (Printf.sprintf "%s/%s/%s seed %d" structure flavour
                     (Service.mode_name mode) seed)
                  r;
                if r.crashes_fired < 2 then
                  Alcotest.failf "%s/%s seed %d: only %d/2 crashes fired"
                    structure flavour seed r.crashes_fired;
                if r.resent = 0 then
                  Alcotest.failf
                    "%s/%s seed %d: crashes fired but nothing was re-sent \
                     (crashes landed outside the active window)"
                    structure flavour seed
              done)
            [ Service.Per_op; Service.Group { batch = 8; timeout = 1500 } ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* Dense single-crash placement sweep on one configuration: early
   points land in the first commits, the stride walks the crash across
   ledger flushes, the commit fence and ack delivery. *)
let crash_point_sweep () =
  let step = ref 40 in
  let fired_points = ref 0 in
  let past_end = ref false in
  while not !past_end && !step < 10_000 do
    let cfg =
      { base with
        flavour = "nvt";
        mode = Service.Group { batch = 8; timeout = 1500 };
        crash_steps = [ !step ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "sweep crash@%d" !step) r;
    (* once the crash step passes the crash-free run length it stops
       firing: the sweep is over *)
    if r.crashes_fired = 1 then incr fired_points else past_end := true;
    step := !step + 97
  done;
  if !fired_points < 20 then
    Alcotest.failf "sweep covered only %d crash points" !fired_points

(* Crashes under the eviction adversary: cells can persist behind the
   program's back at any step, which must never fake a commit (an
   evicted entry past a lost one is not in the recovered prefix, and
   one that is was applied, so only its acknowledgement is pending). *)
let crash_with_eviction () =
  for seed = 0 to 2 do
    let cfg =
      { base with
        flavour = "flit";
        seed = 10 + seed;
        eviction = Machine.Random_eviction 0.05;
        crash_steps = [ 700 + (173 * seed) ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "eviction seed %d" seed) r
  done

(* Group commit must save fences: same workload, same seed, strictly
   fewer fences than per-op acknowledgement, attributable to the
   commit point's svc:ledger_fence site. *)
let group_saves_fences () =
  let run mode = Runner.run { base with flavour = "nvt"; mode; requests = 300 } in
  let per_op = run Service.Per_op in
  let group = run (Service.Group { batch = 16; timeout = 2000 }) in
  check_clean "per_op" per_op;
  check_clean "group" group;
  let fences (r : Runner.report) = r.stats.Stats.fences in
  if fences group >= fences per_op then
    Alcotest.failf "group commit saved nothing: %d fences vs %d per-op"
      (fences group) (fences per_op);
  let site_fences (r : Runner.report) name =
    match List.assoc_opt name (Stats.sites r.stats) with
    | Some s -> s.Stats.s_fences
    | None -> 0
  in
  List.iter
    (fun site ->
      let g = site_fences group site and p = site_fences per_op site in
      if g >= p then
        Alcotest.failf "%s: %d fences under group, %d under per-op" site g p)
    [ "svc:ledger_fence" ]

(* A batch of B service ops commits under 1 fence instead of B: with a
   large batch the svc fence count must collapse to near the number of
   batches. *)
let group_fence_count_scales () =
  let r =
    Runner.run
      { base with
        flavour = "nvt";
        requests = 200;
        mode = Service.Group { batch = 32; timeout = 50_000 } }
  in
  check_clean "large batch" r;
  let svc_fences =
    List.fold_left
      (fun acc (name, s) ->
        if String.length name >= 4 && String.sub name 0 4 = "svc:" then
          acc + s.Stats.s_fences
        else acc)
      0
      (Stats.sites r.stats)
  in
  (* 200 requests / batch 32 -> at most ~30 commit batches even with
     ragged tails; 1 fence each, far below per-op's 200 *)
  if svc_fences > 60 then
    Alcotest.failf "batch=32 used %d svc fences for 200 requests" svc_fences

(* The volatile policy is the negative control: its shard stores lose
   durability, so a crash must surface as a corrupt read or an oracle
   violation — the service layer alone cannot grant exactly-once. *)
let volatile_control () =
  let failures = ref 0 in
  for seed = 0 to 4 do
    let cfg =
      { base with
        flavour = "volatile";
        seed = 20 + seed;
        update_pct = 80;
        crash_steps = [ 800 + (131 * seed) ] }
    in
    match Runner.run cfg with
    | exception Machine.Corrupt_read _ -> incr failures
    | r -> if r.violations <> [] then incr failures
  done;
  if !failures = 0 then
    Alcotest.fail
      "volatile service survived every crash; the oracle is not detecting \
       lost acknowledged state"

(* Detectable recovery at the service layer: the runner's op_status
   oracle holds on every run — every acknowledged request must answer
   [Completed] at every recovered quiescent point — here under group
   commit, checkpoints (which truncate the log records the answer would
   otherwise come from) and two crashes. *)
let status_oracle_under_crashes () =
  for seed = 0 to 2 do
    let cfg =
      { base with
        structure = "hash";
        flavour = "nvt";
        mode = Service.Group { batch = 8; timeout = 1500 };
        checkpoint_interval = 1500;
        seed = seed + 1;
        crash_steps = [ 900 + (211 * seed); 800 ] }
    in
    let r = Runner.run cfg in
    check_clean (Printf.sprintf "status seed %d" seed) r;
    if r.crashes_fired < 2 then
      Alcotest.failf "status seed %d: only %d/2 crashes fired" seed
        r.crashes_fired;
    if r.checkpoints = 0 then
      Alcotest.failf "status seed %d: no checkpoint committed" seed
  done;
  (* the det policy: store-level descriptors under the same oracle *)
  let r =
    Runner.run
      { base with flavour = "det"; seed = 7; crash_steps = [ 700; 700 ] }
  in
  check_clean "det policy" r

(* Crash placements where a checkpoint that snapshots only clients
   whose latest record is on the checkpointed shard forgets a truncated
   commit: the client's newer request went to another shard and had
   not committed when the crash hit, so recovery found neither record
   and the status query denied an acknowledged request. The service
   CLI's defaults, so each case replays as
   [nvtsim serve --requests 300 --crash C --crash 700 --ckpt 1200
   --seed S]. *)
let status_after_checkpoint_truncation () =
  List.iter
    (fun (seed, crash) ->
      let r =
        Runner.run
          { Runner.default_config with
            requests = 300;
            update_pct = 20;
            key_range = 64;
            mode = Service.Group { batch = 16; timeout = 4000 };
            checkpoint_interval = 1200;
            seed;
            crash_steps = [ crash; 700 ] }
      in
      let name = Printf.sprintf "seed %d crash %d" seed crash in
      check_clean name r;
      if r.crashes_fired < 2 || r.checkpoints = 0 then
        Alcotest.failf "%s: %d crashes, %d checkpoints — nothing exercised"
          name r.crashes_fired r.checkpoints)
    [ (4, 400); (4, 1500); (5, 400); (5, 900) ]

let nvt_flavour () =
  match Nvt_harness.Instances.flavour "nvt" with
  | Some f -> f
  | None -> assert false

(* The status query itself, at the service surface: an unseen
   (client, seq) answers [Not_applied], and a durably committed entry
   answers [Completed] with its recorded result after recovery. *)
let status_query () =
  let _m = Machine.create ~seed:1 () in
  let svc =
    Service.create
      ~structure:(module Nvt_structures.Harris_list)
      ~flavour:(nvt_flavour ()) ~shards:1 ~mode:Service.Per_op ()
  in
  let name (st, _) = Nvt_nvm.Detectable.status_name st in
  Alcotest.(check string)
    "unseen request is not-applied" "not-applied"
    (name (Service.op_status svc ~client:7 ~seq:0));
  Service.inject_committed svc
    [ { Service.e_client = 3; e_seq = 0; e_op = Service.Put (1, 1);
        e_res = Service.Done true; e_era = 0 } ];
  Service.recover svc;
  (match Service.op_status svc ~client:3 ~seq:0 with
  | Nvt_nvm.Detectable.Completed, Some (Service.Done true) -> ()
  | st, _ ->
    Alcotest.failf "committed request answers %s, not completed"
      (Nvt_nvm.Detectable.status_name st));
  Alcotest.(check string)
    "next seq not yet applied" "not-applied"
    (name (Service.op_status svc ~client:3 ~seq:1))

(* Real memory keeps a stale entry of an earlier era past the point
   where recovery truncated the log; only the era tells it from a
   commit. Forge one committed entry per era around a recovery, plant
   an era-0 entry durably in the slot after them, crash and recover:
   both commits (the first below the watermark, from an earlier era)
   must replay, and the stale entry must neither apply nor answer a
   re-send. *)
let stale_era_entry_is_not_replayed () =
  let m = Machine.create ~seed:4 () in
  Machine.set_current m;
  let svc =
    Service.create
      ~structure:(module Nvt_structures.Hash_table)
      ~flavour:(nvt_flavour ()) ~shards:1 ~mode:Service.Per_op ()
  in
  Machine.persist_all m;
  let put client k =
    { Service.e_client = client; e_seq = 0; e_op = Service.Put (k, k);
      e_res = Service.Done true; e_era = 0 }
  in
  Service.inject_committed svc [ put 1 1 ];
  Service.recover svc;
  Service.inject_committed svc [ put 2 2 ];
  Service.plant_stale svc (put 3 3);
  ignore (Machine.force_crash m);
  Service.recover svc;
  Alcotest.(check (list (pair int int)))
    "committed entries replayed, stale one not" [ (1, 1); (2, 2) ]
    (Service.contents svc);
  Alcotest.(check int) "committed slots" 2 (Service.committed_total svc);
  Alcotest.(check string)
    "stale entry answers no status" "not-applied"
    (Nvt_nvm.Detectable.status_name
       (fst (Service.op_status svc ~client:3 ~seq:0)));
  let dedup_answer = ref None in
  Service.set_on_ack svc (fun req _ ~dedup ->
      if req.Service.client = 3 then dedup_answer := Some dedup);
  Service.start svc m;
  Service.submit svc { Service.client = 3; seq = 0; op = Service.Put (3, 3) };
  Service.request_stop svc;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Alcotest.(check (option bool))
    "re-send applied, not answered from the stale entry" (Some false)
    !dedup_answer

(* The service battery's targets come from a crash-free probe plus one
   crashed run: the mark sites persist only during recovery, so a
   crash-free probe alone would never attack them. Each must be
   reported, with a measured skip, and killed. *)
let svclab_attacks_recovery_sites () =
  match
    Nvt_service.Svclab.run ~policies:[ "nvt" ] Nvt_harness.Mutlab.quick
  with
  | [ (fr : Nvt_harness.Mutlab.flavour_report) ] ->
    List.iter
      (fun site ->
        match
          List.find_opt
            (fun (sr : Nvt_harness.Mutlab.site_report) -> sr.site = site)
            fr.sites
        with
        | Some { verdict = Nvt_harness.Mutlab.Necessary _; skipped_flushes;
                 skipped_fences; _ }
          when skipped_flushes + skipped_fences > 0 -> ()
        | Some _ -> Alcotest.failf "%s: not killed, or nothing skipped" site
        | None -> Alcotest.failf "%s: never attacked" site)
      [ "svc:mark_flush"; "svc:mark_fence" ]
  | frs -> Alcotest.failf "expected one service combo, got %d" (List.length frs)

(* A checkpoint keeps every client's last record on its shard, not just
   the clients whose latest request landed there: one client
   alternating between keys of both shards must appear in both shards'
   snapshots once each shard has checkpointed after its last request. *)
let checkpoint_keeps_client_on_every_shard () =
  let m = Machine.create ~seed:2 () in
  Machine.set_current m;
  let interval = 100_000 in
  let svc =
    Service.create ~checkpoint:interval
      ~structure:(module Nvt_structures.Hash_table)
      ~flavour:(nvt_flavour ()) ~shards:2 ~mode:Service.Per_op ()
  in
  let key_on s =
    let rec go k =
      if Service.global_shard ~shards:2 k = s then k else go (k + 1)
    in
    go 0
  in
  let keys = [| key_on 0; key_on 1 |] in
  Machine.persist_all m;
  Service.start svc m;
  for seq = 0 to 9 do
    Service.submit svc
      { Service.client = 0; seq; op = Service.Put (keys.(seq mod 2), seq) }
  done;
  (* every request is applied well before the first checkpoint
     boundary; both shards then checkpoint while idle *)
  (match Machine.advance_to m ~time:(interval + 1000) with
  | `Barrier | `Completed -> ()
  | `Crashed_at _ -> assert false);
  Service.request_stop svc;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Alcotest.(check int) "one checkpoint per shard" 2
    (Service.checkpoints_taken svc);
  Array.iteri
    (fun si (_, _, covered) ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "shard %d dedup records" si)
        [ (0, 8 + si) ] covered)
    (Service.checkpoint_state svc)

(* Latency sanity: percentiles are ordered and positive; open-loop
   latencies include queueing so p99 >= p50 > 0. *)
let latency_sane () =
  let r =
    Runner.run
      { base with flavour = "nvt"; mode = Service.Per_op; requests = 200 }
  in
  check_clean "latency run" r;
  let l = r.latency in
  if not (l.p50 > 0 && l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.lmax)
  then
    Alcotest.failf "percentiles out of order: p50=%d p95=%d p99=%d max=%d"
      l.p50 l.p95 l.p99 l.lmax

let suite =
  [ Alcotest.test_case "crash-free, both modes" `Quick crash_free;
    Alcotest.test_case "exactly-once matrix (2 structures x 2 policies)"
      `Quick crash_matrix;
    Alcotest.test_case "crash placement sweep" `Quick crash_point_sweep;
    Alcotest.test_case "crashes under eviction" `Quick crash_with_eviction;
    Alcotest.test_case "group commit saves fences" `Quick group_saves_fences;
    Alcotest.test_case "group fence count scales with batch" `Quick
      group_fence_count_scales;
    Alcotest.test_case "volatile negative control" `Quick volatile_control;
    Alcotest.test_case "detectable recovery: exactly-once under crashes"
      `Quick status_oracle_under_crashes;
    Alcotest.test_case "detectable recovery: status query" `Quick
      status_query;
    Alcotest.test_case "status query after checkpoint truncation" `Quick
      status_after_checkpoint_truncation;
    Alcotest.test_case "checkpoint keeps a client on every shard" `Quick
      checkpoint_keeps_client_on_every_shard;
    Alcotest.test_case "stale entry of an earlier era is not replayed" `Quick
      stale_era_entry_is_not_replayed;
    Alcotest.test_case "service battery attacks recovery-only sites" `Quick
      svclab_attacks_recovery_sites;
    Alcotest.test_case "latency percentiles" `Quick latency_sane ]
