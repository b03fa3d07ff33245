(* Recovery robustness: the recovery procedure itself can be interrupted
   by another power failure, and systems crash more than once. Recovery
   must therefore be restartable (a second recovery after a crash
   mid-recovery yields a correct structure) and durability must hold
   across sequences of crashes. *)

open Support

(* Crash in the middle of [recover], then recover again. *)
let crash_during_recovery name (module S : SET) () =
  for seed = 0 to 9 do
    let m =
      Machine.create ~seed ~eviction:(Machine.Random_eviction 0.05) ()
    in
    let s = S.create () in
    let prefilled =
      List.filter (fun k -> S.insert s ~key:k ~value:k) [ 1; 2; 4; 5; 7 ]
    in
    Machine.persist_all m;
    let h = History.create () in
    (* era 0: update traffic, crashed mid-flight *)
    for tid = 0 to 3 do
      let rng = Random.State.make [| seed; tid; 3 |] in
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to 25 do
               let k = Random.State.int rng 8 in
               let record op f =
                 let e =
                   History.invoke h ~tid:(Machine.current_tid m)
                     ~time:(Machine.now m) op
                 in
                 let r = f () in
                 History.respond e ~time:(Machine.now m) r
               in
               match Random.State.int rng 3 with
               | 0 ->
                 record (History.Insert k) (fun () ->
                     S.insert s ~key:k ~value:k)
               | 1 -> record (History.Delete k) (fun () -> S.delete s k)
               | _ -> record (History.Member k) (fun () -> S.member s k)
             done))
    done;
    Machine.set_crash_at_step m (150 + (41 * seed));
    (match Machine.run m with
    | Machine.Crashed_at t -> History.mark_crash h ~time:t
    | Machine.Completed -> Alcotest.fail "expected a crash");
    (* recovery itself runs as a thread and is crashed partway... *)
    ignore (Machine.spawn m (fun () -> S.recover s));
    Machine.set_crash_at_step m (Machine.steps m + 5 + (7 * seed));
    (match Machine.run m with
    | Machine.Crashed_at t -> History.mark_crash h ~time:t
    | Machine.Completed ->
      (* recovery was short enough to finish; that is fine too *)
      ());
    (* ...and run to completion the second time *)
    Machine.clear_crash m;
    S.recover s;
    S.check_invariants s;
    (* era: the structure must be fully functional *)
    for tid = 0 to 1 do
      let rng = Random.State.make [| seed; tid; 4 |] in
      ignore
        (Machine.spawn m (fun () ->
             for _ = 1 to 15 do
               let k = Random.State.int rng 8 in
               let record op f =
                 let e =
                   History.invoke h ~tid:(Machine.current_tid m)
                     ~time:(Machine.now m) op
                 in
                 let r = f () in
                 History.respond e ~time:(Machine.now m) r
               in
               match Random.State.int rng 3 with
               | 0 ->
                 record (History.Insert k) (fun () ->
                     S.insert s ~key:k ~value:k)
               | 1 -> record (History.Delete k) (fun () -> S.delete s k)
               | _ -> record (History.Member k) (fun () -> S.member s k)
             done))
    done;
    (match Machine.run m with
    | Machine.Completed -> ()
    | Machine.Crashed_at _ -> assert false);
    S.check_invariants s;
    (match Lin.check_set ~initial_keys:prefilled h with
    | Ok () -> ()
    | Error v ->
      Alcotest.failf "%s seed %d: %a" name seed Lin.pp_violation v)
  done

(* Several crash/recover/run cycles in sequence. *)
let multi_crash name (module S : SET) () =
  for seed = 0 to 4 do
    let m =
      Machine.create ~seed ~eviction:(Machine.Random_eviction 0.03) ()
    in
    let s = S.create () in
    let prefilled =
      List.filter (fun k -> S.insert s ~key:k ~value:k) [ 1; 4; 6 ]
    in
    Machine.persist_all m;
    let h = History.create () in
    let spawn_era () =
      for tid = 0 to 2 do
        let rng = Random.State.make [| seed; tid; History.era h |] in
        ignore
          (Machine.spawn m (fun () ->
               for _ = 1 to 20 do
                 let k = Random.State.int rng 8 in
                 let record op f =
                   let e =
                     History.invoke h ~tid:(Machine.current_tid m)
                       ~time:(Machine.now m) op
                   in
                   let r = f () in
                   History.respond e ~time:(Machine.now m) r
                 in
                 match Random.State.int rng 3 with
                 | 0 ->
                   record (History.Insert k) (fun () ->
                       S.insert s ~key:k ~value:k)
                 | 1 -> record (History.Delete k) (fun () -> S.delete s k)
                 | _ -> record (History.Member k) (fun () -> S.member s k)
               done))
      done
    in
    let rec eras n =
      spawn_era ();
      if n > 0 then begin
        Machine.set_crash_at_step m (Machine.steps m + 80 + (31 * n));
        match Machine.run m with
        | Machine.Crashed_at t ->
          History.mark_crash h ~time:t;
          S.recover s;
          S.check_invariants s;
          eras (n - 1)
        | Machine.Completed ->
          (* the era drained before its crash point; just continue *)
          eras (n - 1)
      end
      else
        match Machine.run m with
        | Machine.Completed -> ()
        | Machine.Crashed_at _ -> assert false
    in
    eras 3;
    S.check_invariants s;
    (match Lin.check_set ~initial_keys:prefilled h with
    | Ok () -> ()
    | Error v ->
      Alcotest.failf "%s seed %d: %a" name seed Lin.pp_violation v)
  done

(* ------------------------------------------------------------------ *)
(* Service-level recovery: checkpoints, double crashes, liveness and   *)
(* the ledger's cell accounting.                                       *)
(* ------------------------------------------------------------------ *)

module Svc = Nvt_service.Service
module Runner = Nvt_service.Runner

let svc_base =
  { Runner.default_config with
    shards = 3;
    clients = 8;
    requests = 120;
    mean_gap = 100;
    key_range = 64;
    update_pct = 60;
    watchdog = 1_000_000 }

let svc_clean name (r : Runner.report) =
  match r.violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %d violations:@.  %s" name (List.length vs)
      (String.concat "\n  " vs)

(* Regression: the era watchdog must arm even while a crash threshold
   is pending. A threshold far beyond the era's length used to leave
   the era unguarded — a stall would simulate until the threshold (here
   10^8 steps) instead of surfacing. With the watchdog below the era's
   step requirement the run must return promptly with a stall verdict,
   not run to the crash. *)
let watchdog_arms_under_pending_crash () =
  let r =
    Runner.run
      { svc_base with
        flavour = "nvt";
        crash_steps = [ 100_000_000 ];
        watchdog = 1_000 }
  in
  (match r.violations with
  | [ v ] when String.length v >= 8 && String.sub v 0 8 = "stalled:" -> ()
  | vs ->
    Alcotest.failf "expected exactly one stall verdict, got: %s"
      (String.concat " | " vs));
  Alcotest.(check int) "the oversized crash threshold never fired" 0
    r.crashes_fired;
  if r.steps > 50_000 then
    Alcotest.failf
      "watchdog run consumed %d steps — it kept simulating toward the \
       crash threshold instead of stalling out"
      r.steps

(* Regression: [ledger.truncate]/[drop_below] must retire the dropped
   slots' simulated-NVM cells. Churn one shard through repeated
   crash/recover cycles with checkpointing on: the committed log keeps
   growing in slots, but truncation retires everything behind the
   checkpoint, so the machine's live-cell count must stay flat. Before
   the fix every cycle leaked its log entries' cells (~1 cell each). *)
let checkpoint_truncation_bounds_live_cells () =
  let m = Machine.create ~seed:11 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:2000 ~structure ~flavour ~shards:1
      ~mode:Svc.Per_op ()
  in
  Svc.prefill svc [ 1; 2; 3 ];
  Machine.persist_all m;
  let seq = ref 0 in
  let live = ref [] in
  for cycle = 1 to 8 do
    Svc.start svc m;
    for _ = 1 to 30 do
      incr seq;
      Svc.submit svc
        { Svc.client = 0; seq = !seq; op = Svc.Put (!seq mod 16, !seq) }
    done;
    Svc.request_stop svc;
    if cycle mod 2 = 1 then begin
      Machine.set_crash_at_step m (Machine.steps m + 400);
      match Machine.run m with
      | Machine.Crashed_at _ -> Svc.recover svc
      | Machine.Completed -> Machine.clear_crash m
    end
    else begin
      match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false
    end;
    live := Machine.live_cells m :: !live
  done;
  if Svc.checkpoints_taken svc = 0 then
    Alcotest.fail "churn run committed no checkpoints — nothing gated";
  if Svc.truncated_slots svc = 0 then
    Alcotest.fail "checkpoints committed but no log slots were truncated";
  match List.rev !live with
  | _ :: early :: rest ->
    let last = List.nth rest (List.length rest - 1) in
    (* ~180 committed entries churn through after the measurement
       baseline; a truncation leak re-surfaces as ~1 cell per entry *)
    if last > early + 100 then
      Alcotest.failf
        "live cells grew %d -> %d across crash/recover churn — log \
         truncation is not retiring cells"
        early last
  | _ -> assert false

(* The runner and the service keep host-side bookkeeping (the oracle's
   index, the merge of worker events, checkpoint snapshots) that no
   simulated number may depend on. Pin a small crash-and-checkpoint
   run's simulated totals exactly, for group commit, per-op commit and
   a crash during recovery, so a rewrite of that bookkeeping that moved
   a single access, flush or checkpoint fails here. If a change is
   *meant* to move these numbers, re-record them and say why. *)
let service_fingerprint_is_pinned () =
  let base =
    { svc_base with
      requests = 400;
      checkpoint_interval = 4000;
      crash_steps = [ 1500; 1500; 1500 ] }
  in
  List.iter
    (fun (name, cfg, (steps, makespan, flushes, fences, checkpoints,
                      recovery_steps, replayed)) ->
      let r = Runner.run cfg in
      svc_clean name r;
      let pin what expected got =
        Alcotest.(check int) (name ^ ": " ^ what) expected got
      in
      pin "acked" 400 r.acked;
      pin "steps" steps r.steps;
      pin "makespan" makespan r.makespan;
      pin "flushes" flushes r.stats.flushes;
      pin "fences" fences r.stats.fences;
      pin "checkpoints" checkpoints r.checkpoints;
      pin "recovery_steps" recovery_steps r.recovery_steps;
      pin "replayed" replayed r.replayed)
    [ ("group", base, (31630, 306054, 2177, 1526, 156, 18912, 9));
      ( "per-op",
        { base with mode = Svc.Per_op },
        (28315, 255045, 2316, 2065, 146, 18908, 14) );
      ( "recovery crash",
        { base with crash_steps = [ 1500; 1500 ]; recovery_crashes = [ 300 ] },
        (25553, 302040, 2130, 1497, 153, 12930, 12) ) ]

(* The checkpoint snapshot's canonical order: store pairs strictly
   ascending by key, dedup records strictly ascending by client,
   which is what recovery and the runner's replay model read back. *)
let checkpoint_snapshot_is_ordered () =
  let m = Machine.create ~seed:5 () in
  Machine.set_current m;
  let structure = List.assoc "hash" I.structures in
  let flavour =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let svc =
    Svc.create ~checkpoint:2000 ~structure ~flavour ~shards:2
      ~mode:Svc.Per_op ()
  in
  Svc.prefill svc (List.init 40 (fun i -> 3 * i));
  Machine.persist_all m;
  Svc.start svc m;
  for i = 0 to 209 do
    let k = i * 37 mod 128 in
    Svc.submit svc
      { Svc.client = i mod 7;
        seq = i / 7;
        op = (if i mod 3 = 0 then Svc.Del k else Svc.Put (k, i)) }
  done;
  Svc.request_stop svc;
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let rec ascending = function
    | a :: (b :: _ as rest) -> a < b && ascending rest
    | _ -> true
  in
  let nonempty = ref 0 in
  Array.iteri
    (fun si (base, pairs, covered) ->
      if base > 0 && List.length pairs > 1 && List.length covered > 1 then
        incr nonempty;
      if not (ascending (List.map fst pairs)) then
        Alcotest.failf "shard %d: snapshot keys not strictly ascending" si;
      if not (ascending (List.map fst covered)) then
        Alcotest.failf "shard %d: dedup records not strictly ascending by client" si)
    (Svc.checkpoint_state svc);
  if !nonempty = 0 then
    Alcotest.fail "no shard committed a multi-entry checkpoint — nothing checked"

(* Regression: rebuilding the dedup table from the committed log must
   let the *last* committed record win on equal (client, seq) — a
   re-sent request can legitimately commit once per era, and only the
   final slot's result is the one recovery's re-send answer must
   carry. Forge both orders to pin the direction. *)
let dedup_rebuild_last_committed_wins () =
  List.iter
    (fun (first, second) ->
      let m = Machine.create ~seed:3 () in
      Machine.set_current m;
      let structure = List.assoc "hash" I.structures in
      let flavour =
        match I.flavour "nvt" with Some f -> f | None -> assert false
      in
      let svc =
        Svc.create ~structure ~flavour ~shards:1 ~mode:Svc.Per_op ()
      in
      Machine.persist_all m;
      Svc.inject_committed svc
        [ { Svc.e_client = 5; e_seq = 3; e_op = Svc.Put (1, 1); e_res = first };
          { Svc.e_client = 5; e_seq = 3; e_op = Svc.Put (1, 1); e_res = second }
        ];
      Svc.recover svc;
      let answer = ref None in
      Svc.set_on_ack svc (fun req res ~dedup ->
          if dedup && req.Svc.client = 5 && req.Svc.seq = 3 then
            answer := Some res);
      Svc.start svc m;
      Svc.submit svc { Svc.client = 5; seq = 3; op = Svc.Put (1, 1) };
      Svc.request_stop svc;
      (match Machine.run m with
      | Machine.Completed -> ()
      | Machine.Crashed_at _ -> assert false);
      match !answer with
      | Some res when res = second -> ()
      | Some res ->
        Alcotest.failf "re-send answered with %s, wanted the later %s"
          (Format.asprintf "%a" Svc.pp_result res)
          (Format.asprintf "%a" Svc.pp_result second)
      | None -> Alcotest.fail "re-send was not deduplicated at all")
    [ (Svc.Done true, Svc.Done false); (Svc.Done false, Svc.Done true) ]

(* Crashes landing inside checkpoint sequences: >= 2 structures x >= 2
   policies, checkpointing on, merge barriers every 25 time units (less
   than one flush) so era thresholds can land between the svc:ckpt_*
   sites' individual accesses, two crash eras per run. The runner's
   exactly-once oracle is the verdict. *)
let crash_during_checkpoint_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun mode ->
              for seed = 0 to 1 do
                let cfg =
                  { svc_base with
                    structure;
                    flavour;
                    mode;
                    seed = seed + 1;
                    checkpoint_interval = 1200;
                    merge_epoch = 25;
                    crash_steps = [ 700 + (211 * seed); 600 ] }
                in
                let r = Runner.run cfg in
                let name =
                  Printf.sprintf "ckpt %s/%s/%s seed %d" structure flavour
                    (Svc.mode_name mode) seed
                in
                svc_clean name r;
                Alcotest.(check int) (name ^ ": all acked") cfg.requests
                  r.acked;
                if r.crashes_fired < 2 then
                  Alcotest.failf "%s: only %d/2 crashes fired" name
                    r.crashes_fired;
                if r.checkpoints = 0 then
                  Alcotest.failf
                    "%s: no checkpoints committed — the crashes gated \
                     nothing checkpoint-shaped"
                    name
              done)
            [ Svc.Per_op; Svc.Group { batch = 8; timeout = 1000 } ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* Crashes landing inside recovery itself (double-crash eras): the era
   crash starts a recovery pass, the recovery thresholds crash it
   partway, and the restarted pass must still restore exactly-once
   state — with and without a checkpoint to restore. *)
let crash_during_recovery_matrix () =
  List.iter
    (fun structure ->
      List.iter
        (fun flavour ->
          List.iter
            (fun interval ->
              for seed = 0 to 1 do
                let cfg =
                  { svc_base with
                    structure;
                    flavour;
                    seed = seed + 1;
                    checkpoint_interval = interval;
                    crash_steps = [ 900 + (173 * seed) ];
                    recovery_crashes = [ 40; 150 ] }
                in
                let r = Runner.run cfg in
                let name =
                  Printf.sprintf "rec-crash %s/%s ckpt=%d seed %d" structure
                    flavour interval seed
                in
                svc_clean name r;
                Alcotest.(check int) (name ^ ": all acked") cfg.requests
                  r.acked;
                if r.crashes_fired <> 1 then
                  Alcotest.failf "%s: %d era crashes fired, wanted 1" name
                    r.crashes_fired;
                if r.recovery_crashes_fired = 0 then
                  Alcotest.failf
                    "%s: no recovery crash fired — thresholds missed the \
                     recovery pass entirely"
                    name
              done)
            [ 0; 1500 ])
        [ "nvt"; "flit" ])
    [ "hash"; "list" ]

(* PR 6's determinism contract must survive checkpointing: a crash-free
   checkpointed run produces the same per-shard apply histories and the
   same checkpoint/truncation counts whether its shards share one
   domain or are striped over several. *)
let checkpointed_histories_domain_independent () =
  let cfg domains =
    { Runner.default_config with
      structure = "list";
      flavour = "nvt";
      shards = 6;
      clients = 8;
      requests = 150;
      mean_gap = 100;
      skew = 0.0;
      key_range = 64;
      update_pct = 60;
      watchdog = 1_000_000;
      seed = 7;
      domains;
      mode = Svc.Per_op;
      checkpoint_interval = 2000 }
  in
  let r1 = Runner.run (cfg 1) in
  svc_clean "ckpt domains=1" r1;
  if r1.checkpoints = 0 then
    Alcotest.fail "checkpointed determinism run took no checkpoints";
  List.iter
    (fun domains ->
      let rn = Runner.run (cfg domains) in
      svc_clean (Printf.sprintf "ckpt domains=%d" domains) rn;
      Alcotest.(check (list (list (pair int int))))
        (Printf.sprintf "per-shard histories, domains 1 = %d" domains)
        (Array.to_list r1.histories)
        (Array.to_list rn.histories);
      Alcotest.(check int)
        (Printf.sprintf "checkpoints, domains 1 = %d" domains)
        r1.checkpoints rn.checkpoints;
      Alcotest.(check int)
        (Printf.sprintf "truncated slots, domains 1 = %d" domains)
        r1.truncated rn.truncated)
    [ 3 ]

(* Interrupted-recovery and repeated-crash robustness must hold for
   every durable policy, so the list runs once per registry entry. *)
let list_cases =
  List.concat_map
    (fun (f : I.flavour) ->
      let set =
        I.instantiate_flavour f "list" (module Nvt_structures.Harris_list)
      in
      [ Alcotest.test_case
          (Printf.sprintf "crash during recovery: list, %s" f.key)
          `Quick
          (crash_during_recovery ("list/" ^ f.key) set);
        Alcotest.test_case
          (Printf.sprintf "multiple crash eras: list, %s" f.key)
          `Quick
          (multi_crash ("list/" ^ f.key) set) ])
    I.durable_flavours

let suite =
  list_cases
  @ [ Alcotest.test_case "crash during recovery: ellen bst" `Quick
      (crash_during_recovery "ellen" (module Eb.Durable));
    Alcotest.test_case "crash during recovery: natarajan bst" `Quick
      (crash_during_recovery "natarajan" (module Nm.Durable));
    Alcotest.test_case "crash during recovery: skiplist" `Quick
      (crash_during_recovery "skiplist" (module Sl.Durable));
      Alcotest.test_case "crash during recovery: hash table" `Quick
        (crash_during_recovery "hash" (module Ht.Durable));
      Alcotest.test_case "multiple crash eras: skiplist" `Quick
        (multi_crash "skiplist" (module Sl.Durable));
      Alcotest.test_case "multiple crash eras: natarajan bst" `Quick
        (multi_crash "natarajan" (module Nm.Durable));
      Alcotest.test_case "service: watchdog arms under a pending crash"
        `Quick watchdog_arms_under_pending_crash;
      Alcotest.test_case "service: checkpoint truncation retires cells"
        `Quick checkpoint_truncation_bounds_live_cells;
      Alcotest.test_case "service: crash-and-checkpoint fingerprint is pinned"
        `Quick service_fingerprint_is_pinned;
      Alcotest.test_case "service: checkpoint snapshots are in key order"
        `Quick checkpoint_snapshot_is_ordered;
      Alcotest.test_case "service: dedup rebuild is last-committed-wins"
        `Quick dedup_rebuild_last_committed_wins;
      Alcotest.test_case
        "service: crash-during-checkpoint matrix (2 structures x 2 policies)"
        `Quick crash_during_checkpoint_matrix;
      Alcotest.test_case
        "service: crash-during-recovery matrix (double-crash eras)" `Quick
        crash_during_recovery_matrix;
      Alcotest.test_case
        "service: checkpointed histories are domain-count independent"
        `Quick checkpointed_histories_domain_independent ]
