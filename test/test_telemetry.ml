(* The observability layer: per-site flush/fence/CAS attribution, the
   bounded machine event trace, the crashlab crash-coverage counters,
   the JSON emitter behind [BENCH_*.json], and the bench record format's
   baseline diff.

   The load-bearing invariant is conservation: every counted flush,
   fence and CAS is attributed to exactly one site, so the site table
   must sum to the aggregate counters — under every policy in the
   registry, or the attribution is lying about where the instructions
   go. *)

module I = Nvt_harness.Instances
module T = Nvt_harness.Throughput
module Json = Nvt_harness.Json
module Record = Nvt_harness.Record
module Panels = Nvt_harness.Panels
module Crashlab = Nvt_harness.Crashlab
module Stats = Nvt_nvm.Stats
module Machine = Nvt_sim.Machine
module Sim_mem = Nvt_sim.Memory
module Workload = Nvt_workload.Workload

let run_flavour (f : I.flavour) =
  let scale = if f.key = "izraelevitz" then 0.1 else f.ops_scale in
  T.run
    (I.instantiate_flavour f "list" (module Nvt_structures.Harris_list))
    ~cost:Nvt_nvm.Cost_model.nvram ~seed:5
    { T.threads = 4;
      range = 64;
      mix = Workload.updates ~pct:30;
      total_ops = int_of_float (800. *. scale) }

(* Per-site counts must sum exactly to the aggregate counters of the
   same run — for every registry policy, volatile included. *)
let sites_sum_to_aggregates () =
  List.iter
    (fun (f : I.flavour) ->
      let r = run_flavour f in
      let st = r.T.stats in
      let fl, fe, cas =
        List.fold_left
          (fun (fl, fe, cas) (_, s) ->
            (fl + s.Stats.s_flushes, fe + s.s_fences, cas + s.s_cas))
          (0, 0, 0) (Stats.sites st)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: site flushes sum to aggregate" f.key)
        st.Stats.flushes fl;
      Alcotest.(check int)
        (Printf.sprintf "%s: site fences sum to aggregate" f.key)
        st.Stats.fences fe;
      Alcotest.(check int)
        (Printf.sprintf "%s: site cas sum to aggregate" f.key)
        st.Stats.cas cas)
    I.flavours

(* Each durable policy's instrumentation must name where its flushes
   come from: at least three distinct non-[app] sites on an update-heavy
   run, with real traffic behind them. SOFT is the exception — the
   whole point of the algorithm is that it persists at exactly two
   sites (insert and delete), so its floor is two. *)
let durable_policies_name_their_sites () =
  List.iter
    (fun (f : I.flavour) ->
      let r = run_flavour f in
      let named =
        List.filter (fun (n, _) -> n <> Stats.app_site)
          (Stats.sites r.T.stats)
      in
      let floor = if f.key = "soft" then 2 else 3 in
      if List.length named < floor then
        Alcotest.failf "%s attributes to only %d named site(s): %s" f.key
          (List.length named)
          (String.concat ", " (List.map fst named));
      if r.T.stats.Stats.flushes = 0 then
        Alcotest.failf "%s: durable run issued no flushes" f.key)
    I.durable_flavours

(* The NVTraverse flavour may only use the engine/Protocol 2 site names
   documented in [Traversal.nvt_sites] (plus [app] for the algorithm's
   own accesses). A typo'd site string would silently fork a new row. *)
let nvt_sites_are_documented () =
  let documented = List.map fst Nvt_core.Traversal.nvt_sites in
  let f =
    match I.flavour "nvt" with Some f -> f | None -> assert false
  in
  let r = run_flavour f in
  List.iter
    (fun (name, _) ->
      if name <> Stats.app_site && not (List.mem name documented) then
        Alcotest.failf "undocumented nvt site %S (documented: %s)" name
          (String.concat ", " documented))
    (Stats.sites r.T.stats);
  (* and the engine's boundary sites actually fire on an update run *)
  List.iter
    (fun site ->
      if not (List.mem_assoc site (Stats.sites r.T.stats)) then
        Alcotest.failf "expected site %S absent from an update-heavy run"
          site)
    [ "nvt:make_persistent"; "nvt:return_fence" ]

(* ------------------------------------------------------------------ *)
(* Bounded event trace                                                 *)
(* ------------------------------------------------------------------ *)

let trace_is_bounded_and_attributed () =
  let m = Machine.create ~seed:3 () in
  Machine.set_trace m ~capacity:8;
  let l = Sim_mem.alloc 0 in
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 10 do
           Sim_mem.write l i;
           Stats.set_site "test:flush";
           Sim_mem.flush l;
           Stats.set_site "test:fence";
           Sim_mem.fence ()
         done));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> Alcotest.fail "unexpected crash");
  let tr = Machine.trace m in
  Alcotest.(check int) "ring keeps exactly its capacity" 8 (List.length tr);
  if Machine.trace_dropped m <= 0 then
    Alcotest.fail "30 events through an 8-slot ring must drop some";
  (* the tail is the most recent events, sites attached *)
  let has_flush =
    List.exists
      (function
        | Machine.Ev_flush { site; _ } -> site = "test:flush"
        | _ -> false)
      tr
  and has_fence =
    List.exists
      (function
        | Machine.Ev_fence { site; _ } -> site = "test:fence"
        | _ -> false)
      tr
  in
  if not (has_flush && has_fence) then
    Alcotest.fail "trace tail is missing attributed flush/fence events";
  (* steps must be non-decreasing oldest-to-newest *)
  let step_of = function
    | Machine.Ev_write { step; _ }
    | Machine.Ev_flush { step; _ }
    | Machine.Ev_fence { step; _ }
    | Machine.Ev_evict { step; _ }
    | Machine.Ev_crash { step; _ } -> step
  in
  ignore
    (List.fold_left
       (fun prev e ->
         let s = step_of e in
         if s < prev then Alcotest.fail "trace events out of order";
         s)
       (-1) tr)

let trace_records_the_crash () =
  let m = Machine.create ~seed:4 () in
  Machine.set_trace m ~capacity:32;
  let l = Sim_mem.alloc 0 in
  ignore
    (Machine.spawn m (fun () ->
         for i = 1 to 50 do
           Sim_mem.write l i
         done));
  Machine.set_crash_at_step m 5;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "crash did not fire");
  if
    not
      (List.exists
         (function Machine.Ev_crash _ -> true | _ -> false)
         (Machine.trace m))
  then Alcotest.fail "crash missing from the event trace"

(* ------------------------------------------------------------------ *)
(* Crashlab crash coverage                                             *)
(* ------------------------------------------------------------------ *)

let nvt_list =
  lazy
    (match I.flavour "nvt" with
    | Some f -> I.instantiate (module Nvt_structures.Harris_list) f.policy
    | None -> assert false)

(* Regression: a crash step beyond the end of its era used to be
   silently ignored — the run reported success while testing strictly
   less than configured. It must now be visible in the report. *)
let unreachable_crash_is_reported () =
  let c =
    { Crashlab.default_config with
      threads = 2;
      ops_per_thread = 10;
      crash_steps = [ 10_000_000 ] }
  in
  let r = Crashlab.run (Lazy.force nvt_list) c in
  Alcotest.(check int) "requested" 1 r.Crashlab.crashes_requested;
  Alcotest.(check int) "fired" 0 r.Crashlab.crashes_fired;
  if r.Crashlab.steps <= 0 then Alcotest.fail "steps covered not recorded"

let reachable_crash_fires () =
  let c =
    { Crashlab.default_config with
      threads = 2;
      ops_per_thread = 30;
      crash_steps = [ 50 ];
      trace_capacity = 16 }
  in
  let r = Crashlab.run (Lazy.force nvt_list) c in
  Alcotest.(check int) "requested" 1 r.Crashlab.crashes_requested;
  Alcotest.(check int) "fired" 1 r.Crashlab.crashes_fired;
  Alcotest.(check int) "eras" 2 r.Crashlab.eras;
  if List.length r.Crashlab.trace > 16 then
    Alcotest.fail "crashlab trace exceeds its configured capacity"

(* ------------------------------------------------------------------ *)
(* Regression: site-tag leak across Corrupt_read                       *)
(* ------------------------------------------------------------------ *)

(* [cas] and [flush] used to call [check_corrupt] *before*
   [Stats.take_site], so a tagged access that raised [Corrupt_read]
   (e.g. nvt:make_persistent during crashlab recovery) left its tag
   pending, and the next counted access was attributed to the wrong
   site — breaking the per-site = aggregate conservation above. The
   raise path must consume the tag. *)
let corrupt_read_consumes_site_tag () =
  let m = Machine.create ~seed:7 () in
  (* allocated but never persisted: wiped to corrupt by the crash *)
  let c1 = Sim_mem.alloc 0 in
  let c2 = Sim_mem.alloc 0 in
  ignore (Machine.spawn m (fun () -> Sim_mem.write c1 1));
  Machine.set_crash_at_step m 0;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> Alcotest.fail "expected the configured crash");
  let before = Stats.copy (Machine.stats m) in
  Stats.set_site "test:leak";
  (match Sim_mem.flush c1 with
  | () -> Alcotest.fail "flush of a corrupt cell must raise"
  | exception Machine.Corrupt_read _ -> ());
  Stats.set_site "test:leak";
  (match Sim_mem.cas c2 ~expected:0 ~desired:1 with
  | _ -> Alcotest.fail "cas on a corrupt cell must raise"
  | exception Machine.Corrupt_read _ -> ());
  (* the next counted access must fall back to the default site *)
  Sim_mem.fence ();
  let d = Stats.diff ~after:(Machine.stats m) ~before in
  if List.mem_assoc "test:leak" (Stats.sites d) then
    Alcotest.fail
      "site tag survived Corrupt_read and mis-attributed a later access";
  match List.assoc_opt Stats.app_site (Stats.sites d) with
  | Some s when s.Stats.s_fences = 1 -> ()
  | _ ->
    Alcotest.fail "the fence after the raises must be attributed to [app]"

(* ------------------------------------------------------------------ *)
(* Regression: throughput op budget                                    *)
(* ------------------------------------------------------------------ *)

(* A set that counts every operation invoked on it; correctness of the
   contents is irrelevant here, only the invocation count. *)
let counted = ref 0

module Counting_set = struct
  type t = (int * int) list Sim_mem.loc

  let create () = Sim_mem.alloc []

  let insert t ~key ~value =
    incr counted;
    let l = Sim_mem.read t in
    if List.mem_assoc key l then false
    else begin
      Sim_mem.write t ((key, value) :: l);
      true
    end

  let delete t k =
    incr counted;
    let l = Sim_mem.read t in
    if List.mem_assoc k l then begin
      Sim_mem.write t (List.remove_assoc k l);
      true
    end
    else false

  let member t k =
    incr counted;
    List.mem_assoc k (Sim_mem.read t)

  let find t k = List.assoc_opt k (Sim_mem.read t)
  let recover _ = ()
  let to_list t = List.sort compare (Sim_mem.read t)
  let recover_contents t = to_list t
  let size t = List.length (Sim_mem.read t)
  let check_invariants _ = ()
end

(* [Throughput.run] used to compute [per_thread = max 1 (total_ops /
   threads)]: 1000 ops over 64 threads silently ran 960, and
   [total_ops < threads] ran *more* than requested. Exactly [total_ops]
   operations must run, and the reported [ops] must match. *)
let throughput_runs_exactly_total_ops () =
  List.iter
    (fun (total_ops, threads) ->
      let range = 64 in
      (* the prefill loop also calls [insert]; its call count is
         deterministic, so subtract it *)
      let prefill_calls =
        List.length
          (List.filter (fun k -> k < range) (Workload.prefill_keys ~range))
      in
      counted := 0;
      let r =
        T.run
          (module Counting_set)
          ~cost:Nvt_nvm.Cost_model.nvram ~seed:11
          { T.threads; range; mix = Workload.updates ~pct:30; total_ops }
      in
      Alcotest.(check int)
        (Printf.sprintf "executed ops (%d over %d threads)" total_ops threads)
        total_ops
        (!counted - prefill_calls);
      Alcotest.(check int)
        (Printf.sprintf "reported ops (%d over %d threads)" total_ops threads)
        total_ops r.T.ops)
    [ (1000, 64); (3, 8); (64, 64); (100, 7) ]

(* ------------------------------------------------------------------ *)
(* JSON emitter                                                        *)
(* ------------------------------------------------------------------ *)

let json_emitter () =
  let check what expected v =
    Alcotest.(check string) what expected (Json.to_string v)
  in
  check "escaping"
    {|{"s":"a\"b\\c\nd\u0001"}|}
    (Json.Obj [ ("s", Json.Str "a\"b\\c\nd\x01") ]);
  check "non-finite floats are null" {|[null,null,1.5]|}
    (Json.List [ Json.Float Float.nan; Json.Float Float.infinity;
                 Json.Float 1.5 ]);
  check "scalars and nesting"
    {|{"a":1,"b":true,"c":null,"d":[{"x":0.5}]}|}
    (Json.Obj
       [ ("a", Json.Int 1);
         ("b", Json.Bool true);
         ("c", Json.Null);
         ("d", Json.List [ Json.Obj [ ("x", Json.Float 0.5) ] ]) ]);
  (* the shared site-table emitter *)
  let st = Stats.zero () in
  Stats.record_flush st ~site:"nvt:make_persistent";
  Stats.record_fence st ~site:"nvt:return_fence";
  check "site table"
    {|[{"site":"nvt:make_persistent","flushes":1,"fences":0,"cas":0},{"site":"nvt:return_fence","flushes":0,"fences":1,"cas":0}]|}
    (Json.sites st)

(* ------------------------------------------------------------------ *)
(* Bench records                                                       *)
(* ------------------------------------------------------------------ *)

(* An unknown panel id is rejected before any panel runs, so a typo
   can neither exit 0 nor leave an artifact of zero panels behind. *)
let unknown_panel_is_rejected () =
  List.iter
    (fun ids ->
      match Panels.run ~scale:Panels.Quick ids with
      | exception Invalid_argument _ -> ()
      | _ ->
        Alcotest.failf "panels %s accepted" (String.concat " " ids))
    [ [ "5z" ]; [ "5z"; "5a" ]; [ "5a"; "5z" ] ]

let artifact ~steps ~rate =
  { Record.bench = "selfperf";
    scale = "quick";
    seed = Some 1;
    config = [ ("range", Json.Int 256) ];
    rows =
      [ { table = "threads";
          labels = [ ("panel", "list"); ("threads", "8") ];
          metrics =
            [ Record.count "steps" steps;
              Record.sim ~unit:"count/op" "steps_per_op" 0.25;
              Record.wall ~unit:"steps/s" "steps_per_s" rate ] } ] }

(* The baseline diff reads the artifact back from its JSON text, fails
   on any simulated drift and ignores host time. *)
let baseline_diff () =
  let baseline = [ Record.baseline_of (artifact ~steps:1000 ~rate:5e6) ] in
  let diff a =
    Record.diff ~baseline
      (Record.of_json (Json.parse (Json.to_string (Record.to_json a))))
  in
  let check what want a =
    Alcotest.(check bool) what want (diff a = [])
  in
  check "clean diff passes" true (artifact ~steps:1000 ~rate:5e6);
  check "perturbed wall value passes" true (artifact ~steps:1000 ~rate:3e6);
  check "perturbed sim value fails" false (artifact ~steps:1001 ~rate:5e6);
  let a = artifact ~steps:1000 ~rate:5e6 in
  let extra = { (List.hd a.rows) with labels = [ ("panel", "hash") ] } in
  check "added row fails" false { a with rows = a.rows @ [ extra ] };
  check "missing row fails" false { a with rows = [] };
  check "other seed fails" false { a with seed = Some 2 };
  check "dropped sim metric fails" false
    { a with
      rows =
        List.map
          (fun (r : Record.row) ->
            { r with metrics = List.remove_assoc "steps" r.metrics })
          a.rows }

let suite =
  [ Alcotest.test_case "sites sum to aggregates (all policies)" `Quick
      sites_sum_to_aggregates;
    Alcotest.test_case "durable policies name >= 3 sites" `Quick
      durable_policies_name_their_sites;
    Alcotest.test_case "nvt sites match the documented registry" `Quick
      nvt_sites_are_documented;
    Alcotest.test_case "event trace is bounded and attributed" `Quick
      trace_is_bounded_and_attributed;
    Alcotest.test_case "event trace records the crash" `Quick
      trace_records_the_crash;
    Alcotest.test_case "unreachable crash step is reported" `Quick
      unreachable_crash_is_reported;
    Alcotest.test_case "reachable crash fires and is counted" `Quick
      reachable_crash_fires;
    Alcotest.test_case "corrupt read consumes the pending site tag" `Quick
      corrupt_read_consumes_site_tag;
    Alcotest.test_case "throughput runs exactly total_ops" `Quick
      throughput_runs_exactly_total_ops;
    Alcotest.test_case "json emitter" `Quick json_emitter;
    Alcotest.test_case "unknown panel id is rejected" `Quick
      unknown_panel_is_rejected;
    Alcotest.test_case "bench baseline diff" `Quick baseline_diff ]
