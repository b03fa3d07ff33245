(* The persistence-optimizer experiment: flushes/op and fences/op for
   every structure x policy pair, before and after the proof-gated
   optimizer, with bit-identical operation histories.

   Each pair runs the same single-threaded seeded workload twice on
   fresh machines: once with no plan installed (base) and once under
   the plan [Mutlab.plan_of_report] derives from the mutation report
   `nvtsim mutate` writes, MUTATION_report.json by default (optimized:
   deferred boundary persistence plus elision of the pair's
   candidate-redundant sites). Single-threaded
   runs make the operation history — the full (op, key, result)
   sequence — a pure function of the seed, so the bench can check that
   the two runs return identical results operation by operation: the
   optimizer may only remove persistence instructions, never change
   what the structure computes.

   A service leg reruns the open-loop runner (hash/nvt) per-op,
   group-committed and with durable multi-puts in the mix, reporting
   fences per acknowledged request and — for the multi-put row —
   fences per written key, the amortization a k-key batch buys by
   committing one ledger record under one pair of fences.

   Self-gates (the bench exits non-zero on any):
   - every structure pair's base and optimized histories are identical;
   - volatile control rows read zero flushes and fences in both series;
   - the optimizer never increases flushes or fences anywhere;
   - at least two durable pairs cut flushes/op by >= 15%;
   - every service run is exactly-once clean, every optimized row
     fences below its base, the multi-put row issues multi-puts, and
     its fences per key fall below the scalar per-op fences per
     request. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Optimizer = Nvt_nvm.Optimizer
module Workload = Nvt_workload.Workload
module Mutlab = Nvt_harness.Mutlab
module I = Nvt_harness.Instances
module Json = Nvt_harness.Json
module Record = Nvt_harness.Record
module Runner = Nvt_service.Runner

module type SET = Nvt_core.Set_intf.SET

(* The mutation report the elision plans are derived from; exit 2 if
   it cannot be read. *)
let load_report path =
  match Json.parse_file path with
  | j -> j
  | exception (Sys_error msg | Json.Parse_error msg) ->
    Printf.eprintf "cannot read mutation report %s: %s\n" path msg;
    exit 2

type series = {
  flushes : int;
  fences : int;
  history : (int * int * bool) list;  (* (op tag, key, result) *)
  counters : Optimizer.counters;
}

(* One single-threaded run: deterministic in (structure, policy, seed),
   so the history comparison isolates exactly the optimizer's effect. *)
let run_series (module S : SET) ~seed ~ops ~range ~pct plan : series =
  let m =
    Machine.create ~seed ~cost:Nvt_nvm.Cost_model.nvram
      ~optimizer:(Optimizer.of_plan plan) ()
  in
  let s = S.create () in
  List.iter
    (fun k -> if k < range then ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  Machine.persist_all m;
  let before = Stats.copy (Machine.stats m) in
  let hist = ref [] in
  let g = Workload.gen ~seed:(seed * 977) ~mix:(Workload.updates ~pct) ~range in
  ignore
    (Machine.spawn m (fun () ->
         for _ = 1 to ops do
           let entry =
             match Workload.next g with
             | Workload.Insert k -> (0, k, S.insert s ~key:k ~value:k)
             | Workload.Delete k -> (1, k, S.delete s k)
             | Workload.Lookup k -> (2, k, S.member s k)
           in
           hist := entry :: !hist
         done));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  let st = Stats.diff ~after:(Machine.stats m) ~before in
  { flushes = st.Stats.flushes;
    fences = st.Stats.fences;
    history = List.rev !hist;
    counters = Optimizer.counters () }

(* History digest for the artifact: order-chained, so equal values
   certify equal sequences without shipping the full history. *)
let digest h = List.fold_left (fun acc e -> Hashtbl.hash (acc, e)) 0 h

let series_metrics ~ops (s : series) =
  let per_op n = float_of_int n /. float_of_int (max 1 ops) in
  let c = s.counters in
  [ Record.count "ops" ops;
    Record.count "flushes" s.flushes;
    Record.count "fences" s.fences;
    Record.sim ~unit:"count/op" "flushes_per_op" (per_op s.flushes);
    Record.sim ~unit:"count/op" "fences_per_op" (per_op s.fences);
    Record.count "history_digest" (digest s.history);
    Record.count "coalesced_flushes" c.Optimizer.coalesced_flushes;
    Record.count "deferred_flushes" c.deferred_flushes;
    Record.count "elided_flushes" c.elided_flushes;
    Record.count "elided_fences" c.elided_fences ]

let reduction base opt =
  if base = 0 then 0.0 else 1.0 -. (float_of_int opt /. float_of_int base)

(* Written keys: one per scalar request plus the extra k-1 of each
   multi-put — the denominator under which batched commits amortize. *)
let fences_per_key (r : Runner.report) =
  let keys = r.acked + (r.multi_puts * (r.config.multi_k - 1)) in
  if keys = 0 then 0.0
  else float_of_int r.stats.Stats.fences /. float_of_int keys

let run ?json_path ~quick ~seed ~report_path () =
  let report = load_report report_path in
  let ops = if quick then 1500 else 6000 in
  let range = if quick then 128 else 256 in
  let pct = 40 in
  let structures = [ "list"; "bst-nm"; "hash" ] in
  Printf.printf
    "persistence-optimizer bench (%s): %d ops, range %d, %d%% updates, \
     plans from %s\n%!"
    (if quick then "quick" else "full")
    ops range pct report_path;
  let g = Record.gate () in
  let table = I.table () in
  let pairs =
    List.concat_map
      (fun s_name ->
        let variants = List.assoc s_name table in
        List.filter_map
          (fun (f : I.flavour) ->
            if not (I.supports f s_name) then None
            else
              let (module Pol : I.POLICY) = f.policy in
              let set = List.assoc f.key variants in
              let f_ops =
                max 200 (int_of_float (float_of_int ops *. f.ops_scale))
              in
              let plan =
                Mutlab.plan_of_report report ~structure:s_name ~policy:f.key
              in
              let go p = run_series set ~seed ~ops:f_ops ~range ~pct p in
              let base = go None and opt = go (Some plan) in
              let name = s_name ^ "/" ^ f.key in
              Record.check g (base.history = opt.history)
                "%s optimized history diverges from base" name;
              Record.check g (opt.flushes <= base.flushes)
                "%s optimizer increased flushes (%d -> %d)" name base.flushes
                opt.flushes;
              Record.check g (opt.fences <= base.fences)
                "%s optimizer increased fences (%d -> %d)" name base.fences
                opt.fences;
              if not Pol.durable then
                List.iter
                  (fun (which, s) ->
                    Record.check g
                      (s.flushes = 0 && s.fences = 0)
                      "volatile control %s %s series not erased to zero (%d \
                       flushes, %d fences)"
                      name which s.flushes s.fences)
                  [ ("base", base); ("optimized", opt) ];
              let elided = if Pol.durable then plan.Optimizer.elide else [] in
              let row plan_name extra s : Record.row =
                { table = "structures";
                  labels =
                    [ ("structure", s_name); ("policy", f.key);
                      ("plan", plan_name) ]
                    @ extra;
                  metrics = series_metrics ~ops:f_ops s }
              in
              Some
                ( Pol.durable && reduction base.flushes opt.flushes >= 0.15,
                  [ row "base" [] base;
                    row "opt"
                      [ ("elided",
                         if elided = [] then "-" else String.concat "," elided) ]
                      opt ] ))
          I.flavours)
      structures
  in
  let big_cuts = List.length (List.filter fst pairs) in
  Record.check g (big_cuts >= 2)
    "only %d durable pair(s) cut flushes/op by >= 15%% (need 2)" big_cuts;

  (* ---- service leg: hash/nvt per-op, group, and multi-put mixes ---- *)
  let requests = if quick then 600 else 2000 in
  let base_cfg = Service.base ~seed ~requests in
  let svc_plan =
    Mutlab.plan_of_report report ~structure:base_cfg.Runner.structure
      ~policy:base_cfg.Runner.flavour
  in
  let svc_cell label cfg =
    let b = Runner.run { cfg with Runner.plan = Some Optimizer.no_opt } in
    let o = Runner.run { cfg with Runner.plan = Some svc_plan } in
    List.iter
      (fun (r : Runner.report) ->
        List.iter (Record.fail g "service %s: %s" label) r.violations)
      [ b; o ];
    Record.check g
      (Runner.fences_per_op o < Runner.fences_per_op b)
      "service %s: optimized fences/op %.3f not below base %.3f" label
      (Runner.fences_per_op o) (Runner.fences_per_op b);
    (label, b, o)
  in
  let svc =
    [ svc_cell "per_op" { base_cfg with Runner.mode = Nvt_service.Service.Per_op };
      svc_cell "group64"
        { base_cfg with
          Runner.mode = Nvt_service.Service.Group { batch = 64; timeout = 8000 } };
      svc_cell "per_op+mput"
        { base_cfg with
          Runner.mode = Nvt_service.Service.Per_op;
          multi_pct = 30;
          multi_k = 8 } ]
  in
  (match svc with
  | [ (_, per_op, _); _; (_, mput, _) ] ->
    Record.check g (mput.multi_puts > 0) "multi-put mix issued no multi-puts";
    Record.check g
      (fences_per_key mput < Runner.fences_per_op per_op)
      "multi-put fences/key %.3f not below scalar per-op fences/op %.3f — \
       batching amortized nothing"
      (fences_per_key mput) (Runner.fences_per_op per_op)
  | _ -> assert false);
  let svc_rows =
    List.concat_map
      (fun (label, b, o) ->
        List.map
          (fun (plan, r) : Record.row ->
            { table = "service";
              labels = [ ("row", label); ("plan", plan) ];
              metrics =
                Runner.metrics r
                @ [ Record.sim ~unit:"count/key" "fences_per_key"
                      (fences_per_key r) ] })
          [ ("base", b); ("opt", o) ])
      svc
  in
  let rows = List.concat_map snd pairs @ svc_rows in
  Record.print
    ~columns:
      [ ( "structures",
          [ "flushes_per_op"; "fences_per_op"; "coalesced_flushes";
            "deferred_flushes"; "elided_flushes"; "elided_fences" ] );
        ("service", [ "fences_per_op"; "flushes_per_op"; "fences_per_key" ]) ]
    rows;
  Record.finish ?json_path ~gate:g
    { bench = "optimizer";
      scale = (if quick then "quick" else "full");
      seed = Some seed;
      config =
        [ ("report", Str report_path);
          ("ops", Int ops);
          ("range", Int range);
          ("update_pct", Int pct);
          ("service_requests", Int requests) ];
      rows }
