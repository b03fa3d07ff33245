(* Head-to-head contender bench: SOFT and the detectable wrapper
   against plain NVTraverse and NVTraverse under the proof-gated
   optimizer plan, on the workloads all four support (the hash table
   and the running-example list).

   Two legs:
   - micro: single-threaded seeded mixed workloads per (structure,
     contender), reporting flushes/op and fences/op — the paper's
     persistence-instruction currency. The nvt+opt contender is plain
     nvt with the plan [Mutlab.plan_of_report] derives from the
     mutation report `nvtsim mutate` writes (MUTATION_report.json by
     default), so the artifact quantifies how much of SOFT's hand-tuned
     advantage the optimizer recovers mechanically.
   - service: the open-loop runner on the hash structure per
     contender, reporting fences per acknowledged request with the
     exactly-once oracle (status query included) on.

   Self-gates (the bench exits non-zero on any):
   - SOFT beats plain nvt on both flushes/op and fences/op on the hash
     micro workload — the paper's headline: a hand-tuned durable set
     persists less than a mechanically transformed one;
   - the optimizer never increases either metric over plain nvt;
   - every service run is exactly-once clean. *)

module Optimizer = Nvt_nvm.Optimizer
module Mutlab = Nvt_harness.Mutlab
module I = Nvt_harness.Instances
module Record = Nvt_harness.Record
module Runner = Nvt_service.Runner

(* The contender line-up: display key, registry flavour, and whether
   the optimizer plan is installed. *)
let contenders = [ ("nvt", "nvt", false); ("nvt+opt", "nvt", true);
                   ("soft", "soft", false); ("det", "det", false) ]

let run ?json_path ~quick ~seed ~report_path () =
  let report = Optimizer_bench.load_report report_path in
  let ops = if quick then 1500 else 6000 in
  let range = if quick then 128 else 256 in
  let pct = 40 in
  let structures = [ "hash"; "list" ] in
  Printf.printf
    "contender bench (%s): %d ops, range %d, %d%% updates, plans from %s\n%!"
    (if quick then "quick" else "full")
    ops range pct report_path;
  let table = I.table () in
  let plan structure fkey optimized =
    if optimized then Some (Mutlab.plan_of_report report ~structure ~policy:fkey)
    else None
  in
  let micro =
    List.concat_map
      (fun s_name ->
        let variants = List.assoc s_name table in
        List.map
          (fun (ckey, fkey, optimized) ->
            let set = List.assoc fkey variants in
            ( (s_name, ckey),
              Optimizer_bench.run_series set ~seed ~ops ~range ~pct
                (plan s_name fkey optimized) ))
          contenders)
      structures
  in

  (* ---- service leg: same contenders behind the hash service ---- *)
  let requests = if quick then 500 else 1500 in
  let svc =
    List.map
      (fun (ckey, fkey, optimized) ->
        let cfg =
          { (Service.base ~seed ~requests) with
            flavour = fkey;
            mode = Nvt_service.Service.Per_op }
        in
        let plan =
          Option.value (plan "hash" fkey optimized) ~default:Optimizer.no_opt
        in
        (ckey, Runner.run { cfg with plan = Some plan }))
      contenders
  in
  let rows =
    List.map
      (fun ((s_name, ckey), s) : Record.row ->
        { table = "micro";
          labels = [ ("structure", s_name); ("contender", ckey) ];
          metrics = Optimizer_bench.series_metrics ~ops s })
      micro
    @ List.map
        (fun (ckey, r) : Record.row ->
          { table = "service";
            labels = [ ("contender", ckey) ];
            metrics = Runner.metrics r })
        svc
  in
  Record.print
    ~columns:
      [ ("micro", [ "flushes_per_op"; "fences_per_op" ]);
        ("service", [ "fences_per_op"; "flushes_per_op" ]) ]
    rows;

  (* ---- self-gates ---- *)
  let g = Record.gate () in
  let m s c = List.assoc (s, c) micro in
  let hash_soft = m "hash" "soft" and hash_nvt = m "hash" "nvt" in
  Record.check g (hash_soft.flushes < hash_nvt.flushes)
    "SOFT hash flushes %d not below plain nvt %d" hash_soft.flushes
    hash_nvt.flushes;
  Record.check g (hash_soft.fences < hash_nvt.fences)
    "SOFT hash fences %d not below plain nvt %d" hash_soft.fences
    hash_nvt.fences;
  List.iter
    (fun s ->
      let base = m s "nvt" and opt = m s "nvt+opt" in
      Record.check g (opt.flushes <= base.flushes)
        "%s: optimizer increased flushes (%d -> %d)" s base.flushes opt.flushes;
      Record.check g (opt.fences <= base.fences)
        "%s: optimizer increased fences (%d -> %d)" s base.fences opt.fences)
    structures;
  List.iter
    (fun (ckey, (r : Runner.report)) ->
      List.iter (Record.fail g "service contender %s: %s" ckey) r.violations)
    svc;
  (* the headline gap, printed so the log quantifies what the optimizer
     recovers of SOFT's hand-tuned advantage on the hash workload *)
  let gap (a : Optimizer_bench.series) =
    100.0 *. Optimizer_bench.reduction hash_nvt.flushes a.flushes
  in
  Printf.printf
    "hash flush/op gaps vs plain nvt: soft %.1f%%, nvt+opt %.1f%%\n%!"
    (gap hash_soft) (gap (m "hash" "nvt+opt"));
  Record.finish ?json_path ~gate:g
    { bench = "contenders";
      scale = (if quick then "quick" else "full");
      seed = Some seed;
      config =
        [ ("report", Str report_path);
          ("ops", Int ops);
          ("range", Int range);
          ("update_pct", Int pct);
          ("service_requests", Int requests) ];
      rows }
