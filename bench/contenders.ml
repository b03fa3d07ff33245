(* Head-to-head contender bench: SOFT and the detectable wrapper
   against plain NVTraverse and NVTraverse under the proof-gated
   optimizer plan, on the workloads all four support (the hash table
   and the running-example list).

   Two legs:
   - micro: single-threaded seeded mixed workloads per (structure,
     contender), reporting flushes/op and fences/op — the paper's
     persistence-instruction currency. The nvt+opt contender is plain
     nvt with the plan [Mutlab.plan_of_report] derives from the
     committed MUTATION_report.json, so the artifact quantifies how
     much of SOFT's hand-tuned advantage the optimizer recovers
     mechanically.
   - service: the open-loop runner on the hash structure per
     contender, reporting fences per acknowledged request with the
     exactly-once oracle (status query included) on.

   Self-gates (recomputed by tools/validate_bench.py):
   - SOFT beats plain nvt on both flushes/op and fences/op on the hash
     micro workload — the paper's headline: a hand-tuned durable set
     persists less than a mechanically transformed one;
   - the optimizer never increases either metric over plain nvt;
   - every service run is exactly-once clean. *)

module Machine = Nvt_sim.Machine
module Stats = Nvt_nvm.Stats
module Optimizer = Nvt_nvm.Optimizer
module Workload = Nvt_workload.Workload
module Mutlab = Nvt_harness.Mutlab
module I = Nvt_harness.Instances
module Json = Nvt_harness.Json
module Runner = Nvt_service.Runner

module type SET = Nvt_core.Set_intf.SET

type micro_row = {
  m_structure : string;
  m_contender : string;  (* display key: "soft", "nvt", "nvt+opt", "det" *)
  m_policy : string;  (* registry flavour key actually run *)
  m_optimized : bool;
  m_ops : int;
  m_flushes : int;
  m_fences : int;
  m_flushes_per_op : float;
  m_fences_per_op : float;
}

let run_micro (module S : SET) ~seed ~ops ~range ~pct plan =
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
  let g = Workload.gen ~seed:(seed * 977) ~mix:(Workload.updates ~pct) ~range in
  ignore
    (Machine.spawn m (fun () ->
         for _ = 1 to ops do
           match Workload.next g with
           | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
           | Workload.Delete k -> ignore (S.delete s k)
           | Workload.Lookup k -> ignore (S.member s k)
         done));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Stats.diff ~after:(Machine.stats m) ~before

(* The contender line-up: display key, registry flavour, and whether
   the optimizer plan is installed. *)
let contenders = [ ("nvt", "nvt", false); ("nvt+opt", "nvt", true);
                   ("soft", "soft", false); ("det", "det", false) ]

let micro_row_json (r : micro_row) : Json.t =
  Json.Obj
    [ ("structure", Json.Str r.m_structure);
      ("contender", Json.Str r.m_contender);
      ("policy", Json.Str r.m_policy);
      ("optimized", Json.Bool r.m_optimized);
      ("ops", Json.Int r.m_ops);
      ("flushes", Json.Int r.m_flushes);
      ("fences", Json.Int r.m_fences);
      ("flushes_per_op", Json.Float r.m_flushes_per_op);
      ("fences_per_op", Json.Float r.m_fences_per_op) ]

(* ---- service leg ---- *)

type svc_row = {
  s_contender : string;
  s_policy : string;
  s_optimized : bool;
  s_report : Runner.report;
}

let svc_row_json (x : svc_row) : Json.t =
  let r = x.s_report in
  Json.Obj
    [ ("contender", Json.Str x.s_contender);
      ("policy", Json.Str x.s_policy);
      ("optimized", Json.Bool x.s_optimized);
      ("acked", Json.Int r.acked);
      ("fences_per_op", Json.Float (Runner.fences_per_op r));
      ("flushes_per_op", Json.Float (Runner.flushes_per_op r));
      ("violations",
       Json.List (List.map (fun v -> Json.Str v) r.violations)) ]

let run ?json_path ?(quick = false) ?(seed = 1)
    ?(report_path = "MUTATION_report.json") () =
  let report =
    match Json.parse_file report_path with
    | j -> j
    | exception Sys_error msg ->
      Printf.eprintf "contender bench: cannot read %s: %s\n" report_path msg;
      exit 2
    | exception Json.Parse_error msg ->
      Printf.eprintf "contender bench: cannot parse %s: %s\n" report_path msg;
      exit 2
  in
  let ops = if quick then 1500 else 6000 in
  let range = if quick then 128 else 256 in
  let pct = 40 in
  let structures = [ "hash"; "list" ] in
  Printf.printf
    "contender bench (%s): %d ops, range %d, %d%% updates, plans from %s\n\
     %-9s %-9s %10s %10s\n"
    (if quick then "quick" else "full")
    ops range pct report_path "structure" "contender" "flush/op" "fence/op";
  let table = I.table () in
  let micro_rows =
    List.concat_map
      (fun s_name ->
        let variants = List.assoc s_name table in
        List.map
          (fun (ckey, fkey, optimized) ->
            let set = List.assoc fkey variants in
            let plan =
              if optimized then
                Some (Mutlab.plan_of_report report ~structure:s_name
                        ~policy:fkey)
              else None
            in
            let st = run_micro set ~seed ~ops ~range ~pct plan in
            let per_op n = float_of_int n /. float_of_int (max 1 ops) in
            let r =
              { m_structure = s_name;
                m_contender = ckey;
                m_policy = fkey;
                m_optimized = optimized;
                m_ops = ops;
                m_flushes = st.Stats.flushes;
                m_fences = st.Stats.fences;
                m_flushes_per_op = per_op st.Stats.flushes;
                m_fences_per_op = per_op st.Stats.fences }
            in
            Printf.printf "%-9s %-9s %10.3f %10.3f\n%!" s_name ckey
              r.m_flushes_per_op r.m_fences_per_op;
            r)
          contenders)
      structures
  in

  (* ---- service leg: same contenders behind the hash service ---- *)
  let requests = if quick then 500 else 1500 in
  let base_cfg policy =
    { Runner.default_config with
      seed;
      requests;
      structure = "hash";
      flavour = policy;
      shards = 4;
      clients = 16;
      mean_gap = 600;
      skew = 0.99;
      update_pct = 50;
      key_range = 512;
      mode = Nvt_service.Service.Per_op;
      watchdog = 40_000_000 }
  in
  let svc_rows =
    List.map
      (fun (ckey, fkey, optimized) ->
        let plan =
          if optimized then
            Mutlab.plan_of_report report ~structure:"hash" ~policy:fkey
          else Optimizer.no_opt
        in
        let r = Runner.run { (base_cfg fkey) with Runner.plan = Some plan } in
        { s_contender = ckey; s_policy = fkey; s_optimized = optimized;
          s_report = r })
      contenders
  in
  Printf.printf "service (hash, per-op, %d requests):\n%-9s %10s %10s %6s\n"
    requests "contender" "fence/op" "flush/op" "viols";
  List.iter
    (fun x ->
      Printf.printf "%-9s %10.3f %10.3f %6d\n%!" x.s_contender
        (Runner.fences_per_op x.s_report)
        (Runner.flushes_per_op x.s_report)
        (List.length x.s_report.violations);
      List.iter
        (fun v -> Printf.printf "    VIOLATION: %s\n" v)
        x.s_report.violations)
    svc_rows;

  (* ---- self-gates ---- *)
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf (fun s -> Printf.printf "FAIL: %s\n" s; ok := false) fmt
  in
  let micro s c =
    List.find
      (fun r -> r.m_structure = s && r.m_contender = c)
      micro_rows
  in
  let hash_soft = micro "hash" "soft"
  and hash_nvt = micro "hash" "nvt"
  and hash_opt = micro "hash" "nvt+opt" in
  if hash_soft.m_flushes_per_op >= hash_nvt.m_flushes_per_op then
    fail "SOFT hash flushes/op %.3f not below plain nvt %.3f"
      hash_soft.m_flushes_per_op hash_nvt.m_flushes_per_op;
  if hash_soft.m_fences_per_op >= hash_nvt.m_fences_per_op then
    fail "SOFT hash fences/op %.3f not below plain nvt %.3f"
      hash_soft.m_fences_per_op hash_nvt.m_fences_per_op;
  List.iter
    (fun s ->
      let base = micro s "nvt" and opt = micro s "nvt+opt" in
      if opt.m_flushes > base.m_flushes then
        fail "%s: optimizer increased flushes (%d -> %d)" s base.m_flushes
          opt.m_flushes;
      if opt.m_fences > base.m_fences then
        fail "%s: optimizer increased fences (%d -> %d)" s base.m_fences
          opt.m_fences)
    structures;
  List.iter
    (fun x ->
      if x.s_report.violations <> [] then
        fail "service contender %s has exactly-once violations" x.s_contender)
    svc_rows;
  (* the headline gap, printed so the log quantifies what the optimizer
     recovers of SOFT's hand-tuned advantage on the hash workload *)
  let gap a b =
    if b.m_flushes_per_op = 0.0 then 0.0
    else 1.0 -. (a.m_flushes_per_op /. b.m_flushes_per_op)
  in
  Printf.printf
    "hash flush/op gaps vs plain nvt: soft %.1f%%, nvt+opt %.1f%%\n%!"
    (100.0 *. gap hash_soft hash_nvt)
    (100.0 *. gap hash_opt hash_nvt);

  (match json_path with
  | None -> ()
  | Some path ->
    let json =
      Json.Obj
        [ ("schema", Json.Str "nvtraverse-contenders/1");
          ("quick", Json.Bool quick);
          ("seed", Json.Int seed);
          ("report", Json.Str report_path);
          ("ops", Json.Int ops);
          ("range", Json.Int range);
          ("update_pct", Json.Int pct);
          ("micro", Json.List (List.map micro_row_json micro_rows));
          ("service", Json.List (List.map svc_row_json svc_rows));
          ("gate_ok", Json.Bool !ok) ]
    in
    Json.write_file path json;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
