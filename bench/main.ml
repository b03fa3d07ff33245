(* Benchmark harness entry point.

   bench/main.exe panels [IDS...] [--full] [--seed N] [--json]
                                   figure panels (default: all, quick)
   bench/main.exe recovery|sensitivity|mix
                                   extension benches (tables only)
   bench/main.exe micro [--json]   Bechamel per-op latency (native)
   bench/main.exe native           domain throughput (native)
   bench/main.exe selfperf [--quick] [--seed N] [--json]
                                   simulator steps/sec (harness cost)
   bench/main.exe service [--quick] [--seed N] [--json]
                                   group vs per-op acknowledgement
   bench/main.exe recovery-service [--quick] [--seed N] [--json]
                                   service recovery vs log length
   bench/main.exe optimizer [--quick] [--seed N] [--json] [--report F]
                                   persistence optimizer before/after
   bench/main.exe contenders [--quick] [--seed N] [--json] [--report F]
                                   SOFT and det vs nvt and nvt+opt
   bench/main.exe diff ARTIFACT... simulated metrics vs bench/baseline.json

   Every bench builds rows of the one record format
   ([Nvt_harness.Record]): its table is printed from them, its --json
   artifact written from them, and its gate exits non-zero on a failed
   invariant. Running with no command is equivalent to `panels`
   followed by every extension bench — the full regeneration of the
   paper's evaluation. *)

open Cmdliner
module Record = Nvt_harness.Record

let panel_ids =
  Arg.(value & pos_all string [] & info [] ~docv:"PANEL" ~doc:"Figure ids, e.g. 5a 6g.")

let full =
  Arg.(value & flag & info [ "full" ] ~doc:"Paper-scale sweeps (slower).")

let seed =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Simulation seed.")

let json =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Also write the machine-readable artifact BENCH_<bench>.json \
              (BENCH_panels, _micro, _selfperf, _service, _recovery, \
              _optimizer or _contenders; one record format, see \
              EXPERIMENTS.md).")

let json_path json name = if json then Some ("BENCH_" ^ name ^ ".json") else None

let run_panels ids full seed json =
  let module Panels = Nvt_harness.Panels in
  let scale = if full then Panels.Full else Panels.Quick in
  Printf.printf
    "NVTraverse benchmark panels (%s scale). Simulated throughput; see \
     EXPERIMENTS.md for shape comparison against the paper.\n"
    (if full then "full" else "quick");
  match Panels.run ~seed ~scale ids with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    exit 2
  | rows ->
    Record.finish ?json_path:(json_path json "panels")
      { bench = "panels";
        scale = (if full then "full" else "quick");
        seed = Some seed;
        config =
          [ ("panels", List (List.map (fun i -> Nvt_harness.Json.Str i) ids)) ];
        rows };
    if ids = [] then Nvt_harness.Extensions.all ()

let panels_cmd =
  Cmd.v (Cmd.info "panels" ~doc:"Regenerate the paper's figure panels")
    Term.(const run_panels $ panel_ids $ full $ seed $ json)

let ext_cmd cmd_name doc =
  let run () = Nvt_harness.Extensions.run cmd_name in
  Cmd.v (Cmd.info cmd_name ~doc) Term.(const run $ const ())

let micro_cmd =
  Cmd.v
    (Cmd.info "micro" ~doc:"Bechamel per-operation latency, native backend")
    Term.(
      const (fun json -> Micro.run ?json_path:(json_path json "micro") ())
      $ json)

let native_cmd =
  Cmd.v
    (Cmd.info "native" ~doc:"Real-domain throughput, native backend")
    Term.(const Native_bench.run $ const ())

let quick =
  Arg.(
    value & flag
    & info [ "quick" ] ~doc:"Reduced sweep and op count (CI-sized).")

let seeded ?file cmd ~doc run =
  let file = Option.value file ~default:cmd in
  Cmd.v (Cmd.info cmd ~doc)
    Term.(
      const (fun quick seed json ->
          run ?json_path:(json_path json file) ~quick ~seed ())
      $ quick $ seed $ json)

let selfperf_cmd =
  seeded "selfperf" ~doc:"Simulated steps per wall second across thread counts"
    Selfperf.run

let service_cmd =
  seeded "service" ~doc:"Sharded durable service: group vs per-op acknowledgement"
    Service.run

let mutation_report =
  Arg.(
    value
    & opt string "MUTATION_report.json"
    & info [ "report" ] ~docv:"FILE"
        ~doc:"nvtraverse-mutation/2 report the optimizer's elision plans \
              are derived from, as written by $(b,nvtsim mutate) (not \
              committed: CI's quick mutation battery writes it first).")

let with_report cmd ~doc run =
  Cmd.v (Cmd.info cmd ~doc)
    Term.(
      const (fun quick seed json report_path ->
          run ?json_path:(json_path json cmd) ~quick ~seed ~report_path ())
      $ quick $ seed $ json $ mutation_report)

let optimizer_cmd =
  with_report "optimizer"
    ~doc:"Persistence optimizer: flushes/fences per op before vs after \
          coalescing, deferral and proof-gated elision, with bit-identical \
          operation histories"
    Optimizer_bench.run

let contenders_cmd =
  with_report "contenders"
    ~doc:"Head-to-head durable-set contenders: SOFT and detectable recovery \
          vs plain and optimizer-assisted NVTraverse, flushes/fences per op \
          and service fences per request"
    Contenders.run

let recovery_svc_cmd =
  seeded "recovery-service" ~file:"recovery"
    ~doc:"Service recovery time vs log length, checkpoint interval and \
          domain count"
    Recovery_svc.run

(* The committed simulated baseline of CI's quick benches. *)
let baseline_path = "bench/baseline.json"

let run_diff paths =
  let baseline = Record.read_baseline baseline_path in
  let g = Record.gate () in
  List.iter
    (fun path ->
      match Record.read path with
      | a -> List.iter (Record.fail g "%s") (Record.diff ~baseline a)
      | exception Nvt_harness.Json.Parse_error msg ->
        Record.fail g "%s: %s" path msg)
    paths;
  Printf.printf "%d artifact(s) against %s: %s\n" (List.length paths)
    baseline_path
    (if g.failures = [] then "simulated metrics unchanged" else "DRIFT");
  Record.close g

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare bench artifacts' simulated metrics against the \
             committed bench/baseline.json: any added or missing row or \
             changed simulated value fails; wall-clock metrics are ignored")
    Term.(
      const run_diff
      $ Arg.(non_empty & pos_all file [] & info [] ~docv:"ARTIFACT"))

let default = Term.(const run_panels $ panel_ids $ full $ seed $ json)

let () =
  let info =
    Cmd.info "nvtraverse-bench"
      ~doc:"Regenerate the NVTraverse paper's evaluation"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ panels_cmd;
            ext_cmd "recovery" "Recovery time vs structure size";
            ext_cmd "sensitivity" "Throughput vs fence cost";
            ext_cmd "mix" "Flush/fence counts per operation";
            micro_cmd;
            native_cmd;
            selfperf_cmd;
            service_cmd;
            recovery_svc_cmd;
            optimizer_cmd;
            contenders_cmd;
            diff_cmd ]))
