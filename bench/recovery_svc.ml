(* The recovery experiment: how long does the service stay unavailable
   after a crash, as a function of committed-log length, checkpoint
   interval and domain count?

   The paper's transformation makes the *destination* durable so that
   recovery needs no journey reconstruction; this bench measures the
   service-level analogue. Without checkpoints every recovery pass
   replays the whole committed log, so the availability gap grows with
   run length; with per-shard checkpoints recovery replays only the
   delta since the last checkpoint, so the gap is flat in log length
   at a fixed interval. Shards recover as parallel simulated threads,
   so domain count shrinks the virtual-time gap without changing the
   replayed-entry count.

   Per (requests, domains, checkpoint_interval) cell the bench probes
   a crash-free run for its step count, re-runs it with one crash at
   ~90% of that horizon, and reads the runner's recovery accounting:
   entries replayed, aggregate steps and virtual time spent inside the
   recovery pass. checkpoint_interval = 0 is the full-replay baseline.

   Store-size axis: the sweep runs over 256 keys; the checkpointed
   1000-request cells are repeated over 4096 keys. Each row records the
   store's live keys next to its recovery steps. Recovery still walks
   every shard's whole store once (every bucket head, then every node),
   so its steps grow with the store; no gate holds them flat along this
   axis yet.

   Self-gates (the bench exits non-zero on any):
   - every run exact-once clean, with exactly its one crash fired and
     a live store of at most the key range;
   - baseline rows take no checkpoint and truncate nothing; checkpointed
     rows take at least one;
   - checkpointed recovery replays no more than the baseline, at every
     cell;
   - at the largest run the checkpointed replay is at most half the
     baseline's (the flatness claim's load-bearing edge);
   - the baseline's replay grows with the log (the bench would gate
     nothing if it did not). *)

module Runner = Nvt_service.Runner
module Service = Nvt_service.Service
module Record = Nvt_harness.Record

type cell = {
  requests : int;
  keys : int;  (* key range; the store holds about half of it *)
  domains : int;
  interval : int;
  crash_step : int;
  report : Runner.report;
  wall_s : float;
}

let base_keys = 256
let store_size_keys = 4096
let store_size_requests = 1000

let base ~seed ~requests ~keys ~domains ~interval =
  { Runner.default_config with
    structure = "hash";
    flavour = "nvt";
    seed;
    shards = 4;
    clients = 8;
    requests;
    mean_gap = 300;
    skew = 0.;
    update_pct = 60;
    key_range = keys;
    (* per-op commit: every request appends and commits one log entry,
       so the committed-log length tracks the request count exactly *)
    mode = Service.Per_op;
    domains;
    checkpoint_interval = interval;
    watchdog = 40_000_000 }

let cell ~seed ~requests ~keys ~domains ~interval =
  let cfg = base ~seed ~requests ~keys ~domains ~interval in
  let probe = Runner.run cfg in
  let crash_step = probe.steps * 9 / 10 in
  let t0 = Unix.gettimeofday () in
  let report = Runner.run { cfg with crash_steps = [ crash_step ] } in
  { requests; keys; domains; interval; crash_step; report;
    wall_s = Unix.gettimeofday () -. t0 }

let row (x : cell) : Record.row =
  { table = "cells";
    labels =
      List.map
        (fun (k, v) -> (k, string_of_int v))
        [ ("requests", x.requests); ("keys", x.keys); ("domains", x.domains);
          ("interval", x.interval) ];
    metrics =
      (Record.count "crash_step" x.crash_step :: Runner.metrics x.report)
      @ [ Record.wall ~unit:"s" "wall_s" x.wall_s ] }

let run ?json_path ~quick ~seed () =
  let sizes = if quick then [ 250; 500; 1000 ] else [ 500; 1000; 2000; 4000 ] in
  let intervals = if quick then [ 0; 4000 ] else [ 0; 2000; 8000 ] in
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf
    "service recovery bench (%s): hash/nvt, 4 shards, per-op commit\n%!"
    (if quick then "quick" else "full");
  let sweep =
    List.concat_map
      (fun requests ->
        List.concat_map
          (fun domains ->
            List.map
              (fun interval ->
                cell ~seed ~requests ~keys:base_keys ~domains ~interval)
              intervals)
          domain_counts)
      sizes
  in
  (* the store-size axis: outside the log-length gates below *)
  let big_store =
    List.concat_map
      (fun domains ->
        List.filter_map
          (fun interval ->
            if interval = 0 then None
            else
              Some
                (cell ~seed ~requests:store_size_requests ~keys:store_size_keys
                   ~domains ~interval))
          intervals)
      domain_counts
  in
  let cells = sweep @ big_store in
  Record.print
    ~columns:
      [ ( "cells",
          [ "live_keys"; "committed"; "checkpoints"; "replayed";
            "recovery_steps"; "recovery_time"; "wall_s" ] ) ]
    (List.map row cells);
  let g = Record.gate () in
  List.iter
    (fun x ->
      let r = x.report in
      let name =
        Printf.sprintf "requests=%d keys=%d domains=%d interval=%d" x.requests
          x.keys x.domains x.interval
      in
      List.iter (Record.fail g "%s: %s" name) r.violations;
      Record.check g (r.crashes_fired = 1) "%s fired %d crashes, wanted 1"
        name r.crashes_fired;
      Record.check g
        (r.live_keys > 0 && r.live_keys <= x.keys)
        "%s: %d live keys over %d keys" name r.live_keys x.keys;
      if x.interval = 0 then
        Record.check g
          (r.checkpoints = 0 && r.truncated = 0)
          "%s: baseline took %d checkpoints, truncated %d entries" name
          r.checkpoints r.truncated
      else
        Record.check g (r.checkpoints > 0) "%s took no checkpoints" name)
    cells;
  let find requests domains interval =
    List.find
      (fun x ->
        x.requests = requests && x.domains = domains && x.interval = interval)
      sweep
  in
  List.iter
    (fun x ->
      if x.interval > 0 then begin
        let b = find x.requests x.domains 0 in
        Record.check g
          (x.report.replayed <= b.report.replayed)
          "requests=%d domains=%d interval=%d replayed %d > baseline %d"
          x.requests x.domains x.interval x.report.replayed b.report.replayed
      end)
    sweep;
  let n_min = List.hd sizes and n_max = List.hd (List.rev sizes) in
  List.iter
    (fun domains ->
      List.iter
        (fun interval ->
          if interval > 0 then begin
            let big = find n_max domains interval in
            let b = find n_max domains 0 in
            Record.check g
              (big.report.replayed * 2 <= b.report.replayed)
              "domains=%d interval=%d: replay at %d requests (%d) is not \
               under half the full-replay baseline (%d) — recovery is not \
               flat in log length"
              domains interval n_max big.report.replayed b.report.replayed
          end)
        intervals;
      let b_small = find n_min domains 0 and b_big = find n_max domains 0 in
      Record.check g
        (b_big.report.replayed > b_small.report.replayed)
        "domains=%d: full-replay baseline does not grow with the log (%d \
         entries at %d requests, %d at %d)"
        domains b_small.report.replayed n_min b_big.report.replayed n_max)
    domain_counts;
  Record.finish ?json_path ~gate:g
    { bench = "recovery-service";
      scale = (if quick then "quick" else "full");
      seed = Some seed;
      config =
        [ ("structure", Str "hash");
          ("policy", Str "nvt");
          ("shards", Int 4);
          ("mode", Str "per-op") ];
      rows = List.map row cells }
