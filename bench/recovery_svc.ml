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
   store's live keys and prints recovery steps per live key. Recovery
   still walks every shard's whole store once (every bucket head, then
   every node), so its steps grow with the store; no gate holds them
   flat along this axis yet.

   Self-gates (all also recomputed by tools/validate_bench.py):
   - every run exact-once clean;
   - checkpointed recovery replays no more than the baseline, at every
     cell;
   - at the largest run the checkpointed replay is at most half the
     baseline's (the flatness claim's load-bearing edge);
   - the baseline's replay grows with the log (the bench would gate
     nothing if it did not). *)

module Runner = Nvt_service.Runner
module Service = Nvt_service.Service
module Json = Nvt_harness.Json

type row = {
  rw_requests : int;
  rw_keys : int;  (* key range; the store holds about half of it *)
  rw_domains : int;
  rw_interval : int;
  rw_crash_step : int;
  rw_report : Runner.report;
  rw_wall : float;
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
  let r = Runner.run { cfg with crash_steps = [ crash_step ] } in
  let wall = Unix.gettimeofday () -. t0 in
  { rw_requests = requests;
    rw_keys = keys;
    rw_domains = domains;
    rw_interval = interval;
    rw_crash_step = crash_step;
    rw_report = r;
    rw_wall = wall }

let row_json (x : row) : Json.t =
  let r = x.rw_report in
  Json.Obj
    [ ("requests", Json.Int x.rw_requests);
      ("key_range", Json.Int x.rw_keys);
      ("live_keys", Json.Int r.live_keys);
      ("domains", Json.Int x.rw_domains);
      ("checkpoint_interval", Json.Int x.rw_interval);
      ("crash_step", Json.Int x.rw_crash_step);
      ("acked", Json.Int r.acked);
      ("crashes_fired", Json.Int r.crashes_fired);
      ("committed", Json.Int r.committed);
      ("checkpoints", Json.Int r.checkpoints);
      ("truncated", Json.Int r.truncated);
      ("replayed", Json.Int r.replayed);
      ("recovery_steps", Json.Int r.recovery_steps);
      ("recovery_time", Json.Int r.recovery_time);
      ("wall_s", Json.Float x.rw_wall);
      ("violations",
       Json.List (List.map (fun v -> Json.Str v) r.violations)) ]

let run ?json_path ?(quick = false) ?(seed = 1) () =
  let sizes = if quick then [ 250; 500; 1000 ] else [ 500; 1000; 2000; 4000 ] in
  let intervals = if quick then [ 0; 4000 ] else [ 0; 2000; 8000 ] in
  let domain_counts = if quick then [ 1; 2 ] else [ 1; 2; 4 ] in
  Printf.printf
    "service recovery bench (%s): hash/nvt, 4 shards, per-op commit\n\
     %8s %5s %5s %7s %8s %9s %9s %8s %9s %9s %9s %9s %6s\n"
    (if quick then "quick" else "full")
    "requests" "keys" "live" "domains" "interval" "committed" "ckpts"
    "replayed" "rec steps" "steps/key" "rec time" "wall s" "viols";
  let row ~requests ~keys ~domains ~interval =
    let x = cell ~seed ~requests ~keys ~domains ~interval in
    let r = x.rw_report in
    Printf.printf
      "%8d %5d %5d %7d %8d %9d %9d %8d %9d %9.2f %9d %9.3f %6d\n%!"
      requests keys r.live_keys domains interval r.committed r.checkpoints
      r.replayed r.recovery_steps
      (float_of_int r.recovery_steps /. float_of_int (max 1 r.live_keys))
      r.recovery_time x.rw_wall
      (List.length r.violations);
    List.iter (fun v -> Printf.printf "    VIOLATION: %s\n" v) r.violations;
    x
  in
  let rows =
    List.concat_map
      (fun requests ->
        List.concat_map
          (fun domains ->
            List.map
              (fun interval ->
                row ~requests ~keys:base_keys ~domains ~interval)
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
                (row ~requests:store_size_requests ~keys:store_size_keys
                   ~domains ~interval))
          intervals)
      domain_counts
  in
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun s -> Printf.printf "FAIL: %s\n" s; ok := false) fmt in
  List.iter
    (fun x ->
      if x.rw_report.violations <> [] then
        fail "requests=%d domains=%d interval=%d has violations"
          x.rw_requests x.rw_domains x.rw_interval;
      if x.rw_report.crashes_fired <> 1 then
        fail "requests=%d domains=%d interval=%d fired %d crashes, wanted 1"
          x.rw_requests x.rw_domains x.rw_interval x.rw_report.crashes_fired;
      if x.rw_interval = 0 && x.rw_report.checkpoints <> 0 then
        fail "baseline row took %d checkpoints" x.rw_report.checkpoints;
      if x.rw_interval > 0 && x.rw_report.checkpoints = 0 then
        fail "requests=%d domains=%d interval=%d took no checkpoints"
          x.rw_requests x.rw_domains x.rw_interval)
    (rows @ big_store);
  let find requests domains interval =
    List.find
      (fun x ->
        x.rw_requests = requests && x.rw_domains = domains
        && x.rw_interval = interval)
      rows
  in
  List.iter
    (fun x ->
      if x.rw_interval > 0 then begin
        let b = find x.rw_requests x.rw_domains 0 in
        if x.rw_report.replayed > b.rw_report.replayed then
          fail
            "requests=%d domains=%d interval=%d replayed %d > baseline %d"
            x.rw_requests x.rw_domains x.rw_interval x.rw_report.replayed
            b.rw_report.replayed
      end)
    rows;
  let n_min = List.hd sizes and n_max = List.hd (List.rev sizes) in
  List.iter
    (fun domains ->
      List.iter
        (fun interval ->
          if interval > 0 then begin
            let big = find n_max domains interval in
            let b = find n_max domains 0 in
            if big.rw_report.replayed * 2 > b.rw_report.replayed then
              fail
                "domains=%d interval=%d: replay at %d requests (%d) is not \
                 under half the full-replay baseline (%d) — recovery is not \
                 flat in log length"
                domains interval n_max big.rw_report.replayed
                b.rw_report.replayed
          end)
        intervals;
      let b_small = find n_min domains 0 and b_big = find n_max domains 0 in
      if b_big.rw_report.replayed <= b_small.rw_report.replayed then
        fail
          "domains=%d: full-replay baseline does not grow with the log \
           (%d entries at %d requests, %d at %d)"
          domains b_small.rw_report.replayed n_min b_big.rw_report.replayed
          n_max)
    domain_counts;
  (match json_path with
  | None -> ()
  | Some path ->
    let json =
      Json.Obj
        [ ("schema", Json.Str "nvtraverse-recovery/1");
          ("quick", Json.Bool quick);
          ("seed", Json.Int seed);
          ("structure", Json.Str "hash");
          ("policy", Json.Str "nvt");
          ("shards", Json.Int 4);
          ("mode", Json.Str "per-op");
          ("gate_ok", Json.Bool !ok);
          ("rows", Json.List (List.map row_json (rows @ big_store))) ]
    in
    Json.write_file path json;
    Printf.printf "wrote %s\n%!" path);
  if not !ok then exit 1
