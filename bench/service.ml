(* The service-level group-persistence experiment: the same open-loop
   workload acknowledged per-op vs under group commit at several batch
   sizes, reporting latency percentiles (simulated time) and fences per
   acknowledged operation, with the saving attributed to the svc:*
   commit-protocol sites.

   The paper's analysis says fences dominate the cost of durable
   structures; this bench shows the service-level counterpart — one
   epoch fence amortized over a batch of acknowledgements — and
   its price: acknowledgement latency grows with the batching window.

   Every run carries the exactly-once oracle of [Nvt_service.Runner];
   a violation or a missing fence saving makes the bench exit
   non-zero, so CI distinguishes a clean run from a printed error. *)

module Runner = Nvt_service.Runner
module Service = Nvt_service.Service
module Record = Nvt_harness.Record

(* The hash/nvt service workload this bench, the optimizer bench and
   the contender bench share: just under capacity, since saturating
   the shards would measure queue growth, not the acknowledgement
   protocol. *)
let base ~seed ~requests =
  { Runner.default_config with
    seed;
    requests;
    structure = "hash";
    flavour = "nvt";
    shards = 4;
    clients = 16;
    mean_gap = 600;
    skew = 0.99;
    update_pct = 50;
    key_range = 512;
    watchdog = 40_000_000 }

let run ?json_path ~quick ~seed () =
  let requests = if quick then 600 else 4000 in
  let base = base ~seed ~requests in
  let modes =
    if quick then [ Service.Per_op; Service.Group { batch = 16; timeout = 4000 } ]
    else
      [ Service.Per_op;
        Service.Group { batch = 4; timeout = 2000 };
        Service.Group { batch = 16; timeout = 4000 };
        Service.Group { batch = 64; timeout = 8000 } ]
  in
  Printf.printf
    "service group-persistence bench (%s): %d requests, %s/%s, %d shards, \
     zipf(%.2f)\n%!"
    (if quick then "quick" else "full")
    requests base.structure base.flavour base.shards base.skew;
  let g = Record.gate () in
  let reports =
    List.map
      (fun mode ->
        let r = Runner.run { base with mode } in
        List.iter
          (Record.fail g "%s: %s" (Service.mode_name mode))
          r.violations;
        r)
      modes
  in
  (* per mode, the run's metrics and where its flushes and fences came
     from *)
  let rows =
    List.concat_map
      (fun (r : Runner.report) ->
        let labels = [ ("mode", Service.mode_name r.config.mode) ] in
        { Record.table = "runs"; labels; metrics = Runner.metrics r }
        :: Record.site_rows ~table:"sites" ~labels r.stats)
      reports
  in
  Record.print
    ~columns:
      [ ("runs", [ "ack_p50"; "ack_p99"; "fences_per_op"; "flushes_per_op" ]) ]
    rows;
  let per_op = List.hd reports in
  List.iter
    (fun (r : Runner.report) ->
      Record.check g
        (Runner.fences_per_op r < Runner.fences_per_op per_op)
        "%s fences/op %.3f not below per-op %.3f — group persistence saved \
         nothing"
        (Service.mode_name r.config.mode)
        (Runner.fences_per_op r) (Runner.fences_per_op per_op))
    (List.tl reports);
  Record.finish ?json_path ~gate:g
    { bench = "service";
      scale = (if quick then "quick" else "full");
      seed = Some seed;
      config =
        [ ("structure", Str base.structure);
          ("policy", Str base.flavour);
          ("shards", Int base.shards);
          ("clients", Int base.clients);
          ("requests", Int requests);
          ("mean_gap", Int base.mean_gap);
          ("skew", Float base.skew);
          ("update_pct", Int base.update_pct);
          ("key_range", Int base.key_range) ];
      rows }
