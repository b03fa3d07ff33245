(** Open-loop load harness and crash laboratory for {!Service}: Poisson
    arrivals over sequential client sessions, crash/recover eras with
    client re-send, an exactly-once oracle, latency percentiles in
    simulated time, and the report's numbers as bench record metrics.

    The service's shards are striped over [domains] groups, each a
    {!Service} slice on its own {!Nvt_sim.Machine} running on its own
    OCaml domain; the main domain merges their apply/ack streams,
    drives client sessions and fires crashes at virtual-time barriers
    every [merge_epoch] units. Crash-free runs produce the same
    per-shard apply histories and oracle verdict for every domain
    count, provided each machine's working set fits the cost model's
    [capacity_lines] (above it the per-machine working-set model
    converts read hits to misses probabilistically, and one machine
    holding all shards has a larger set than several holding slices);
    crashed runs stay verdict-stable (each machine coin-flips its own
    pending write-backs at a crash). *)

type config = {
  structure : string;  (** registry key, e.g. ["hash"] *)
  flavour : string;  (** registry key, e.g. ["nvt"] *)
  shards : int;
  clients : int;
  requests : int;
  mean_gap : int;  (** mean Poisson inter-arrival gap, time units *)
  skew : float;  (** [0.] = uniform keys, else Zipf skew *)
  update_pct : int;
  key_range : int;
  mode : Service.mode;
  seed : int;
  crash_steps : int list;
  cost : Nvt_nvm.Cost_model.t;
  eviction : Nvt_sim.Machine.eviction;
  watchdog : int;
      (** max aggregate steps per era before a stall is declared *)
  audit : bool;  (** re-send every client's last acked request at end *)
  domains : int;
      (** shard groups on real OCaml domains; clamped to [shards].
          Default 1: everything on the calling domain. *)
  merge_epoch : int;
      (** virtual time units between merge barriers (default 500) *)
  checkpoint_interval : int;
      (** virtual-time checkpoint interval, rounded up to whole merge
          epochs; 0 (the default) disables checkpointing *)
  recovery_crashes : int list;
      (** aggregate-step thresholds of crashes fired {e during}
          recovery (double-crash eras): each recovery pass after an era
          crash consumes the next threshold, crashes every machine, and
          restarts recovery from the durable state. Default []. *)
  plan : Nvt_nvm.Optimizer.plan option;
      (** Optimizer plan installed on every machine's own context
          (worker domains never see the main domain's ambient plan, and
          a shared context would race its counters across domains).
          [None] (the default) inherits the calling domain's ambient
          plan, so wrapping [run] in {!Nvt_nvm.Optimizer.set} works. *)
  multi_pct : int;
      (** percentage of requests issued as same-shard
          {!Service.Multi_put} batches (default 0: none, and the
          op-mix RNG is never consumed, so existing histories are
          unchanged) *)
  multi_k : int;
      (** keys per multi-put, capped at the shard's key pool
          (default 4) *)
  rmw_pct : int;
      (** percentage of requests issued as {!Service.Rmw} (default 0) *)
}

val default_config : config

type latency = { p50 : int; p95 : int; p99 : int; lmax : int; mean : float }

type report = {
  config : config;
  acked : int;
  applies : int;
  resent : int;
  multi_puts : int;  (** requests issued as same-shard multi-puts *)
  rmws : int;  (** requests issued as read-modify-writes *)
  dedup_acks : int;
  audit_acks : int;
  crashes_requested : int;
  crashes_fired : int;
  recovery_crashes_requested : int;
  recovery_crashes_fired : int;
  checkpoints : int;  (** checkpoints durably committed *)
  truncated : int;  (** log slots dropped by checkpoints *)
  replayed : int;
      (** committed log entries replayed by recovery passes: bounded by
          the delta since the last checkpoint when checkpointing is on,
          the whole committed log per pass otherwise *)
  recovery_steps : int;
      (** aggregate machine steps spent inside recovery passes *)
  recovery_time : int;
      (** virtual time consumed by recovery passes — the availability
          gap the recovery bench measures *)
  live_keys : int;
      (** keys in the committed store at the end of the run (the size of
          the replay model the final state is checked against); 0 when
          the run stalled *)
  eras : int;
  makespan : int;
  steps : int;
  committed : int;
  latency : latency;
  stats : Nvt_nvm.Stats.t;
      (** main-run window: prefill and the audit pass excluded *)
  violations : string list;
      (** empty iff exactly-once semantics held (and nothing stalled) *)
  histories : (int * int) list array;
      (** per global shard, the (client, seq) apply order of the main
          run — the determinism tests compare these across domain
          counts *)
}

val run : config -> report

val fences_per_op : report -> float
val flushes_per_op : report -> float
val pp_report : Format.formatter -> report -> unit

val metrics : report -> (string * Nvt_harness.Record.metric) list
(** The report's numbers as bench metrics (all simulated); the
    per-site table is [Nvt_harness.Record.site_rows] of [stats]. *)
