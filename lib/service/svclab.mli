(** Mutation battery for the service layer's own persistence sites —
    the commit protocol's [svc:ledger_]/[svc:commit_] sites and the
    checkpointer's [svc:ckpt_] sites — which only a whole-service run
    reaches. Suppresses one site at a time ({!Nvt_nvm.Suppress}) and
    attacks the {!Runner} with swept crash thresholds, including
    double-crash eras that fire a second crash during the recovery
    pass; a kill is an exactly-once-oracle violation, a stalled
    recovery, a corrupt cell or a structural failure.

    Results are ordinary {!Nvt_harness.Mutlab.flavour_report}s with
    [structure = "svc:" ^ name]: [nvtsim mutate] appends them to the
    structure batteries' report, and the nvtraverse-mutation/2 schema,
    gate and validator apply unchanged. *)

val run :
  ?policies:string list ->
  ?optimize:Nvt_harness.Json.t ->
  Nvt_harness.Mutlab.scale ->
  Nvt_harness.Mutlab.flavour_report list
(** Run the battery for every [(structure, policy)] combo in the
    scale's [service] list (restricted to [policies] when non-empty).
    [optimize] is a mutation report ([nvtsim mutate]'s output): each combo then runs
    under the optimizer plan {!Nvt_harness.Mutlab.plan_of_report}
    derives for its {e store}'s structure x policy — svc commit sites
    are proven necessary and never planned — so the battery doubles as
    the service-scale durability proof of the optimized configuration.
    Raises [Failure] if an intact probe run reports a violation. *)

val set_combo : structure:string -> policy:string -> unit
(** Select the combo {!run_attack} replays against. {!run} sets it as
    it goes; set it explicitly before standalone replays. *)

val run_attack : Nvt_harness.Mutlab.attack -> string option
(** Replay one recorded [Svc_crash] attack against the current combo,
    under whatever suppression is active — [Some detail] is a
    durability violation. Raises [Invalid_argument] on non-service
    attacks. *)
