(* Per-site suppression: the mutation harness's knife.

   Every flush/fence the policies and the engine inject is attributed to
   a named site (see {!Stats}); this module lets the harness disable
   exactly one of those sites at a time. The guarded primitive
   [Persist.Make(M).Sited], through which every layer issues its
   attributed flushes and fences, consults [flush_killed]/[fence_killed]
   with the site name immediately before the instruction and skips it
   when the site is the suppressed one — the program otherwise runs unchanged, which is the
   mutation-testing notion of removing a single persistence instruction
   from the source.

   Only flushes and fences are suppressible. CAS-only sites
   (lp:mark_clean, flit:install, flit:decrement) are part of the
   algorithms' synchronization, not of the persistence discipline, and
   suppressing a CAS would change the concurrent algorithm itself.

   The switch is a small context record rather than a global cell:
   machines running on different domains (shard-per-domain simulation,
   parallel mutation batteries) each carry their own context, installed
   in domain-local storage by {!Nvt_sim.Machine.set_current}, so one
   domain's suppression can never leak into another's run. Within a
   domain the module-level API below operates on the currently installed
   context, so existing callers are unchanged. Callers must still reset
   with [set None] (through [Fun.protect]) so a suppression cannot leak
   into later runs on the same context. *)

type t = {
  mutable active : string option;
  mutable flushes : int;
  mutable fences : int;
}

let create () = { active = None; flushes = 0; fences = 0 }

(* Each domain starts with its own fresh context; [use] swaps in a
   machine's context when interleaving several machines on one domain. *)
let key = Domain.DLS.new_key create

let ambient () = Domain.DLS.get key
let use c = Domain.DLS.set key c

let set site =
  let c = ambient () in
  c.active <- site;
  c.flushes <- 0;
  c.fences <- 0

let site () = (ambient ()).active

let flush_killed name =
  let c = ambient () in
  match c.active with
  | Some s when String.equal s name ->
    c.flushes <- c.flushes + 1;
    true
  | _ -> false

let fence_killed name =
  let c = ambient () in
  match c.active with
  | Some s when String.equal s name ->
    c.fences <- c.fences + 1;
    true
  | _ -> false

let skipped () =
  let c = ambient () in
  (c.flushes, c.fences)
