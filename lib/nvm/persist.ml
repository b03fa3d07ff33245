(* Persistence policies.

   Every structure in [lib/structures] is written once, in traversal form,
   against a memory [M] and a persistence policy [P]. Instantiating [P]
   with [Volatile] erases every flush and fence and yields the original
   lock-free algorithm; instantiating it with [Durable] yields the
   NVTraverse data structure of Section 4. *)

module Make (M : Memory.S) = struct
  module type S = sig
    val enabled : bool
    (** Whether flushes are real; lets generic code skip bookkeeping that
        only exists to feed [flush]. *)

    val flush : 'a M.loc -> unit
    val flush_any : M.any -> unit
    val fence : unit -> unit
  end

  module Volatile : S = struct
    let enabled = false
    let flush _ = ()
    let flush_any _ = ()
    let fence () = ()
  end

  module Durable : S = struct
    let enabled = true
    let flush = M.flush
    let flush_any = M.flush_any
    let fence = M.fence
  end

  (* Site-attributed guarded persistence: the one place an attributed
     flush or fence is issued — by the engine, Protocol 2, the policy
     wrappers, the contenders and the service alike — so one rule gives
     every site name its meaning:

       1. erased when [P] is not [enabled]: the [Volatile]
          instantiation is the negative control, and an erased
          instruction neither counts a skip nor leaves a pending tag
          to leak onto the next counted access;
       2. skipped when {!Suppress} kills the site (the mutation lab's
          knife), checked first so its skip counters stay exact under
          an installed plan;
       3. skipped when the {!Optimizer} plan elides the site;
       4. otherwise tagged with {!Stats.set_site} and issued.

     Layers that persist whatever the store's policy (the
     self-instrumenting wrappers over their own memory, the service
     ledger and checkpoints) instantiate it over [Durable]. *)
  module Sited (P : S) = struct
    let flush_on site =
      P.enabled
      && not (Suppress.flush_killed site || Optimizer.flush_elided site)

    let fence_on site =
      P.enabled
      && not (Suppress.fence_killed site || Optimizer.fence_elided site)

    let flush site l =
      if flush_on site then begin
        Stats.set_site site;
        P.flush l
      end

    let flush_any site l =
      if flush_on site then begin
        Stats.set_site site;
        P.flush_any l
      end

    let fence site =
      if fence_on site then begin
        Stats.set_site site;
        P.fence ()
      end

    let persist site l =
      flush site l;
      fence site
  end
end
