(* Protocol 2 (Section 4.2): the instrumentation applied inside the
   critical method of an NVTraverse data structure.

     - Flush after every read of a shared variable.
     - Flush after every write/CAS instruction.
     - Fence before every write/CAS on a shared variable.
     - (Fence before return is inserted by the engine, which owns the
       return point of the critical method.)

   The flushes and fences are issued through the guarded primitive
   [Persist.Make(M).Sited (P)] under the [nvt:crit_*] sites, so the
   same critical-section code erases to the original algorithm when
   [P] is [Persist.Make(M).Volatile].

   Immutable fields need no flush after a read (end of Section 4.2);
   structures express this by reading write-once locations through [M]
   directly rather than through this wrapper. *)

module Make (M : Memory.S) (P : Persist.Make(M).S) :
  Memory.S with type 'a loc = 'a M.loc = struct
  module Pm = Persist.Make (M)
  module G = Pm.Sited (P)

  include
    Policy.Instrument
      (M)
      (struct
        let after_alloc _ = ()
        let after_read l = G.flush "nvt:crit_read" l
        let before_update () = G.fence "nvt:crit_fence"
        let after_update l = G.flush "nvt:crit_update" l
        let flush l = G.flush "nvt:crit_flush" l
        let fence () = G.fence "nvt:crit_fence"
      end)
end
