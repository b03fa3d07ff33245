(* SOFT (Zuriel, Friedman, Sheffi, Cohen, Petrank, "Efficient Lock-Free
   Durable Sets", OOPSLA 2019): the strongest published hand-tuned rival
   to the paper's generic transformation, here as a persistence policy
   plus a dedicated structure variant ([Nvt_structures.Soft_list]).

   SOFT splits every node in two. The *volatile* part — links, marks,
   the insert/delete life-cycle state — is ordinary cached memory and is
   never flushed; after a crash it is gone. The *persistent* part (the
   "pnode") holds only the key, the value and a validity state, and is
   the single word an update persists: one flush + fence when an insert
   activates its pnode, one when a delete deactivates it. Traversals,
   lookups and failed updates persist nothing at all. Recovery ignores
   the wrecked volatile list entirely and rebuilds it from the pnodes —
   the limit case of the paper's thesis that only the destination needs
   to be durable, bought by giving up any generic transformation: the
   algorithm is rewritten around the pnode life cycle.

   Durable linearizability is kept by *helping*: an operation whose
   answer depends on another operation's update (a lookup returning an
   element mid-insert, a delete losing the race to a concurrent delete)
   first persists that update's pnode itself, so no answer ever exposes
   a state that a crash could take back.

   The life-cycle states shared between the policy and the structure: *)

type pstate =
  | Pinit  (** allocated, not yet activated; recovery skips it *)
  | Pactive of int * int
      (** key and value of a durably inserted element *)
  | Pdeleted  (** durably deleted; recovery skips it *)

(** A pnode moves [Pinit -> Pactive -> Pdeleted] and never backwards
    (a re-inserted key gets a fresh pnode), so helper CASes on it are
    ABA-free — the role of SOFT's alternating validity-bit scheme. *)

(** The volatile life cycle of a linked node (SOFT's [state] field). *)
type vstate =
  | Intend_insert  (** linked; pnode not yet known persistent *)
  | Inserted  (** pnode durably [Pactive] *)
  | Intend_delete  (** claimed by a deleter; pnode being invalidated *)

module Policy : Policy.S = struct
  let name = "soft"

  let summary =
    "SOFT: persist one per-node word per update; links are never flushed"

  let durable = true

  let discipline =
    "one flush + fence per successful update (the node's pnode); \
     traversals, lookups and failed updates persist nothing; recovery \
     rebuilds the volatile list from the pnodes"

  module Apply (M : Memory.S) = struct
    module Mem = M
    module Persist_m = Persist.Make (M)

    (* The structure variant places its own [soft:*] flushes through
       [Persist.Make(M).Sited]; [P] is what those route through, so the durable
       instantiation persists pnodes and nothing else. *)
    module P = Persist_m.Durable

    let recover () = ()
  end
end
