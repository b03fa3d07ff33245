(* The common interface of the set-shaped data structures in this repo.

   Keys and values are integers, matching the paper's 8-byte keys and
   values. [max_int] and [min_int] are reserved for sentinels and must
   not be used as keys. *)

module type SET = sig
  type t

  val create : unit -> t
  (** An empty structure whose roots/sentinels are already persistent. *)

  val insert : t -> key:int -> value:int -> bool
  (** [true] iff the key was absent and has been added. *)

  val delete : t -> int -> bool
  (** [true] iff the key was present and has been removed. *)

  val member : t -> int -> bool

  val find : t -> int -> int option
  (** The value bound to the key, if present. *)

  val recover : t -> unit
  (** The recovery operation (Section 4): run after a crash, before any
      other operation. Executes the [disconnect(root)] supplement and
      rebuilds any auxiliary (non-core) parts of the structure. *)

  val recover_contents : t -> (int * int) list
  (** [recover], then the contents in key order: the same pairs, and
      the same post-recovery structure, as [recover t; to_list t].
      Structures whose recovery already walks every node (the Harris
      list, and hash tables of them) collect the pairs on that walk
      instead of walking again, so a caller that needs both — the
      service's store reconcile — reads each node once. *)

  val to_list : t -> (int * int) list
  (** Snapshot of the current contents in key order. Quiescent use only. *)

  val size : t -> int

  val check_invariants : t -> unit
  (** Raises [Failure] when a structural invariant is violated.
      Quiescent use only. *)
end
