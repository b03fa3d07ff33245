(* The detectable-recovery wrapper: any structure written against
   (memory, persistence-policy) becomes a set whose updates carry
   per-operation descriptors ({!Nvt_nvm.Detectable}). Reads are passed
   through untouched — detectability is about recovering the fate of
   *updates*; a lookup has no effect to recover.

   Recovery audits the descriptors (a returned update must read
   [Completed] — the teeth behind [det:complete]) before running the
   base structure's own recovery. The registry flavour ["det"] wraps
   every base structure through this functor, so the crash batteries
   exercise descriptor durability over the same structures they already
   exercise the engine on. *)

module type BASE = sig
  module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) :
    Nvt_core.Set_intf.SET
end

module Wrap (B : BASE) = struct
  module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
    module S = B.Make (M) (P)
    module D = Nvt_nvm.Detectable.Desc (M) (P)

    type t = { base : S.t; desc : D.t }

    let create () = { base = S.create (); desc = D.create () }

    let insert t ~key ~value =
      let r = D.announce t.desc (Nvt_nvm.Detectable.Op_insert (key, value)) in
      let res = S.insert t.base ~key ~value in
      D.complete r res;
      res

    let delete t k =
      let r = D.announce t.desc (Nvt_nvm.Detectable.Op_delete k) in
      let res = S.delete t.base k in
      D.complete r res;
      res

    let member t k = S.member t.base k
    let find t k = S.find t.base k

    let recover t =
      D.audit t.desc;
      S.recover t.base

    let recover_contents t =
      D.audit t.desc;
      S.recover_contents t.base

    let to_list t = S.to_list t.base
    let size t = S.size t.base
    let check_invariants t = S.check_invariants t.base

    (* beyond SET: the descriptor table, for the status-query tests *)
    let descriptors t = t.desc
  end
end
