(* SOFT's lock-free durable sorted list (Zuriel et al., OOPSLA 2019) —
   the hand-tuned contender the paper's generic transformation is
   measured against. See [Nvt_nvm.Soft] for the algorithm summary.

   Every element is a volatile Harris-style node (immutable key/value
   cache, a [vstate] life-cycle word, a markable [next]) plus one
   persistent word, the pnode. Links, marks and states are never
   flushed; each successful insert or delete persists exactly its
   node's pnode ([soft:persist_insert] / [soft:persist_delete], one
   flush + fence each, placed through {!Nvt_nvm.Persist.Make.Sited} so
   the mutation lab and the optimizer see them like any engine site).
   Operations whose answer depends on another thread's update help
   persist that update first, so no answer exposes state a crash could
   take back.

   The pnode registry is plain OCaml state standing in for SOFT's
   per-thread NVRAM allocator areas: real SOFT finds the pnodes after a
   crash by scanning the allocator's chunks, which are reachable from
   NVRAM metadata by construction. Registration carries no durability
   information — a registered pnode whose cell was never persisted
   reads back corrupt and is skipped, exactly like an unreachable chunk
   slot. Recovery ignores the wrecked volatile list and rebuilds it
   from the registry, persisting nothing. *)

open Nvt_nvm.Soft

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) = struct
  module Pm = Nvt_nvm.Persist.Make (M)
  module G = Pm.Sited (P)

  type node = Tail | Node of inner

  and inner = {
    key : int;
    value : int;  (* cached copies; the durable ones live in [pnode] *)
    state : vstate M.loc;
    pnode : pstate M.loc;
    next : succ M.loc;
  }

  and succ = { marked : bool; nx : node }

  type t = {
    head : inner;
    registry : pstate M.loc list ref;
        (* allocator metadata (see above); compacted at recovery *)
  }

  let create () =
    (* nothing to persist: recovery never reads the sentinel, it
       rewrites [head.next] from the registry *)
    { head =
        { key = min_int;
          value = 0;
          state = M.alloc Inserted;
          pnode = M.alloc Pinit;
          next = M.alloc { marked = false; nx = Tail } };
      registry = ref [] }

  (* ---------------- helping ---------------- *)

  (* Make an [Intend_insert] node durable and advance its state. Safe to
     call from any thread at any time: the pnode CAS is ABA-free (see
     {!Nvt_nvm.Soft.pstate}), the flush covers whatever the pnode holds
     by then (at worst a later [Pdeleted], which only adds durability),
     and the state CAS cannot run over a deleter's claim. *)
  let help_insert n =
    (match M.read n.pnode with
    | Pinit as p ->
      ignore (M.cas n.pnode ~expected:p ~desired:(Pactive (n.key, n.value)))
    | Pactive _ | Pdeleted -> ());
    G.persist "soft:persist_insert" n.pnode;
    ignore (M.cas n.state ~expected:Intend_insert ~desired:Inserted)

  (* Set the mark bit on [n.next]; loops only while concurrent inserts
     keep changing the successor. *)
  let rec mark n =
    let s = M.read n.next in
    if not s.marked then
      if not (M.cas n.next ~expected:s ~desired:{ s with marked = true })
      then mark n

  (* Finish a claimed delete: invalidate the pnode, persist, and only
     then mark — so a marked (logically deleted) node is always durably
     deleted, and any answer derived from its absence is crash-safe. *)
  let help_delete n =
    (match M.read n.pnode with
    | Pactive _ as p -> ignore (M.cas n.pnode ~expected:p ~desired:Pdeleted)
    | Pinit | Pdeleted -> ());
    G.persist "soft:persist_delete" n.pnode;
    mark n

  (* ---------------- traversal ---------------- *)

  type pos = {
    left : inner;  (* last unmarked node with key < k *)
    left_succ : succ;  (* contents of left.next as read *)
    mids : inner list;  (* marked nodes between left and right *)
    right : node;  (* first unmarked node with key >= k, or Tail *)
  }

  let rec traverse t k =
    let rec walk left left_succ mids curr =
      match curr with
      | Tail -> { left; left_succ; mids = List.rev mids; right = Tail }
      | Node n ->
        let s = M.read n.next in
        if s.marked then walk left left_succ (n :: mids) s.nx
        else if n.key < k then walk n s [] s.nx
        else
          let s2 = M.read n.next in
          if s2.marked then traverse t k
          else { left; left_succ; mids = List.rev mids; right = Node n }
    in
    let s0 = M.read t.head.next in
    walk t.head s0 [] s0.nx

  (* Physically remove the marked run between left and right. Returns
     the contents of [left.next] known to point at [right], or [None]
     to restart. Purely volatile: a marked node was durably deleted
     before its mark, so unlinking needs no persistence at all. *)
  let unlink_marked pos =
    match pos.mids with
    | [] -> Some pos.left_succ
    | _ :: _ -> (
      let desired = { marked = false; nx = pos.right } in
      if M.cas pos.left.next ~expected:pos.left_succ ~desired then
        match pos.right with
        | Tail -> Some desired
        | Node rn -> if (M.read rn.next).marked then None else Some desired
      else None)

  (* ---------------- operations ---------------- *)

  let rec insert t ~key ~value =
    let pos = traverse t key in
    match unlink_marked pos with
    | None -> insert t ~key ~value
    | Some cur -> (
      match pos.right with
      | Node rn when rn.key = key ->
        (* present: the false answer depends on that element existing,
           so an in-flight insert is helped durable first *)
        (match M.read rn.state with
        | Intend_insert -> help_insert rn
        | Inserted | Intend_delete -> ());
        false
      | Tail | Node _ ->
        let n =
          { key;
            value;
            state = M.alloc Intend_insert;
            pnode = M.alloc Pinit;
            next = M.alloc { marked = false; nx = pos.right } }
        in
        (* register before linking: a crash between the two leaves a
           corrupt (or [Pinit]) pnode that recovery skips *)
        t.registry := n.pnode :: !(t.registry);
        if
          M.cas pos.left.next ~expected:cur
            ~desired:{ marked = false; nx = Node n }
        then begin
          help_insert n;
          true
        end
        else insert t ~key ~value)

  let rec delete t k =
    let pos = traverse t k in
    match unlink_marked pos with
    | None -> delete t k
    | Some cur -> (
      match pos.right with
      | Tail -> false
      | Node rn when rn.key <> k -> false
      | Node rn -> claim t pos cur rn)

  and claim t pos cur rn =
    match M.read rn.state with
    | Intend_insert ->
      help_insert rn;
      claim t pos cur rn
    | Intend_delete ->
      (* a concurrent delete owns the node; the false answer depends on
         it, so finish its persist + mark before answering *)
      help_delete rn;
      false
    | Inserted ->
      if M.cas rn.state ~expected:Inserted ~desired:Intend_delete then begin
        help_delete rn;
        (* best-effort physical unlink; recovery or a later traversal
           trims the node otherwise *)
        let s = M.read rn.next in
        ignore
          (M.cas pos.left.next ~expected:cur
             ~desired:{ marked = false; nx = s.nx });
        true
      end
      else claim t pos cur rn

  let find t k =
    let rec walk curr =
      match curr with
      | Tail -> None
      | Node n ->
        let s = M.read n.next in
        if s.marked || n.key < k then walk s.nx
        else if n.key = k then begin
          (match M.read n.state with
          | Intend_insert -> help_insert n
          | Inserted | Intend_delete -> ());
          Some n.value
        end
        else None
    in
    walk (M.read t.head.next).nx

  let member t k = Option.is_some (find t k)

  (* ---------------- recovery ---------------- *)

  (* Rebuild the volatile list from the pnodes: [Pactive] pnodes are the
     recovered elements (reusing the same cell, already durable — the
     whole pass issues no flush and no fence); [Pinit], [Pdeleted] and
     corrupt pnodes are dropped. Duplicate keys cannot survive an
     unsuppressed run (a key's new pnode activates only after the old
     one is durably [Pdeleted]) but the mutation lab's suppressions
     produce them; keeping one arbitrary copy lets the recovered list
     stay well-formed so the verdict comes from the contents check, not
     a recovery crash. *)
  let recover t =
    let pairs = ref [] in
    let keep = ref [] in
    List.iter
      (fun pl ->
        match M.read pl with
        | Pactive (k, v) ->
          pairs := (k, v, pl) :: !pairs;
          keep := pl :: !keep
        | Pinit | Pdeleted -> ()
        | exception Nvt_nvm.Memory.Corrupt_read _ -> ())
      !(t.registry);
    t.registry := !keep;
    let sorted =
      (* descending by key, so the fold below builds ascending *)
      List.sort_uniq (fun (a, _, _) (b, _, _) -> compare b a) !pairs
    in
    let chain =
      List.fold_left
        (fun nx (k, v, pl) ->
          Node
            { key = k;
              value = v;
              state = M.alloc Inserted;
              pnode = pl;
              next = M.alloc { marked = false; nx } })
        Tail sorted
    in
    M.write t.head.next { marked = false; nx = chain }

  (* ---------------- quiescent helpers ---------------- *)

  let fold f acc t =
    let rec go acc n =
      match n with
      | Tail -> acc
      | Node m ->
        let s = M.read m.next in
        let acc = if s.marked then acc else f acc (m.key, m.value) in
        go acc s.nx
    in
    go acc (M.read t.head.next).nx

  let to_list t = List.rev (fold (fun acc kv -> kv :: acc) [] t)

  let recover_contents t =
    recover t;
    to_list t

  let size t = fold (fun n _ -> n + 1) 0 t

  let check_invariants t =
    let rec go prev n =
      match n with
      | Tail -> ()
      | Node m ->
        let s = M.read m.next in
        if not s.marked then begin
          if m.key <= prev then
            failwith
              (Printf.sprintf "soft_list: keys out of order (%d after %d)"
                 m.key prev);
          (match M.read m.pnode with
          | Pactive (k, v) when k = m.key && v = m.value -> ()
          | Pactive (k, _) ->
            failwith
              (Printf.sprintf "soft_list: node %d holds pnode of %d" m.key k)
          | Pinit | Pdeleted ->
            (* only reachable transiently mid-operation; quiescent use
               means every linked node has an activated pnode *)
            failwith
              (Printf.sprintf "soft_list: linked node %d with inactive pnode"
                 m.key));
          go m.key s.nx
        end
        else go prev s.nx
    in
    go min_int (M.read t.head.next).nx
end
