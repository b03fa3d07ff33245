(* A persistent software transactional memory in the style of OneFile
   (Ramalhete et al., DSN 2019) — the PTM baseline of the paper's
   evaluation.

   Substitution note (see DESIGN.md): real OneFile is wait-free and
   aggregates writers; this implementation keeps the properties the
   comparison depends on — updates serialize on a single global sequence
   (no update-side scaling), read-only transactions are optimistic and
   never write, and every update pays a persisted redo log plus
   write-back before it commits — while staying lock-free through
   helping: the redo log is published before any in-place write, so any
   thread can complete a stalled transaction from the log.

   Commit protocol for an update transaction:
     1. run the body, buffering writes (reads see pre-transaction state);
     2. CAS the sequence even -> odd (acquire);
     3. publish the redo log, flush log and sequence, fence;
     4. apply the writes in place, flushing each, fence;
     5. store sequence +1 (even), flush, fence.
   A crash before the log is persistent aborts the transaction on
   recovery (sequence is bumped past it); after, it is redone — the
   logged values are idempotent.

   PTM-managed locations are sequence-stamped, as in the real OneFile:
   every value carries the commit sequence that wrote it, and log
   application only CASes over lower-stamped values — so a helper that
   wakes up with a stale log cannot clobber later commits.

   Restriction: a transaction must not read a location it has written
   (the structures built on this PTM traverse first, then write). *)

module Make (M : Nvt_nvm.Memory.S) = struct
  type 'a loc = ('a * int) M.loc
  (* value paired with the sequence number of the commit that wrote it *)

  type wentry = W : 'a loc * 'a -> wentry

  type log = { lseq : int; writes : wentry list }

  type t = { seq : int M.loc; log : log M.loc }

  let alloc v = M.alloc (v, 0)

  let create () =
    let t =
      { seq = M.alloc 0; log = M.alloc { lseq = -1; writes = [] } }
    in
    (* the log location must always have a persistent value so recovery
       can read it after any crash *)
    M.flush t.seq;
    M.flush t.log;
    M.fence ();
    t

  type txn = { mutable buffered : wentry list }

  let tread _txn l = fst (M.read l)

  let twrite txn l v = txn.buffered <- W (l, v) :: txn.buffered

  (* Install one logged write, stamped with its transaction's sequence;
     skip if a commit at this or a later sequence already wrote the
     word. *)
  let rec apply_write seq (W (l, v)) =
    let cur = M.read l in
    if snd cur < seq then
      if not (M.cas l ~expected:cur ~desired:(v, seq)) then
        apply_write seq (W (l, v))

  let apply_log t lg txn_seq =
    List.iter
      (fun w ->
        apply_write txn_seq w;
        let (W (l, _)) = w in
        M.flush l)
      (List.rev lg.writes);
    M.fence ();
    if M.cas t.seq ~expected:txn_seq ~desired:(txn_seq + 1) then begin
      M.flush t.seq;
      M.fence ()
    end

  (* Help whatever in-flight transaction holds the sequence at odd [s]. *)
  let help t s =
    let lg = M.read t.log in
    if lg.lseq = s then apply_log t lg s

  let rec atomically t body =
    let s = M.read t.seq in
    if s land 1 = 1 then begin
      help t s;
      atomically t body
    end
    else begin
      let txn = { buffered = [] } in
      let result = body txn in
      if txn.buffered = [] then begin
        (* read-only body: validate and return *)
        let s' = M.read t.seq in
        if s' = s then result else atomically t body
      end
      else if M.cas t.seq ~expected:s ~desired:(s + 1) then begin
        M.flush t.seq;
        M.write t.log { lseq = s + 1; writes = txn.buffered };
        M.flush t.log;
        M.fence ();
        (* log is persistent; now redo in place *)
        apply_log t (M.read t.log) (s + 1);
        result
      end
      else atomically t body
    end

  let rec read_only t body =
    let s = M.read t.seq in
    if s land 1 = 1 then begin
      help t s;
      read_only t body
    end
    else begin
      let txn = { buffered = [] } in
      let result = body txn in
      assert (txn.buffered = []);
      let s' = M.read t.seq in
      if s' = s then result else read_only t body
    end

  (* Recovery: if the sequence is odd, the crash interrupted a commit.
     Redo it if its log made it to persistent memory, abort it (bump the
     sequence) otherwise. *)
  let recover t =
    let s = M.read t.seq in
    if s land 1 = 1 then begin
      let lg = M.read t.log in
      if lg.lseq = s then
        List.iter
          (fun (W (l, v)) ->
            (* recovery is quiescent, so a blind write is safe — and
               necessary: a logged target allocated by the interrupted
               transaction may have no persistent value to read *)
            M.write l (v, s);
            M.flush l)
          (List.rev lg.writes);
      M.fence ();
      M.write t.seq (s + 1);
      M.flush t.seq;
      M.fence ()
    end
end

(* A sorted-list set whose every operation is one PTM transaction; this
   is the shape the paper benchmarks OneFile with on the list panels. *)
module Set (M : Nvt_nvm.Memory.S) = struct
  module Ptm = Make (M)

  type cell = Nil | Cell of inner

  and inner = { kv : (int * int) Ptm.loc; next : cell Ptm.loc }

  type t = { ptm : Ptm.t; head : cell Ptm.loc }

  let create () =
    let ptm = Ptm.create () in
    let head = Ptm.alloc Nil in
    M.flush head;
    M.fence ();
    { ptm; head }

  (* Find (pred_loc, cell-at-pred_loc) such that the cell is the first
     with key >= k. *)
  let locate txn t k =
    let rec go (loc : cell Ptm.loc) =
      match Ptm.tread txn loc with
      | Nil -> (loc, Nil)
      | Cell c as here ->
        let k', _ = Ptm.tread txn c.kv in
        if k' < k then go c.next else (loc, here)
    in
    go t.head

  let insert t ~key ~value =
    Ptm.atomically t.ptm (fun txn ->
        let loc, here = locate txn t key in
        let exists =
          match here with
          | Cell c -> fst (Ptm.tread txn c.kv) = key
          | Nil -> false
        in
        if exists then false
        else begin
          let kv = Ptm.alloc (key, value) in
          let next = Ptm.alloc here in
          (* log the new cell's fields too, so the commit persists them *)
          Ptm.twrite txn kv (key, value);
          Ptm.twrite txn next here;
          Ptm.twrite txn loc (Cell { kv; next });
          true
        end)

  let delete t k =
    Ptm.atomically t.ptm (fun txn ->
        let loc, here = locate txn t k in
        match here with
        | Cell c when fst (Ptm.tread txn c.kv) = k ->
          Ptm.twrite txn loc (Ptm.tread txn c.next);
          true
        | Cell _ | Nil -> false)

  let find t k =
    Ptm.read_only t.ptm (fun txn ->
        let _, here = locate txn t k in
        match here with
        | Cell c ->
          let k', v = Ptm.tread txn c.kv in
          if k' = k then Some v else None
        | Nil -> None)

  let member t k = Option.is_some (find t k)

  let recover t = Ptm.recover t.ptm

  let to_list t =
    let rec go acc = function
      | Nil -> List.rev acc
      | Cell c -> go (fst (M.read c.kv) :: acc) (fst (M.read c.next))
    in
    go [] (fst (M.read t.head))

  let recover_contents t =
    recover t;
    to_list t

  let size t = List.length (to_list t)

  let check_invariants t =
    let rec go prev = function
      | Nil -> ()
      | Cell c ->
        let k = fst (fst (M.read c.kv)) in
        if k <= prev then failwith "onefile set: keys out of order";
        go k (fst (M.read c.next))
    in
    go min_int (fst (M.read t.head))
end
