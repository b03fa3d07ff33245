(* Durable per-shard checkpoints for the service ledger.

   A checkpoint is a snapshot of a shard's committed state — the store
   contents as (key, value) pairs plus the per-client deduplication
   entries owned by the shard — written through the active policy's
   memory so the crash simulator exercises it like any other persistent
   data. Once a checkpoint covering log prefix [0, upto) is committed,
   recovery restores the snapshot and replays only the committed log
   suffix from [upto]: O(delta since checkpoint) instead of O(log).

   Commit protocol (all on the checkpointing thread, so its fences
   cover its flushes):

     alloc + write + flush every snapshot chunk     svc:ckpt_flush
     fence                                          svc:ckpt_fence
     write the descriptor (upto + chunk locations)
     flush the descriptor                           svc:ckpt_commit_flush
     fence                                          svc:ckpt_commit_fence

   The first fence is load-bearing: the simulator resolves a crash by
   coin-flipping each
   flushed-but-unfenced write-back independently, so without it the
   descriptor could persist while a chunk it references is lost —
   recovery would then read a never-persisted cell (Corrupt_read). The
   second fence is the commit point: only after it may the caller
   truncate the covered log prefix, because until the descriptor is
   durable a crash recovers from the *previous* descriptor and still
   needs those log entries.

   Snapshots are chunked (several pairs per cell) to keep the cell
   count — and hence the flush count mutlab attributes to
   svc:ckpt_flush — proportional to the snapshot, not one cell per
   pair. Chunk cells of a superseded generation, and of a generation
   interrupted by a crash, are retired through
   {!Nvt_nvm.Memory.reclaimed} so repeated checkpoints do not inflate
   the working-set model's live-cell estimate. *)

let chunk = 8

module Make (M : Nvt_nvm.Memory.S) = struct
  (* The protocol persists under every store policy, the volatile
     control included, so its sites go through the guarded primitive
     over [Durable]. *)
  module Pm = Nvt_nvm.Persist.Make (M)
  module G = Pm.Sited (Pm.Durable)

  type 'd desc = {
    dk_upto : int;  (* the checkpoint covers log slots [0, upto) *)
    dk_pairs : (int * int) array M.loc list;
    dk_dedup : 'd array M.loc list;
  }

  type 'd t = {
    cell : 'd desc option M.loc;
    (* plain-OCaml accounting (survives simulated crashes): how many
       chunk cells the committed generation references, and how many
       were written since but not yet committed *)
    mutable live : int;
    mutable pending : int;
  }

  (* Call in setup mode: the descriptor cell must be persisted (e.g. by
     [Machine.persist_all] after prefill) before the first crash, or a
     recovery that never checkpointed would read a corrupt cell. *)
  let create () = { cell = M.alloc None; live = 0; pending = 0 }

  let write_chunks t arr =
    let n = Array.length arr in
    let rec go i acc =
      if i >= n then List.rev acc
      else begin
        let len = min chunk (n - i) in
        let c = M.alloc (Array.sub arr i len) in
        t.pending <- t.pending + 1;
        G.flush "svc:ckpt_flush" c;
        go (i + len) (c :: acc)
      end
    in
    go 0 []

  let write t ~upto ~pairs ~dedup =
    let pc = write_chunks t pairs in
    let dc = write_chunks t dedup in
    G.fence "svc:ckpt_fence";
    M.write t.cell (Some { dk_upto = upto; dk_pairs = pc; dk_dedup = dc });
    G.flush "svc:ckpt_commit_flush" t.cell;
    G.fence "svc:ckpt_commit_fence";
    (* the previous generation's chunks are garbage now *)
    Nvt_nvm.Memory.reclaimed t.live;
    t.live <- t.pending;
    t.pending <- 0

  (* Read back the committed checkpoint, reconciling chunk accounting
     with whichever generation actually persisted: after a crash the
     descriptor holds either the old or the new generation, and every
     allocated chunk it does not reference is garbage. Idempotent, and
     a no-op on a quiescent machine, so it doubles as introspection. *)
  let read t =
    match M.read t.cell with
    | None ->
      Nvt_nvm.Memory.reclaimed (t.live + t.pending);
      t.live <- 0;
      t.pending <- 0;
      None
    | Some d ->
      let n_ref = List.length d.dk_pairs + List.length d.dk_dedup in
      Nvt_nvm.Memory.reclaimed (t.live + t.pending - n_ref);
      t.live <- n_ref;
      t.pending <- 0;
      let gather = function
        | [] -> [||]
        | chunks -> Array.concat (List.map M.read chunks)
      in
      Some (d.dk_upto, gather d.dk_pairs, gather d.dk_dedup)
end
