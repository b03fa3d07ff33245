(* A lock-free hash table in the style evaluated by the paper (and by
   David et al.): a fixed-size directory of buckets. The directory is
   auxiliary (an additional entry point, Property 2); every bucket is
   the root of its own core tree, so the structure is a forest of
   traversal data structures and the transformation applies bucket-wise.

   [Make_generic] works over any set implementation — the paper's hash
   table uses Harris lists per bucket ([Make]), but trees or skiplists
   compose identically. There is no resizing, matching the paper's
   experimental setup. *)

module Make_generic (S : Nvt_core.Set_intf.SET) = struct
  type t = { buckets : S.t array }

  let default_buckets = 1024

  let create_sized n =
    assert (n > 0);
    { buckets = Array.init n (fun _ -> S.create ()) }

  let create () = create_sized default_buckets

  let bucket t k =
    let n = Array.length t.buckets in
    let h = k mod n in
    t.buckets.(if h < 0 then h + n else h)

  let insert t ~key ~value = S.insert (bucket t key) ~key ~value
  let delete t k = S.delete (bucket t k) k
  let member t k = S.member (bucket t k) k
  let find t k = S.find (bucket t k) k

  let recover t = Array.iter S.recover t.buckets

  (* keys are unique across buckets, so ordering by key alone is total *)
  let by_key f t =
    Array.to_list t.buckets
    |> List.concat_map f
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

  let recover_contents t = by_key S.recover_contents t

  let to_list t = by_key S.to_list t

  let size t = Array.fold_left (fun acc b -> acc + S.size b) 0 t.buckets

  let check_invariants t =
    let n = Array.length t.buckets in
    Array.iteri
      (fun i b ->
        S.check_invariants b;
        List.iter
          (fun (k, _) ->
            let h = k mod n in
            let h = if h < 0 then h + n else h in
            if h <> i then
              failwith
                (Printf.sprintf "hash_table: key %d in bucket %d, expected %d"
                   k i h))
          (S.to_list b))
      t.buckets
end

module Make (M : Nvt_nvm.Memory.S) (P : Nvt_nvm.Persist.Make(M).S) =
  Make_generic (Harris_list.Make (M) (P))
