(* The native Atomic-based backend, exercised with real OCaml domains.
   These test atomicity under parallel execution (or under preemption,
   on a single-core host), not scaling. *)

module Nvm = Nvt_nvm
module P = Nvm.Persist.Make (Nvm.Native)
module L = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Durable)
module Q = Nvt_structures.Ms_queue.Make (Nvm.Native) (P.Durable)

let disjoint_inserts () =
  let s = L.create () in
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 999 do
              let k = (d * 10_000) + i in
              if not (L.insert s ~key:k ~value:k) then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "all inserts succeed" true (Domain.join d))
    domains;
  L.check_invariants s;
  Alcotest.(check int) "size" 2000 (L.size s);
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for i = 0 to 999 do
              if not (L.delete s ((d * 10_000) + i)) then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d -> Alcotest.(check bool) "all deletes succeed" true (Domain.join d))
    domains;
  Alcotest.(check int) "emptied" 0 (L.size s)

let contended_mix () =
  let s = L.create () in
  let domains =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let rng = Random.State.make [| d; 99 |] in
            for _ = 0 to 2999 do
              let k = Random.State.int rng 32 in
              match Random.State.int rng 3 with
              | 0 -> ignore (L.insert s ~key:k ~value:k)
              | 1 -> ignore (L.delete s k)
              | _ -> ignore (L.member s k)
            done))
  in
  List.iter Domain.join domains;
  L.check_invariants s

(* Counters outlive the domain that counted them: an exiting domain
   hands its counts to the retired total, so [stats] still sees them
   and [reset_stats] still clears them. *)
let counters_outlive_domains () =
  let module N = Nvm.Native in
  N.reset_stats ();
  let c = N.alloc 0 in
  for _ = 1 to 3 do
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 100 do
              ignore (N.read c)
            done;
            N.fence ()))
    |> List.iter Domain.join
  done;
  let st = N.stats () in
  Alcotest.(check int) "reads of joined domains" 600 st.reads;
  Alcotest.(check int) "fences of joined domains" 6 st.fences;
  N.reset_stats ();
  let st = N.stats () in
  Alcotest.(check int) "reset clears retired reads" 0 st.reads;
  Alcotest.(check int) "reset clears retired fences" 0 st.fences

let queue_multiset () =
  let q = Q.create () in
  let popped = Array.make 2 [] in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to 499 do
              Q.enqueue q ((p * 10_000) + i)
            done))
  in
  let consumers =
    List.init 2 (fun c ->
        Domain.spawn (fun () ->
            for _ = 0 to 399 do
              match Q.dequeue q with
              | Some v -> popped.(c) <- v :: popped.(c)
              | None -> ()
            done))
  in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  Q.check_invariants q;
  let all = popped.(0) @ popped.(1) @ Q.to_list q in
  Alcotest.(check int) "nothing lost or duplicated" 1000
    (List.length (List.sort_uniq compare all));
  Alcotest.(check int) "total count" 1000 (List.length all)

let suite =
  [ Alcotest.test_case "disjoint inserts across domains" `Quick
      disjoint_inserts;
    Alcotest.test_case "contended mixed workload" `Quick contended_mix;
    Alcotest.test_case "queue multiset across domains" `Quick queue_multiset;
    Alcotest.test_case "counters outlive their domains" `Quick
      counters_outlive_domains ]
