(* Harris list: the shared battery plus list-specific cases. *)

open Support

let ordering () =
  let _m = Machine.create () in
  let module S = Hl.Durable in
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:(k * 10)))
    [ 5; 1; 9; 3; 7; 2; 8 ];
  Alcotest.(check (list (pair int int)))
    "sorted"
    [ (1, 10); (2, 20); (3, 30); (5, 50); (7, 70); (8, 80); (9, 90) ]
    (S.to_list s);
  S.check_invariants s

(* Marked nodes left by an interrupted delete must be gone after
   recovery: exercise [disconnect] directly by marking via delete in a
   crashed era, then checking the post-recovery walk finds no marks. *)
let recovery_trims_marked () =
  for seed = 0 to 19 do
    let r =
      run_workload
        (module Hl.Durable)
        ~seed ~threads:4 ~ops:40 ~key_range:8 ~prefill:4
        ~mix:{ p_insert = 10; p_delete = 80 }
        ~crash_at_step:(150 + (53 * seed))
        ()
    in
    Alcotest.(check bool) "crashed" true r.crashed;
    check_linearizable ~what:(Printf.sprintf "trim seed %d" seed) r
  done

(* Recovery walks the list once. Crash a single deleter at every step,
   so some crashes land between a delete's mark and its unlink and
   leave a quiescent list of N live and M marked nodes; [to_list] reads
   every node's [next] and each live node's [kv], which gives M. On twin
   runs, [recover] must then read exactly N + M + 1 cells (the head's
   [next], then each node's once) and [recover_contents] exactly N more
   (each survivor's [kv]). *)
let recovery_reads_each_node_once () =
  let module S = Hl.Durable in
  let crashed_at step =
    let m = Machine.create ~seed:7 () in
    let s = S.create () in
    for k = 1 to 8 do
      ignore (S.insert s ~key:k ~value:(k * 10))
    done;
    Machine.persist_all m;
    ignore
      (Machine.spawn m (fun () ->
           List.iter (fun k -> ignore (S.delete s k)) [ 2; 5; 6; 8 ]));
    Machine.set_crash_at_step m step;
    match Machine.run m with
    | Machine.Crashed_at _ -> Some (m, s)
    | Machine.Completed -> None
  in
  let reads m f =
    Machine.set_current m;
    let before = (Machine.stats m).reads in
    let r = f () in
    ((Machine.stats m).reads - before, r)
  in
  let rec sweep step with_marked =
    match (crashed_at step, crashed_at step) with
    | Some (m1, s1), Some (m2, s2) ->
      let walk, live = reads m1 (fun () -> S.to_list s1) in
      let n = List.length live in
      let marked = walk - 1 - (2 * n) in
      let what = Printf.sprintf "step %d (N = %d, M = %d)" step n marked in
      let r, () = reads m1 (fun () -> S.recover s1) in
      Alcotest.(check int) (what ^ ": recover reads") (n + marked + 1) r;
      let rc, got = reads m2 (fun () -> S.recover_contents s2) in
      Alcotest.(check int)
        (what ^ ": recover_contents reads")
        ((2 * n) + marked + 1)
        rc;
      Alcotest.(check (list (pair int int))) (what ^ ": contents") live got;
      sweep (step + 1) (if marked > 0 then with_marked + 1 else with_marked)
    | None, None -> with_marked
    | _ -> Alcotest.failf "step %d: twin runs diverged" step
  in
  if sweep 1 0 = 0 then
    Alcotest.fail "no crash left a marked node; the read counts are untested"

let suite =
  structure_suite ~key:"list" (module Nvt_structures.Harris_list)
  @ [ Alcotest.test_case "ordering" `Quick ordering;
      Alcotest.test_case "recovery trims marked nodes" `Quick
        recovery_trims_marked;
      Alcotest.test_case "recovery reads each node once" `Quick
        recovery_reads_each_node_once ]
