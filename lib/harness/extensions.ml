(* Extension benchmarks beyond the paper's figures:

   - [recovery]: cost of the recovery procedure (Supplement 1 +
     auxiliary rebuild) as the structure grows — the paper specifies
     recovery but does not measure it.
   - [sensitivity]: how the orig/nvt/izr ordering responds to the fence
     cost, the parameter the whole design is about ("fences are
     notoriously expensive").
   - [mix]: flushes and fences per operation for every structure and
     policy — the instruction counts the paper's analysis reasons with.

   All run on the simulator, NVRAM profile unless stated. *)

module Machine = Nvt_sim.Machine
module Cost_model = Nvt_nvm.Cost_model
module Workload = Nvt_workload.Workload
open Instances

module type SET = Nvt_core.Set_intf.SET

(* ---------------- recovery time vs size ---------------- *)

(* Build a structure of [size] keys, run update traffic and crash it
   mid-flight, then measure the virtual time a single thread needs to
   recover. *)
let recovery_time (module S : SET) ~size ~seed =
  let m = Machine.create ~seed () in
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range:(2 * size));
  Machine.persist_all m;
  for tid = 0 to 3 do
    let g =
      Workload.gen ~seed:(seed + tid) ~mix:(Workload.updates ~pct:100)
        ~range:(2 * size)
    in
    ignore
      (Machine.spawn m (fun () ->
           for _ = 1 to 50 do
             match Workload.next g with
             | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
             | Workload.Delete k -> ignore (S.delete s k)
             | Workload.Lookup k -> ignore (S.member s k)
           done))
  done;
  Machine.set_crash_at_step m 500;
  (match Machine.run m with
  | Machine.Crashed_at _ -> ()
  | Machine.Completed -> failwith "recovery bench: expected a crash");
  let before = Machine.makespan m in
  ignore (Machine.spawn m (fun () -> S.recover s));
  (match Machine.run m with
  | Machine.Completed -> ()
  | Machine.Crashed_at _ -> assert false);
  Machine.makespan m - before

let run_recovery () =
  let structures =
    [ ("list", (module Hl.Durable : SET));
      ("hash", (module Ht.Durable : SET));
      ("bst(ellen)", (module Eb.Durable : SET));
      ("bst(nm)", (module Nm.Durable : SET));
      ("skiplist", (module Sl.Durable : SET)) ]
  in
  Printf.printf
    "\n# Extension: recovery virtual time vs structure size (crash under \
     4-thread 100%%-update traffic)\n";
  Record.print
    (List.map
       (fun size ->
         { Record.table = "recovery vt";
           labels = [ ("size", string_of_int size) ];
           metrics =
             List.map
               (fun (name, s) ->
                 Instances.hash_buckets := max 16 size;
                 Record.sim ~unit:"vt" name
                   (float_of_int (recovery_time s ~size ~seed:3)))
               structures })
       [ 256; 1024; 4096; 16384 ]);
  Printf.printf
    "(the skiplist pays its tower rebuild; the others walk the core \
     trimming marks)\n%!"

(* ---------------- fence-cost sensitivity ---------------- *)

let run_sensitivity () =
  Printf.printf
    "\n# Extension: throughput vs fence cost (list, 16 threads, 512 of \
     1024 keys, 80%% lookups)\n";
  Record.print
    (List.map
       (fun fence_base ->
         let cost = { Cost_model.nvram with fence_base } in
         let run set scale =
           (Throughput.run set ~cost ~seed:1
              { Throughput.threads = 16; range = 1024; mix = Workload.default;
                total_ops = int_of_float (2000. *. scale) })
             .mops
         in
         let orig = run (module Hl.Volatile : SET) 1.0 in
         let nvt = run (module Hl.Durable : SET) 1.0 in
         let izr = run (module Hl.Izraelevitz : SET) 0.1 in
         let mops name v = Record.sim ~unit:"Mops/s" name v in
         { Record.table = "Mops/s vs fence cost";
           labels = [ ("fence", string_of_int fence_base) ];
           metrics =
             [ mops "orig" orig; mops "nvt" nvt; mops "izr" izr;
               Record.sim ~unit:"ratio" "nvt/izr" (nvt /. izr) ] })
       [ 0; 25; 50; 100; 200; 400 ]);
  Printf.printf
    "(the transformation's margin over Izraelevitz et al. grows with the \
     fence cost; the volatile version is unaffected)\n%!"

(* ---------------- instruction mix ---------------- *)

let run_mix () =
  Printf.printf
    "\n# Extension: flushes/op and fences/op, 16 threads, 20%% updates\n";
  let run (f : flavour) key range scale (module Str : Instances.STRUCTURE) =
    Throughput.run
      (instantiate_flavour f key (module Str))
      ~cost:Cost_model.nvram ~seed:2
      { Throughput.threads = 16; range; mix = Workload.updates ~pct:20;
        total_ops = int_of_float (4000. *. scale) }
  in
  let rows name key range buckets ?(izr_scale = 0.5) structure =
    List.filter_map
      (fun (f : flavour) ->
        if not (supports f key) then None
        else begin
          Option.iter (fun b -> Instances.hash_buckets := b) buckets;
          let scale = if f.key = "izraelevitz" then izr_scale else f.ops_scale in
          let r = run f key range scale structure in
          Some
            { Record.table = "flushes/op and fences/op";
              labels = [ ("structure", name); ("policy", f.label) ];
              metrics =
                [ Record.sim ~unit:"count/op" "flushes_per_op" r.flushes_per_op;
                  Record.sim ~unit:"count/op" "fences_per_op" r.fences_per_op ] }
        end)
      flavours
  in
  Record.print
    (rows "list" "list" 512 None ~izr_scale:0.1 (module Nvt_structures.Harris_list)
    @ rows "hash" "hash" 8192 (Some 4096) (module Instances.Hash_sized)
    @ rows "bst(nm)" "bst-nm" 8192 None (module Nvt_structures.Natarajan_bst)
    @ rows "skiplist" "skiplist" 8192 None (module Nvt_structures.Skiplist));
  Printf.printf
    "(NVTraverse's counts are constant per operation; Izraelevitz et \
     al.'s grow with the traversal; link-and-persist trades flushes for \
     CAS; FliT pays per update plus racy reads)\n";
  (* Where the instructions come from: the per-site attribution table
     for the list under each durable policy. Sites follow the
     <policy>:<point> convention documented in EXPERIMENTS.md. *)
  Record.print
    (List.concat_map
       (fun (f : flavour) ->
         let scale = if f.key = "izraelevitz" then 0.1 else f.ops_scale in
         let r = run f "list" 512 scale (module Nvt_structures.Harris_list) in
         Record.site_rows ~table:"attribution (list, per instrumentation site)"
           ~labels:[ ("policy", f.key) ] r.stats)
       durable_flavours)

let run = function
  | "recovery" -> run_recovery ()
  | "sensitivity" -> run_sensitivity ()
  | "mix" -> run_mix ()
  | s -> Printf.eprintf "unknown extension %s\n" s

let all () =
  run_recovery ();
  run_sensitivity ();
  run_mix ()
