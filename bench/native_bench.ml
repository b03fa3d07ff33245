(* Real-execution throughput on the native Atomic backend with OCaml
   domains. Flush/fence here are counter updates plus optional
   calibrated busy-wait — the placement cost, without a persistent
   medium. Complements the simulator panels (which model the medium) and
   the Bechamel microbenchmarks (single-threaded latency). *)

module Nvm = Nvt_nvm
module Workload = Nvt_workload.Workload
module P = Nvm.Persist.Make (Nvm.Native)
module Izr = Nvm.Izraelevitz.Make (Nvm.Native)
module P_izr = Nvm.Persist.Make (Izr)

module Hl_orig = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Volatile)
module Hl_nvt = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Durable)
module Hl_izr = Nvt_structures.Harris_list.Make (Izr) (P_izr.Volatile)

let run_one (type t) (module S : Nvt_core.Set_intf.SET with type t = t)
    ~domains ~range ~ops_per_domain =
  let s = S.create () in
  List.iter
    (fun k -> ignore (S.insert s ~key:k ~value:k))
    (Workload.prefill_keys ~range);
  let t0 = Unix.gettimeofday () in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            let g = Workload.gen ~seed:(41 + d) ~mix:Workload.default ~range in
            for _ = 1 to ops_per_domain do
              match Workload.next g with
              | Workload.Insert k -> ignore (S.insert s ~key:k ~value:k)
              | Workload.Delete k -> ignore (S.delete s k)
              | Workload.Lookup k -> ignore (S.member s k)
            done))
  in
  List.iter Domain.join workers;
  let dt = Unix.gettimeofday () -. t0 in
  float_of_int (domains * ops_per_domain) /. dt /. 1e6

let run () =
  Printf.printf
    "\n# Native-domain throughput (real wall clock, Mops/s; flush/fence \
     as counters), Harris list, 1024 keys, 80%% lookups\n";
  let module Record = Nvt_harness.Record in
  Record.print
    (List.map
       (fun domains ->
         let mops name (module S : Nvt_core.Set_intf.SET) ops_per_domain =
           Record.wall ~unit:"Mops/s" name
             (run_one (module S) ~domains ~range:1024 ~ops_per_domain)
         in
         { Record.table = "Mops/s";
           labels = [ ("domains", string_of_int domains) ];
           metrics =
             [ mops "orig" (module Hl_orig) 20_000;
               mops "nvt" (module Hl_nvt) 20_000;
               mops "izr" (module Hl_izr) 5_000 ] })
       [ 1; 2 ])
