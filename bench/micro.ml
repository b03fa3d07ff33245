(* Bechamel microbenchmarks: real (wall-clock) per-operation latency on
   the native Atomic-based backend, single-threaded, for the Harris list
   under each transformation. These complement the simulator panels:
   they measure the constant-factor cost of the injected instructions on
   the host CPU (where flush/fence are counter updates plus optional
   calibrated delays). *)

open Bechamel
open Toolkit

module Nvm = Nvt_nvm
module P = Nvm.Persist.Make (Nvm.Native)
module Izr = Nvm.Izraelevitz.Make (Nvm.Native)
module P_izr = Nvm.Persist.Make (Izr)

module Hl_orig = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Volatile)
module Hl_nvt = Nvt_structures.Harris_list.Make (Nvm.Native) (P.Durable)
module Hl_izr = Nvt_structures.Harris_list.Make (Izr) (P_izr.Volatile)

let size = 512

let make_tests () =
  let mk (type t) name (module S : Nvt_core.Set_intf.SET with type t = t) =
    let s = S.create () in
    for i = 0 to size - 1 do
      ignore (S.insert s ~key:(i * 2) ~value:i)
    done;
    let k = ref 0 in
    [ Test.make
        ~name:(name ^ "/member")
        (Staged.stage (fun () ->
             k := (!k + 7919) mod (size * 2);
             ignore (S.member s !k)));
      Test.make
        ~name:(name ^ "/insert+delete")
        (Staged.stage (fun () ->
             k := (!k + 7919) mod (size * 2);
             let key = !k lor 1 in
             ignore (S.insert s ~key ~value:0);
             ignore (S.delete s key)))
    ]
  in
  Test.make_grouped ~name:"harris_list" ~fmt:"%s %s"
    (mk "orig" (module Hl_orig)
    @ mk "nvt" (module Hl_nvt)
    @ mk "izr" (module Hl_izr))

let run ?json_path () =
  let tests = make_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let limit = 2000 and quota = 0.5 in
  let cfg =
    Benchmark.cfg ~limit ~quota:(Time.second quota) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "\n# Microbenchmarks (native backend, ns/op)\n";
  let module Record = Nvt_harness.Record in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns_per_op =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | Some [] | None -> Float.nan
        in
        let r_square =
          Option.value (Analyze.OLS.r_square ols_result) ~default:Float.nan
        in
        { Record.table = "ns/op";
          labels = [ ("name", name) ];
          metrics =
            [ Record.wall ~unit:"ns/op" "ns_per_op" ns_per_op;
              Record.wall ~unit:"ratio" "r_square" r_square ] }
        :: acc)
      results []
    (* Hashtbl.fold order is unspecified; sort by name for stable output *)
    |> List.sort compare
  in
  Record.print rows;
  Record.finish ?json_path
    { bench = "micro";
      scale = "full";
      seed = None;
      config =
        [ ("size", Int size); ("quota_s", Float quota); ("limit", Int limit) ];
      rows }
