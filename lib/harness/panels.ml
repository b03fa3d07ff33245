(* One panel per figure of the paper's evaluation (Figures 5a-f on the
   NVRAM cost profile, 6g-o on the DRAM profile). Each panel prints the
   throughput series the figure plots, plus the flush/fence mix per
   operation that explains them. Sizes marked "(scaled)" in DESIGN.md
   are reduced to simulation scale; EXPERIMENTS.md records the mapping
   and compares shapes against the paper. *)

module Cost_model = Nvt_nvm.Cost_model
module Workload = Nvt_workload.Workload
open Instances

type scale = Quick | Full

type sweep = Threads of int list | Range of int list | Updates of int list

type panel = {
  id : string;
  title : string;
  cost : Cost_model.t;
  series : series list;
  sweep : sweep;
  threads : int;  (* fixed thread count when sweeping range/updates *)
  range : int;  (* fixed range when sweeping threads/updates *)
  mix : Workload.mix;  (* fixed mix when sweeping threads/range *)
  base_ops : int;  (* measured ops per sweep point at scale=Quick *)
  hash_sized : bool;  (* size the hash directory to the key range *)
}

let threads_sweep scale =
  match scale with
  | Quick -> [ 1; 2; 4; 8; 16 ]
  | Full -> [ 1; 2; 4; 8; 16; 32; 48; 64 ]

let updates_sweep = [ 0; 5; 10; 20; 50; 100 ]

let list_sizes scale =
  match scale with
  | Quick -> [ 128; 256; 512; 1024; 2048 ]
  | Full -> [ 128; 256; 512; 1024; 2048; 4096; 8192 ]

let big_range scale = match scale with Quick -> 8192 | Full -> 65536

let panels scale =
  let nvram = Cost_model.nvram and dram = Cost_model.dram in
  let big = big_range scale in
  [ { id = "5a";
      title = "Linked list: throughput vs threads (80% lookups, 512 of 1024 \
               keys) [NVRAM]";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = 1024;
      mix = Workload.default;
      base_ops = 2000;
      hash_sized = false };
    { id = "5b";
      title = "Linked list: throughput vs size (16 threads, 80% lookups) \
               [NVRAM]";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Range (list_sizes scale);
      threads = 16;
      range = 1024;
      mix = Workload.default;
      base_ops = 2000;
      hash_sized = false };
    { id = "5c";
      title = "Linked list: throughput vs update%% (16 threads, 500 of 1000 \
               keys) [NVRAM]";
      cost = nvram;
      series = list_series ~with_onefile:true ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = 1000;
      mix = Workload.default;
      base_ops = 2000;
      hash_sized = false };
    { id = "5d";
      title = "Hash table: throughput vs update%% (16 threads) [NVRAM]";
      cost = nvram;
      series = hash_series ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000;
      hash_sized = true };
    { id = "5e";
      title = "BST: throughput vs update%% (16 threads) [NVRAM]";
      cost = nvram;
      (* the O(n)-transaction PTM set is impractical on full-scale tree
         panels; its comparison lives on the list panels *)
      series = bst_series ~with_onefile:(scale = Quick) ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000;
      hash_sized = false };
    { id = "5f";
      title = "Skiplist: throughput vs update%% (16 threads) [NVRAM]";
      cost = nvram;
      series = skiplist_series ~with_lp:false;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000;
      hash_sized = false };
    { id = "6g";
      title = "Linked list: throughput vs threads (80% lookups, 8192 keys) \
               [DRAM]";
      cost = dram;
      series = list_series ~with_onefile:false ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = (match scale with Quick -> 2048 | Full -> 16384);
      mix = Workload.default;
      base_ops = 1000;
      hash_sized = false };
    { id = "6h";
      title = "Linked list: throughput vs update%% (64 threads, 8192 keys) \
               [DRAM]";
      cost = dram;
      series = list_series ~with_onefile:true ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = (match scale with Quick -> 2048 | Full -> 16384);
      mix = Workload.default;
      base_ops = 1000;
      hash_sized = false };
    { id = "6i";
      title = "Linked list: throughput vs size (64 threads, 80% lookups) \
               [DRAM]";
      cost = dram;
      series = list_series ~with_onefile:false ~with_lp:true;
      sweep = Range (list_sizes scale);
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = 1024;
      mix = Workload.default;
      base_ops = 1000;
      hash_sized = false };
    { id = "6j";
      title = "Hash table: throughput vs threads (80% lookups) [DRAM]";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000;
      hash_sized = true };
    { id = "6k";
      title = "Hash table: throughput vs update%% (16 threads) [DRAM]";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000;
      hash_sized = true };
    { id = "6l";
      title = "Hash table: throughput vs size (16 threads, 80% lookups) \
               [DRAM]";
      cost = dram;
      series = hash_series ~with_lp:true;
      sweep =
        Range
          (match scale with
          | Quick -> [ 1024; 4096; 16384 ]
          | Full -> [ 1024; 4096; 16384; 65536; 262144 ]);
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 20000;
      hash_sized = true };
    { id = "6m";
      title = "BST: throughput vs update%% (16 threads) [DRAM]";
      cost = dram;
      series = bst_series ~with_onefile:false ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = 16;
      range = big;
      mix = Workload.default;
      base_ops = 10000;
      hash_sized = false };
    { id = "6n";
      title = "Skiplist: throughput vs threads (80% lookups, 20% updates) \
               [DRAM]";
      cost = dram;
      series = skiplist_series ~with_lp:true;
      sweep = Threads (threads_sweep scale);
      threads = 16;
      range = big;
      mix = Workload.updates ~pct:20;
      base_ops = 10000;
      hash_sized = false };
    { id = "6o";
      title = "Skiplist: throughput vs update%% (64 threads) [DRAM]";
      cost = dram;
      series = skiplist_series ~with_lp:true;
      sweep = Updates updates_sweep;
      threads = (match scale with Quick -> 16 | Full -> 64);
      range = big;
      mix = Workload.default;
      base_ops = 10000;
      hash_sized = false }
  ]

let sweep_points = function
  | Threads ts -> List.map (fun t -> (string_of_int t, `Threads t)) ts
  | Range rs -> List.map (fun r -> (string_of_int r, `Range r)) rs
  | Updates us -> List.map (fun u -> (string_of_int u, `Updates u)) us

let sweep_label = function
  | Threads _ -> "threads"
  | Range _ -> "size"
  | Updates _ -> "update%"

let params_for panel point =
  let threads, range, mix =
    match point with
    | `Threads t -> (t, panel.range, panel.mix)
    | `Range r -> (panel.threads, r, panel.mix)
    | `Updates u -> (panel.threads, panel.range, Workload.updates ~pct:u)
  in
  { Throughput.threads; range; mix; total_ops = panel.base_ops }

(* Runs one panel: one row per (series, sweep point) with throughput
   and the flush/fence mix at that point, then per series the site
   attribution accumulated over the sweep — where its flushes and
   fences come from — and its totals. *)
let run_panel ?(seed = 1) (panel : panel) =
  Printf.printf "\n# Fig %s — %s\n%!" panel.id panel.title;
  let axis = sweep_label panel.sweep in
  let totals = List.map (fun _ -> Nvt_nvm.Stats.zero ()) panel.series in
  let points =
    List.concat_map
      (fun (x, point) ->
        List.map2
          (fun (series : series) into ->
            let p = params_for panel point in
            if panel.hash_sized then
              Instances.hash_buckets := max 16 (p.range / 2);
            let p =
              { p with
                Throughput.total_ops =
                  max p.Throughput.threads
                    (int_of_float
                       (float_of_int p.Throughput.total_ops *. series.ops_scale))
              }
            in
            let r = Throughput.run series.set ~cost:panel.cost ~seed p in
            Nvt_nvm.Stats.accumulate ~into r.stats;
            { Record.table = panel.id;
              labels = [ ("series", series.label); (axis, x) ];
              metrics =
                [ Record.sim ~unit:"Mops/s" "mops" r.mops;
                  Record.sim ~unit:"count/op" "flushes_per_op" r.flushes_per_op;
                  Record.sim ~unit:"count/op" "fences_per_op" r.fences_per_op;
                  Record.sim ~unit:"ratio" "cas_failure_rate" r.cas_failure_rate;
                  Record.count "ops" r.ops;
                  Record.sim ~unit:"vt" "makespan" (float_of_int r.makespan) ] })
          panel.series totals)
      (sweep_points panel.sweep)
  in
  let table = panel.id ^ " sites" in
  let sites =
    List.concat
      (List.map2
         (fun (series : series) (st : Nvt_nvm.Stats.t) ->
           let labels = [ ("series", series.label) ] in
           Record.site_rows ~table ~labels st
           @ [ { Record.table;
                 labels = labels @ [ ("site", "total") ];
                 metrics =
                   [ Record.count "flushes" st.flushes;
                     Record.count "fences" st.fences;
                     Record.count "cas" st.cas;
                     Record.count "cas_failures" st.cas_failures ] } ])
         panel.series totals)
  in
  let rows = points @ sites in
  Record.print rows;
  rows

let all_ids scale = List.map (fun p -> p.id) (panels scale)

(* The chosen panels' rows, in the order asked (all panels when [ids]
   is empty). An unknown id raises [Invalid_argument] before any panel
   runs. *)
let run ?seed ~scale ids =
  let available = panels scale in
  let chosen =
    if ids = [] then available
    else
      List.map
        (fun id ->
          match List.find_opt (fun p -> p.id = id) available with
          | Some p -> p
          | None ->
            invalid_arg
              (Printf.sprintf "unknown panel %s (known: %s)" id
                 (String.concat " " (all_ids scale))))
        ids
  in
  List.concat_map (run_panel ?seed) chosen
