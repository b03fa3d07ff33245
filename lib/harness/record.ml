(* The one bench record format.

   Every bench builds a list of rows. A row names its table, carries
   its axis values as string labels (structure, policy, threads, mode,
   interval...) and its measurements as metrics in perfbench's
   [nvtbench/1] shape — name -> {value, unit} — plus a [kind]:

   - [Sim]: simulated, a pure function of the seed and the code, so it
     must repeat exactly (flushes, fences, virtual time, step counts);
   - [Wall]: host time, noisy by nature (steps per wall second,
     native ns/op).

   From the rows come the printed table ([print]), the JSON artifact
   ([write], one schema id for every bench) and the comparison against
   the committed baseline ([diff], the one reader of [kind]). A bench's
   own invariants go through one [gate], which prints a FAIL: line per
   violated invariant and makes the bench exit non-zero. *)

type kind = Sim | Wall

type metric = { value : float; unit : string; kind : kind }

type row = {
  table : string;
  labels : (string * string) list;
  metrics : (string * metric) list;
}

type artifact = {
  bench : string;
  scale : string;  (* "quick" or "full" *)
  seed : int option;  (* None for benches with no seeded workload *)
  config : (string * Json.t) list;
  rows : row list;
}

let schema = "nvtraverse-bench/1"

let sim ?(unit = "count") name value = (name, { value; unit; kind = Sim })
let count name n = sim name (float_of_int n)
let wall ~unit name value = (name, { value; unit; kind = Wall })

(* One row per attribution site of a stats delta, heaviest first: the
   table that says where a run's flushes and fences came from. *)
let site_rows ~table ~labels (st : Nvt_nvm.Stats.t) =
  List.map
    (fun (site, { Nvt_nvm.Stats.s_flushes; s_fences; s_cas }) ->
      { table;
        labels = labels @ [ ("site", site) ];
        metrics =
          [ count "flushes" s_flushes; count "fences" s_fences;
            count "cas" s_cas ] })
    (Nvt_nvm.Stats.sites st)

(* ------------------------------------------------------------------ *)
(* Table printer                                                       *)
(* ------------------------------------------------------------------ *)

let is_count v = Float.is_integer v && Float.abs v < 1e15

let cell v =
  if is_count v then Printf.sprintf "%.0f" v
  else if Float.abs v >= 1e4 then Printf.sprintf "%.4g" v
  else Printf.sprintf "%.3f" v

(* Keys in first-appearance order across [rows]. *)
let union keys rows =
  List.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc k -> if List.mem k acc then acc else acc @ [ k ])
        acc (keys r))
    [] rows

(* The rows of one table print as one block: label columns
   left-aligned, then one right-aligned column per metric; a cell a row
   lacks prints "-". [columns] picks and orders the metric columns of
   the tables it names; other tables show every metric. *)
let print ?(columns = []) rows =
  let rec groups = function
    | [] -> []
    | r :: _ as rows ->
      let same, rest =
        List.partition (fun x -> x.table = r.table) rows
      in
      (r.table, same) :: groups rest
  in
  List.iter
    (fun (table, rows) ->
      let labels = union (fun r -> List.map fst r.labels) rows in
      let metrics =
        match List.assoc_opt table columns with
        | Some names -> names
        | None -> union (fun r -> List.map fst r.metrics) rows
      in
      let line r =
        List.map
          (fun k -> Option.value (List.assoc_opt k r.labels) ~default:"-")
          labels
        @ List.map
            (fun m ->
              match List.assoc_opt m r.metrics with
              | Some x -> cell x.value
              | None -> "-")
            metrics
      in
      let header = labels @ metrics in
      let lines = List.map line rows in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map String.length header)
          lines
      in
      let n_labels = List.length labels in
      let print_line cells =
        List.iteri
          (fun i (w, c) ->
            if i > 0 then print_char ' ';
            if i < n_labels then Printf.printf "%-*s" w c
            else Printf.printf "%*s" w c)
          (List.combine widths cells);
        print_newline ()
      in
      Printf.printf "\n## %s\n" table;
      print_line header;
      List.iter print_line lines;
      flush stdout)
    (groups rows)

(* ------------------------------------------------------------------ *)
(* Artifact                                                            *)
(* ------------------------------------------------------------------ *)

let kind_name = function Sim -> "sim" | Wall -> "wall"

(* Integral values print as JSON integers; other values go through the
   emitter's shortest exact form. Either way a value round-trips. *)
let number v = if is_count v then Json.Int (int_of_float v) else Json.Float v

let row_json r =
  Json.Obj
    [ ("table", Json.Str r.table);
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.labels));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, m) ->
               ( name,
                 Json.Obj
                   [ ("value", number m.value);
                     ("unit", Json.Str m.unit);
                     ("kind", Json.Str (kind_name m.kind)) ] ))
             r.metrics) ) ]

let to_json a =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("bench", Json.Str a.bench);
      ("scale", Json.Str a.scale);
      ("seed", match a.seed with Some s -> Json.Int s | None -> Json.Null);
      ("config", Json.Obj a.config);
      ("rows", Json.List (List.map row_json a.rows)) ]

let fields = function
  | Json.Obj kvs -> kvs
  | _ -> raise (Json.Parse_error "not an object")

let to_float = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | Json.Null -> Float.nan
  | _ -> raise (Json.Parse_error "not a number")

let of_json j =
  let open Json in
  let str k o = to_string_exn (member k o) in
  if str "schema" j <> schema then
    raise (Parse_error ("not a " ^ schema ^ " artifact"));
  let metric m =
    { value = to_float (member "value" m);
      unit = str "unit" m;
      kind =
        (match str "kind" m with
        | "sim" -> Sim
        | "wall" -> Wall
        | k -> raise (Parse_error ("unknown metric kind " ^ k))) }
  in
  let row r =
    { table = str "table" r;
      labels =
        List.map
          (fun (k, v) -> (k, to_string_exn v))
          (fields (member "labels" r));
      metrics =
        List.map (fun (k, m) -> (k, metric m)) (fields (member "metrics" r)) }
  in
  { bench = str "bench" j;
    scale = str "scale" j;
    seed = (match member "seed" j with Null -> None | s -> Some (to_int_exn s));
    config = fields (member "config" j);
    rows = List.map row (to_list (member "rows" j)) }

let write path a =
  Json.write_file path (to_json a);
  Printf.printf "wrote %s\n%!" path

let read path = of_json (Json.parse_file path)

(* The committed baseline file holds a JSON list of artifacts. *)
let read_baseline path =
  List.map of_json (Json.to_list (Json.parse_file path))

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

type gate = { mutable failures : string list }

let gate () = { failures = [] }

let fail g fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "FAIL: %s\n%!" s;
      g.failures <- s :: g.failures)
    fmt

let check g cond fmt =
  Printf.ksprintf (fun s -> if not cond then fail g "%s" s) fmt

let close g = if g.failures <> [] then exit 1

(* The end of every bench: write the artifact when asked, then exit
   non-zero if any check of its gate failed. *)
let finish ?json_path ?gate a =
  Option.iter (fun path -> write path a) json_path;
  Option.iter close gate

(* ------------------------------------------------------------------ *)
(* Baseline diff                                                       *)
(* ------------------------------------------------------------------ *)

(* The committed baseline: each artifact with its Wall metrics dropped,
   and rows left with no Sim metric dropped with them. *)
let baseline_of a =
  let sim r =
    { r with metrics = List.filter (fun (_, m) -> m.kind = Sim) r.metrics }
  in
  { a with
    rows = List.filter (fun r -> r.metrics <> []) (List.map sim a.rows) }

let row_name r =
  Printf.sprintf "%s [%s]" r.table
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) r.labels))

(* Every difference in the simulated part of [a] against its bench's
   baseline: a run at another scale, seed or config, a row or Sim metric
   added or missing, or a Sim value changed. Wall metrics are ignored. *)
let diff ~baseline a =
  let a = baseline_of a in
  match List.find_opt (fun b -> b.bench = a.bench) baseline with
  | None -> [ Printf.sprintf "%s: no baseline for this bench" a.bench ]
  | Some b when (b.scale, b.seed, b.config) <> (a.scale, a.seed, a.config) ->
    [ Printf.sprintf "%s: run's scale, seed or config differs from the baseline's"
        a.bench ]
  | Some b ->
    let key r = (r.table, r.labels) in
    let find rows r = List.find_opt (fun x -> key x = key r) rows in
    let missing_in rows what r =
      match find rows r with
      | None -> [ Printf.sprintf "%s: %s row %s" a.bench what (row_name r) ]
      | Some _ -> []
    in
    let changed (old : row) =
      match find a.rows old with
      | None -> []
      | Some r ->
        let names = union (fun r -> List.map fst r.metrics) [ old; r ] in
        List.filter_map
          (fun name ->
            let v x =
              Option.map (fun m -> m.value) (List.assoc_opt name x.metrics)
            in
            match (v old, v r) with
            | Some x, Some y when x = y || (Float.is_nan x && Float.is_nan y)
              ->
              None
            | x, y ->
              let show = function
                | Some v -> Printf.sprintf "%.15g" v
                | None -> "absent"
              in
              Some
                (Printf.sprintf "%s: %s %s: baseline %s, now %s" a.bench
                   (row_name r) name (show x) (show y)))
          names
    in
    List.concat_map (missing_in a.rows "missing") b.rows
    @ List.concat_map (missing_in b.rows "added") a.rows
    @ List.concat_map changed b.rows
