(* In-memory span recorder for the traced runs, and the wrappers that
   emit spans around calls into each layer's public interface.

   A span is (name, start, end, parent) in both host time (monotonic
   ns) and virtual time ([Machine.now]). Spans nest per execution
   context: the main program is context 0 and simulated thread [tid]
   is context [tid + 1] (a native domain has only context 0). The
   simulator interleaves its fibers at every shared access, which
   happens *inside* a memory span, so host self time is attributed on
   the domain's single timeline: the interval between two consecutive
   events goes to the innermost open span of the context emitting the
   later event. Virtual time is per simulated thread, so its self time
   is the advance of that thread's clock between its own consecutive
   events; the main context consumes none.

   Every event updates the per-layer totals; only the first [capacity]
   closed spans are kept for the trace file. *)

module Memory = Nvt_nvm.Memory
module I = Nvt_harness.Instances

let layers =
  [| "setup"; "bench"; "service"; "recovery"; "structures"; "nvm"; "sim" |]

let setup = 0
let bench = 1
let service = 2
let recovery = 3
let structures = 4
let nvm = 5
let sim = 6

(* An open span lives in its context's stack arrays at index [depth-1],
   so recording allocates nothing (an allocating tracer would add GC
   pauses to the very intervals it measures, on every domain). *)
let max_depth = 32

type ctx = {
  idx : int;
  base : int;  (* layer charged while no span is open *)
  mutable last_vt : int;
  mutable depth : int;
  f_layer : int array;
  f_name : string array;
  f_id : int array;
  f_parent : int array;
  f_h0 : int array;
  f_v0 : int array;
  f_reads : int array;  (* memory reads issued directly under the span *)
}

(* Per structure-operation kind (insert, delete, lookup): virtual-time
   durations, and memory reads summed over the operations. *)
type ops = { vt : Measure.Ibuf.t array; reads : int array; count : int array }

type t = {
  ctx_of : unit -> int;
  vt_of : unit -> int;
  mutable ctxs : ctx option array;
  mutable base : int;  (* base layer of contexts seen from now on *)
  mutable last_h : int;
  host_self : int array;
  vt_self : int array;
  mutable next_id : int;
  mutable kept : int;
  mutable dropped : int;
  s_name : string array;
  s_ints : int array;  (* per span: id parent ctx layer h0 h1 v0 v1 *)
  ops : ops;
}

(* Closed spans kept for the trace file, per recorder. *)
let capacity = 20_000

let create ~ctx_of ~vt_of () =
  { ctx_of;
    vt_of;
    ctxs = Array.make 64 None;
    base = bench;
    last_h = Measure.now_ns ();
    host_self = Array.make (Array.length layers) 0;
    vt_self = Array.make (Array.length layers) 0;
    next_id = 0;
    kept = 0;
    dropped = 0;
    s_name = Array.make capacity "";
    s_ints = Array.make (8 * capacity) 0;
    ops =
      { vt = Array.init 3 (fun _ -> Measure.Ibuf.create ());
        reads = Array.make 3 0;
        count = Array.make 3 0 } }

(* A recorder for the simulator: context [tid + 1] for the running
   simulated thread, 0 outside any; virtual time from the current
   machine. *)
let for_simulator () =
  create
    ~ctx_of:(fun () ->
      match Nvt_sim.Machine.get () with
      | m -> Nvt_sim.Machine.current_tid m + 1
      | exception _ -> 0)
    ~vt_of:(fun () -> Nvt_sim.Machine.now (Nvt_sim.Machine.get ()))
    ()

(* A recorder for one native domain: one context, no virtual time. *)
let for_native () = create ~ctx_of:(fun () -> 0) ~vt_of:(fun () -> 0) ()

let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install r = Domain.DLS.set current (Some r)
let uninstall () = Domain.DLS.set current None

(* Contexts first seen from now on start in [layer] (the service's
   worker threads, or the recovery threads after a crash). *)
let set_base r layer = r.base <- layer

(* A crash discards every simulated thread mid-span: drop their
   stacks (their open spans never close). *)
let drop_threads r =
  for i = 1 to Array.length r.ctxs - 1 do
    r.ctxs.(i) <- None
  done

let new_ctx r i =
  let a () = Array.make max_depth 0 in
  { idx = i;
    base = (if i = 0 then bench else r.base);
    last_vt = (if i = 0 then 0 else r.vt_of ());
    depth = 0;
    f_layer = a ();
    f_name = Array.make max_depth "";
    f_id = a ();
    f_parent = a ();
    f_h0 = a ();
    f_v0 = a ();
    f_reads = a () }

let ctx r =
  let i = r.ctx_of () in
  if i >= Array.length r.ctxs then begin
    let a = Array.make (2 * (i + 1)) None in
    Array.blit r.ctxs 0 a 0 (Array.length r.ctxs);
    r.ctxs <- a
  end;
  match r.ctxs.(i) with
  | Some c -> c
  | None ->
    let c = new_ctx r i in
    r.ctxs.(i) <- Some c;
    c

(* Charge the time since the previous event to the context's innermost
   layer; returns the current virtual time. *)
let charge r c h =
  let top = if c.depth = 0 then c.base else c.f_layer.(c.depth - 1) in
  r.host_self.(top) <- r.host_self.(top) + (h - r.last_h);
  r.last_h <- h;
  if c.idx = 0 then 0
  else begin
    let v = r.vt_of () in
    r.vt_self.(top) <- r.vt_self.(top) + (v - c.last_vt);
    c.last_vt <- v;
    v
  end

(* The name of memory-read spans, compared physically on the hot path to
   count reads per structure operation. *)
let read_name = "read"

let enter_r r layer name =
  let c = ctx r in
  let h = Measure.now_ns () in
  let v = charge r c h in
  let d = c.depth in
  if d = max_depth then failwith "span: nesting too deep";
  if d > 0 && name == read_name && c.f_layer.(d - 1) = structures then
    c.f_reads.(d - 1) <- c.f_reads.(d - 1) + 1;
  c.f_layer.(d) <- layer;
  c.f_name.(d) <- name;
  c.f_id.(d) <- r.next_id;
  c.f_parent.(d) <- (if d = 0 then -1 else c.f_id.(d - 1));
  c.f_h0.(d) <- h;
  c.f_v0.(d) <- v;
  c.f_reads.(d) <- 0;
  c.depth <- d + 1;
  r.next_id <- r.next_id + 1

(* Close the innermost span; with [kind] >= 0 it was a structure
   operation of that kind and feeds the per-kind figures. *)
let leave_r r kind =
  let c = ctx r in
  let h = Measure.now_ns () in
  let v = charge r c h in
  let d = c.depth - 1 in
  if d >= 0 then begin
    c.depth <- d;
    if r.kept < capacity then begin
      let k = r.kept in
      r.s_name.(k) <- c.f_name.(d);
      let b = 8 * k in
      r.s_ints.(b) <- c.f_id.(d);
      r.s_ints.(b + 1) <- c.f_parent.(d);
      r.s_ints.(b + 2) <- c.idx;
      r.s_ints.(b + 3) <- c.f_layer.(d);
      r.s_ints.(b + 4) <- c.f_h0.(d);
      r.s_ints.(b + 5) <- h;
      r.s_ints.(b + 6) <- c.f_v0.(d);
      r.s_ints.(b + 7) <- v;
      r.kept <- k + 1
    end
    else r.dropped <- r.dropped + 1;
    if kind >= 0 then begin
      Measure.Ibuf.push r.ops.vt.(kind) (v - c.f_v0.(d));
      r.ops.reads.(kind) <- r.ops.reads.(kind) + c.f_reads.(d);
      r.ops.count.(kind) <- r.ops.count.(kind) + 1
    end
  end

let enter layer name =
  match Domain.DLS.get current with Some r -> enter_r r layer name | None -> ()

let leave_op kind =
  match Domain.DLS.get current with Some r -> leave_r r kind | None -> ()

let leave () = leave_op (-1)

let span layer name f =
  enter layer name;
  let x = f () in
  leave ();
  x

(* ------------------------------------------------------------------ *)
(* Wrappers                                                            *)
(* ------------------------------------------------------------------ *)

(* Around a backend's {!Memory.S}: handed to a policy's [Apply], so
   every access the structure, the engine, the policy and the service
   ledger make is one [nvm] span. *)
module Mem (M : Memory.S) : Memory.S with type 'a loc = 'a M.loc = struct
  type 'a loc = 'a M.loc
  type any = Any : 'a loc -> any

  let alloc v =
    enter nvm "alloc";
    let l = M.alloc v in
    leave ();
    l

  let read l =
    enter nvm read_name;
    let v = M.read l in
    leave ();
    v

  let write l v =
    enter nvm "write";
    M.write l v;
    leave ()

  let cas l ~expected ~desired =
    enter nvm "cas";
    let ok = M.cas l ~expected ~desired in
    leave ();
    ok

  let flush l =
    enter nvm "flush";
    M.flush l;
    leave ()

  let fence () =
    enter nvm "fence";
    M.fence ();
    leave ()

  let flush_any (Any l) = flush l
end

let insert_op = 0
let delete_op = 1
let lookup_op = 2
let op_names = [| "insert"; "delete"; "lookup" |]

(* Around a structure's {!SET} operations. *)
module Set (S : Nvt_core.Set_intf.SET) :
  Nvt_core.Set_intf.SET with type t = S.t = struct
  include S

  let insert t ~key ~value =
    enter structures "insert";
    let ok = S.insert t ~key ~value in
    leave_op insert_op;
    ok

  let delete t k =
    enter structures "delete";
    let ok = S.delete t k in
    leave_op delete_op;
    ok

  let member t k =
    enter structures "lookup";
    let ok = S.member t k in
    leave_op lookup_op;
    ok

  let find t k =
    enter structures "lookup";
    let v = S.find t k in
    leave_op lookup_op;
    v

  let recover t = span recovery "structure_recover" (fun () -> S.recover t)
end

module Structure (Str : I.STRUCTURE) : I.STRUCTURE = struct
  module Make (M : Memory.S) (P : Nvt_nvm.Persist.Make(M).S) =
    Set (Str.Make (M) (P))
end

(* A policy whose [Apply] runs the original over the span-recording
   memory: same instrumentation, same sites, every access traced. *)
let policy (module Pol : I.POLICY) : I.policy =
  (module struct
    let name = Pol.name
    let summary = Pol.summary
    let durable = Pol.durable
    let discipline = Pol.discipline

    module Apply (M : Memory.S) = Pol.Apply (Mem (M))
  end)

let flavour (f : I.flavour) = { f with I.policy = policy f.policy }

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type summary = {
  host_self : int array;
  vt_self : int array;
  spans : int;
  op_vt_p50 : float array;
  op_reads_per_op : float array;
}

(* The per-layer totals and per-kind figures of one traced run, over
   the recorders of all its domains. *)
let summary (rs : t list) =
  let sum f =
    Array.init (Array.length layers) (fun l ->
        List.fold_left (fun n r -> n + (f r).(l)) 0 rs)
  in
  let kind k f = List.fold_left (fun n r -> n + (f r.ops).(k)) 0 rs in
  { host_self = sum (fun r -> r.host_self);
    vt_self = sum (fun r -> r.vt_self);
    spans = List.fold_left (fun n r -> n + r.kept + r.dropped) 0 rs;
    op_vt_p50 =
      Array.init 3 (fun k ->
          Measure.pct_int
            (Array.concat
               (List.map (fun r -> Measure.Ibuf.contents r.ops.vt.(k)) rs))
            0.5);
    op_reads_per_op =
      Array.init 3 (fun k ->
          let n = kind k (fun o -> o.count) in
          if n = 0 then Float.nan
          else float_of_int (kind k (fun o -> o.reads)) /. float_of_int n) }

let shares a =
  let tot = Array.fold_left ( + ) 0 a in
  Array.map
    (fun v -> if tot = 0 then 0.0 else float_of_int v /. float_of_int tot)
    a

(* The kept spans as Chrome trace-event JSON ("X" complete events, one
   track per context, microsecond timestamps from the first span), which
   opens in Perfetto or chrome://tracing. *)
let write_chrome oc ~pid ~first ~t0 (r : t) =
  for k = 0 to r.kept - 1 do
    let g j = r.s_ints.((8 * k) + j) in
    if not (!first) then output_string oc ",\n";
    first := false;
    Printf.fprintf oc
      "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\
       \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\
       \"vt_start\":%d,\"vt_end\":%d}}"
      r.s_name.(k) layers.(g 3) pid (g 2)
      (float_of_int (g 4 - t0) /. 1e3)
      (float_of_int (g 5 - g 4) /. 1e3)
      (g 0) (g 1) (g 6) (g 7)
  done

let write_trace path recorders =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      let first = ref true in
      let t0 =
        List.fold_left
          (fun t (r : t) -> if r.kept = 0 then t else min t r.s_ints.(4))
          max_int recorders
      in
      List.iteri (fun pid r -> write_chrome oc ~pid ~first ~t0 r) recorders;
      output_string oc "\n]}\n")
