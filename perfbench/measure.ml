(* Clocks, order statistics and GC snapshots shared by the workloads. *)

(* Host time in nanoseconds from the monotonic clock (an unboxed,
   allocation-free external, cheap enough to read around every traced
   memory access). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9

(* The median of an odd sample is its middle element; of an even one,
   the mean of the two middle elements. *)
let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile; [nan] when empty. *)
let pct_int (a : int array) p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    float_of_int
      a.(min (n - 1) (max 0 (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* A growable int buffer for per-operation samples. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a' = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let contents b = Array.sub b.a 0 b.n
end

type gc = { minor_words : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let time_s f =
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (f ()));
  secs_since t0

(* ------------------------------------------------------------------ *)
(* Reference probe                                                     *)
(* ------------------------------------------------------------------ *)

(* A fixed computation that uses nothing from the library, timed next
   to every repetition to measure the host's speed at that moment (see
   [repeat] in nvtbench.ml): dependent random reads and writes over a
   table outside the OCaml heap, then [switches] effect-handler fiber
   switches that each allocate a little, as the simulator's steps do.

   The [memory] probe's 4 MB table outgrows the caches, and its fiber
   switches track the effect- and allocation-bound speed the simulated
   workloads see; it runs between repetitions, from a collected heap.
   The [core] probe has no switches, allocates nothing and keeps its
   256 KB table in L2, so slices of it interleaved with a workload
   neither disturb the workload's collections nor pay much for its use
   of the caches. *)
type _ Effect.t += Probe_yield : unit Effect.t

type probe = {
  table : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t Lazy.t;
  iterations : int;
  switches : int;
}

let probe ~words ~iterations ~switches =
  { table =
      lazy
        (let t = Bigarray.(Array1.create int c_layout words) in
         Bigarray.Array1.fill t 0;
         t);
    iterations;
    switches }

let memory = probe ~words:(1 lsl 19) ~iterations:1_000_000 ~switches:144_000

(* the same probe on its own table, for a second domain at the same time *)
let memory' = probe ~words:(1 lsl 19) ~iterations:1_000_000 ~switches:144_000
let core = probe ~words:(1 lsl 15) ~iterations:6_000_000 ~switches:0

let fibers = 16

(* [scale] shrinks the loops: a scale-[1/n] slice is [1/n] of a probe. *)
let probe_work ?(scale = 1.0) p =
  let t = Lazy.force p.table in
  let mask = Bigarray.Array1.dim t - 1 in
  let x = ref 0x2545f491 and acc = ref 0 in
  for i = 1 to int_of_float (float_of_int p.iterations *. scale) do
    x := ((!x * 1103515245) + 12345 + !acc) land 0x3fffffff;
    let j = !x land mask in
    let v = Bigarray.Array1.unsafe_get t j in
    Bigarray.Array1.unsafe_set t j (v + i);
    acc := (!acc + v) land 0xffff
  done;
  let rounds = int_of_float (float_of_int p.switches *. scale) / fibers in
  let open Effect.Deep in
  let q = Queue.create () in
  for f = 1 to if rounds > 0 then fibers else 0 do
    Queue.push
      (fun () ->
        match_with
          (fun () ->
            for r = 1 to rounds do
              (match Sys.opaque_identity (Some (f, r)) with
              | Some (a, b) -> acc := (!acc + a + b) land 0xffff
              | None -> ());
              Effect.perform Probe_yield
            done)
          ()
          { retc = (fun () -> ());
            exnc = raise;
            effc =
              (fun (type a) (e : a Effect.t) ->
                match e with
                | Probe_yield ->
                  Some
                    (fun (k : (a, unit) continuation) ->
                      Queue.push (fun () -> continue k ()) q)
                | _ -> None) })
      q
  done;
  while not (Queue.is_empty q) do
    (Queue.pop q) ()
  done;
  !acc

(* The memory probe's host time now: the median of three runs. With
   [~domains:2] a second domain runs it at the same time, for workloads
   whose own repetitions keep both cores busy. *)
let probe_s ~domains =
  let once () =
    if domains = 1 then time_s (fun () -> probe_work memory)
    else begin
      let t0 = now_ns () in
      let d = Domain.spawn (fun () -> probe_work memory') in
      ignore (Sys.opaque_identity (probe_work memory));
      ignore (Sys.opaque_identity (Domain.join d));
      secs_since t0
    end
  in
  ignore (Lazy.force memory.table, Lazy.force memory'.table);
  median (List.init 3 (fun _ -> once ()))
