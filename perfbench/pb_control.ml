(* The [control] workload: the corpus batched at z=1024 on the program-
   counter VM, its precompiled twin, local static batching and the
   unbatched reference interpreter. Scalar data and divergent control
   flow make superstep dispatch ([vm]) the bulk of the work. *)

open Pb_report

let z = 1024

type prepared = {
  entry : Pb_corpus.entry;
  compiled : Autobatch.compiled;
  jit : Pc_jit.t;
  batch : Tensor.t list;
}

type setup = {
  prepared : prepared array;
  compile_s : float;
  jit_s : float;
}

let setup_once ~seed ~z =
  let corpus = Pb_trace.span "ir.parse" Pb_corpus.load in
  let compile_s = ref 0. and jit_s = ref 0. in
  let prepared =
    List.mapi
      (fun i (entry : Pb_corpus.entry) ->
        let compiled, s =
          Pb_meter.measure (fun () ->
              Pb_trace.span ~req:i "core.compile" (fun () ->
                  Autobatch.compile
                    ~input_shapes:(List.init entry.n_inputs (fun _ -> Shape.scalar))
                    entry.program))
        in
        compile_s := !compile_s +. s.wall_s;
        let jit, s =
          Pb_meter.measure (fun () ->
              Pb_trace.span ~req:i "vm.jit_precompile" (fun () ->
                  Autobatch.jit compiled ~batch:z))
        in
        jit_s := !jit_s +. s.wall_s;
        { entry; compiled; jit; batch = Pb_corpus.inputs ~seed ~z i entry })
      corpus
  in
  { prepared = Array.of_list prepared; compile_s = !compile_s; jit_s = !jit_s }

type runtime = Pc | Jit | Local | Unbatched

let runtimes = [ Pc; Jit; Local; Unbatched ]
let runtime_name = function Pc -> "pc" | Jit -> "jit" | Local -> "local" | Unbatched -> "unbatched"

let exec ?sink rt p =
  match rt with
  | Pc ->
    Autobatch.run_pc ~config:{ Pc_vm.default_config with sink } p.compiled ~batch:p.batch
  | Jit -> Pc_jit.run ?sink p.jit ~batch:p.batch
  | Local ->
    Autobatch.run_local ~config:{ Local_vm.default_config with sink } p.compiled
      ~batch:p.batch
  | Unbatched -> Autobatch.run_unbatched p.compiled ~batch:p.batch

let bits_equal a b =
  Tensor.shape a = Tensor.shape b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       (Tensor.data a) (Tensor.data b)

(* Members whose outputs differ in any bit from the reference. *)
let mismatched ~reference outs =
  let z = Tensor.nrows (List.hd reference) in
  if List.length outs <> List.length reference then z
  else
    let bad = ref 0 in
    for m = 0 to z - 1 do
      if
        not
          (List.for_all2
             (fun r o -> bits_equal (Tensor.slice_row r m) (Tensor.slice_row o m))
             reference outs)
      then incr bad
    done;
    !bad

(* Deterministic per-program counts from one instrumented Pc_vm pass:
   supersteps, lane-steps active and live. *)
type census = { steps : int; active : float; live : float }

let census p =
  let inst = Instrument.create () in
  let active = ref 0. and live = ref 0. in
  let sink = function
    | Obs_sink.Occupancy o ->
      active := !active +. float_of_int o.active;
      live := !live +. float_of_int o.live
    | _ -> ()
  in
  let config = { Pc_vm.default_config with instrument = Some inst; sink = Some sink } in
  ignore (Autobatch.run_pc ~config p.compiled ~batch:p.batch);
  { steps = Instrument.blocks_executed inst; active = !active; live = !live }

let idx = function Pc -> 0 | Jit -> 1 | Local -> 2 | Unbatched -> 3

(* Timed rounds: every program on every runtime once per round, until
   [seconds] have passed (at least three rounds), with [between] called
   after each round. Every batched member is checked against the
   unbatched reference of the same round. *)
type timings = {
  walls : float list array array;  (** [program][idx runtime], newest first *)
  words : float array array;  (** words of the last round *)
  rounds : int;
  attempted : int;
  failed : int;
  heap_mb : float;  (** peak heap after the first round *)
}

let timed_rounds ~between ~seconds prepared =
  let n = Array.length prepared and k = List.length runtimes in
  let walls = Array.make_matrix n k [] and words = Array.make_matrix n k 0. in
  let attempted = ref 0 and failed = ref 0 and rounds = ref 0 and heap_mb = ref 0. in
  let t_end = Pb_meter.now () +. seconds in
  while !rounds < 3 || Pb_meter.now () < t_end do
    Array.iteri
      (fun i p ->
        let outs =
          List.map
            (fun rt ->
              let out, s = Pb_meter.measure (fun () -> exec rt p) in
              walls.(i).(idx rt) <- s.wall_s :: walls.(i).(idx rt);
              words.(i).(idx rt) <- s.words;
              (rt, out))
            runtimes
        in
        let reference = List.assoc Unbatched outs in
        List.iter
          (fun (rt, out) ->
            if rt <> Unbatched then begin
              attempted := !attempted + Tensor.nrows (List.hd reference);
              failed := !failed + mismatched ~reference out
            end)
          outs)
      prepared;
    if !rounds = 0 then heap_mb := peak_heap_mb ();
    incr rounds;
    between ()
  done;
  { walls; words; rounds = !rounds; attempted = !attempted; failed = !failed; heap_mb = !heap_mb }

let median_wall t i rt = Pb_meter.median t.walls.(i).(idx rt)

(* Members per second on one runtime, geometric mean over programs. *)
let members_per_s t ~z rt =
  Pb_meter.geomean
    (List.init (Array.length t.walls) (fun i -> float_of_int z /. median_wall t i rt))

(* Speed-up of [rt] over unbatched: per program the median, over rounds,
   of the ratio of two runs made back to back; geometric mean over
   programs. *)
let speedup t rt =
  Pb_meter.geomean
    (List.init (Array.length t.walls) (fun i ->
         Pb_meter.paired_ratio t.walls.(i).(idx Unbatched) t.walls.(i).(idx rt)))

(* Rounds with three fresh set-ups after each, from a collected heap, so
   the set-up median spans the whole run as the other timings do. The
   set-up before the first round is not timed: the reference job that
   set-up timing runs would stay in the heap whose peak is read after
   that round. Returns the set-up in use, the rounds and every timed
   set-up with its rescaled seconds. *)
let rounds_with_setups ~seed ~seconds () =
  let s = setup_once ~seed ~z and setups = ref [] in
  let between () =
    Gc.full_major ();
    setups := Pb_meter.scaled_setups 3 (fun () -> setup_once ~seed ~z) @ !setups
  in
  let t = timed_rounds ~between ~seconds s.prepared in
  (s, t, !setups)

let median_of f setups = Pb_meter.median (List.map f setups)

(* ---------- traced run ---------- *)

let local_steps p =
  let inst = Instrument.create () in
  ignore
    (Autobatch.run_local
       ~config:{ Local_vm.default_config with instrument = Some inst }
       p.compiled ~batch:p.batch);
  Instrument.blocks_executed inst

(* Dispatch overhead in isolation: the first [k] members of every program
   rerun one at a time (z=1), each runtime timed over the whole set,
   divided by the supersteps executed. *)
let z1_us_per_step ~seed ~k prepared =
  let singles =
    Array.to_list prepared
    |> List.mapi (fun i p ->
           let all = Pb_corpus.inputs ~seed ~z:k i p.entry in
           List.init k (fun m ->
               let batch = List.map (fun t -> Tensor.take_rows t [| m |]) all in
               { p with batch; jit = Autobatch.jit p.compiled ~batch:1 }))
    |> List.concat
  in
  let pc_steps = List.fold_left (fun a p -> a + (census p).steps) 0 singles in
  let local_steps = List.fold_left (fun a p -> a + local_steps p) 0 singles in
  let jit_steps =
    List.fold_left
      (fun a p ->
        ignore (exec Jit p);
        a + Pc_jit.steps p.jit)
      0 singles
  in
  let time rt =
    Pb_meter.median
      (List.init 5 (fun _ ->
           (snd (Pb_meter.measure (fun () -> List.iter (fun p -> ignore (exec rt p)) singles)))
             .wall_s))
  in
  let us wall steps = 1e6 *. wall /. float_of_int steps in
  ( us (time Pc) pc_steps,
    us (time Jit) jit_steps,
    us (time Local) local_steps )

let traced ~seed ~seconds =
  let s, t, setups = Pb_trace.suspended (fun () -> rounds_with_setups ~seed ~seconds ()) in
  (* One more set-up, traced, for its spans. *)
  ignore (setup_once ~seed ~z);
  let compile_s = median_of (fun (x, _) -> x.compile_s) setups in
  let jit_s = median_of (fun (x, _) -> x.jit_s) setups in
  let censuses = Array.map census s.prepared in
  let steps = Array.fold_left (fun a c -> a + c.steps) 0 censuses in
  let wall_of rt =
    Pb_meter.sum (List.init (Array.length s.prepared) (fun i -> median_wall t i rt))
  in
  let words_of rt = Array.fold_left (fun a w -> a +. w.(idx rt)) 0. t.words in
  let untraced_round = Pb_meter.sum (List.map wall_of runtimes) in
  let sink = Pb_trace.sink () in
  let (), traced_round =
    Pb_meter.measure (fun () ->
        Array.iteri
          (fun i p ->
            List.iter
              (fun rt ->
                Pb_trace.span ~req:i ("vm." ^ runtime_name rt) (fun () ->
                    ignore (exec ?sink rt p));
                Pb_trace.settle ())
              runtimes)
          s.prepared)
  in
  let pc1, jit1, local1 = Pb_trace.suspended (fun () -> z1_us_per_step ~seed ~k:16 s.prepared) in
  let active = Array.fold_left (fun a c -> a +. c.active) 0. censuses in
  let live = Array.fold_left (fun a c -> a +. c.live) 0. censuses in
  let fsteps = float_of_int steps in
  ( t.attempted,
    t.failed,
  [
    ("core.compile_ms", 1e3 *. compile_s);
    ("vm.jit_precompile_ms", 1e3 *. jit_s);
    ("vm.supersteps", fsteps);
    ("vm.pc_us_per_superstep_z1", pc1);
    ("vm.jit_us_per_superstep_z1", jit1);
    ("vm.local_us_per_step_z1", local1);
    ("vm.pc_us_per_superstep", 1e6 *. wall_of Pc /. fsteps);
    ("vm.jit_us_per_superstep", 1e6 *. wall_of Jit /. fsteps);
    ("vm.pc_alloc_words_per_superstep", words_of Pc /. fsteps);
    ("vm.jit_alloc_words_per_superstep", words_of Jit /. fsteps);
    ("vm.lane_utilization", active /. live);
    ( "vm.unbatched_us_per_member",
      1e6 *. wall_of Unbatched /. float_of_int (z * Array.length s.prepared) );
    ("obs.trace_overhead_ratio", traced_round.wall_s /. untraced_round);
  ] )

let run ~seed ~seconds =
  let s, t, setups = rounds_with_setups ~seed ~seconds () in
  let setup_s = median_of snd setups in
  let censuses = Array.map census s.prepared in
  let rate rt = members_per_s t ~z rt in
  let active = Array.fold_left (fun a c -> a +. c.active) 0. censuses in
  let live = Array.fold_left (fun a c -> a +. c.live) 0. censuses in
  let per_program =
    Array.to_list
      (Array.mapi
         (fun i p ->
           Printf.sprintf "  %-12s steps %7d  ms/batch pc %8.2f jit %8.2f local %8.2f unbatched %8.2f"
             p.entry.name censuses.(i).steps
             (1e3 *. median_wall t i Pc) (1e3 *. median_wall t i Jit)
             (1e3 *. median_wall t i Local) (1e3 *. median_wall t i Unbatched))
         s.prepared)
  in
  let pc = rate Pc and jit = rate Jit and local = rate Local and unb = rate Unbatched in
  {
    attempted = t.attempted;
    failed = t.failed;
    correct = t.failed = 0;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "peak_heap_mb" "MB" t.heap_mb;
        m "speedup_x" "x" (speedup t Pc);
        m "useful_ratio" "ratio" (active /. live);
      ];
    lines =
      [
        Printf.sprintf "control: z=%d, %d rounds, %d member checks, %d mismatches" z t.rounds
          t.attempted t.failed;
      ]
      @ per_program
      @ [
          Printf.sprintf "control.pc_members_per_s %.6g 1/s" pc;
          Printf.sprintf "control.jit_members_per_s %.6g 1/s" jit;
          Printf.sprintf "control.local_members_per_s %.6g 1/s" local;
          Printf.sprintf "control.unbatched_members_per_s %.6g 1/s" unb;
          Printf.sprintf "control speed-up over unbatched (paired): pc %.3fx jit %.3fx local %.3fx"
            (speedup t Pc) (speedup t Jit) (speedup t Local);
        ];
  }
