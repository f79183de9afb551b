(* The [nuts] workload: autobatched NUTS with 64 chains on two models,
   staged from the public pieces Warmup.run -> Nuts_dsl.setup ->
   Autobatch.compile -> Autobatch.run_pc. Gradients ([models]), tensor
   kernels and the sampler ([mcmc]) do most of the work.

   Two arms share one compiled program:
   - draws: one trajectory per invocation, as Batched_sampler's
     [`Samples] mode does, so every position is observable (ESS);
   - moments: the whole chain as one invocation, the paper's
     program-counter mode, where gradients batch across trajectories.
   A single-chain Nuts.sample_chain with the same step size and metric is
   the unbatched reference. *)

open Pb_report

let chains = 64

type model_spec = {
  label : string;
  build : unit -> Model.t;
  draws_traj : int;  (** trajectories in the draws arm *)
  moments_traj : int;  (** trajectories per chain in the moments arm *)
  single_traj : int;  (** trajectories per timed single-chain sample *)
}

(* logistic: dim 10 over 400 synthetic rows, so each gradient is two
   [64 x 10] x [10 x 400] matmuls (data-heavy). The rows are fixed: the
   seed varies the chains, not the posterior, whose shape sets the tree
   depths and so the work per gradient. eight_schools: the non-centred
   hierarchical model, a cheap gradient with deep, divergent trees.

   Sizes: a moments invocation takes about a second, long enough for the
   chains to drift apart; a single-chain sample takes about half as long,
   and two of them bracket each moments invocation. *)
let specs =
  [
    {
      label = "logistic";
      build = (fun () -> Logistic_model.model ~seed:0x1061L ~n:400 ~dim:10 ());
      draws_traj = 8;
      moments_traj = 16;
      single_traj = 1000;
    };
    {
      label = "eight_schools";
      build = Eight_schools.model;
      draws_traj = 40;
      moments_traj = 100;
      single_traj = 30_000;
    };
  ]

type setup = {
  model : Model.t;
  warm : Warmup.result;
  key : Counter_rng.key;
  cfg : Nuts.config;
  compiled : Autobatch.compiled;
  warmup_s : float;
  compile_s : float;
}

(* Warmup runs from a fixed seed, so every run samples with the same step
   size and metric; the benchmark seed keys the chains' draws. The
   adapted step size sets the tree depths, and with them the work per
   gradient, which would otherwise differ from seed to seed. *)
let warmup_seed = 0x5EEDL

let setup_once ?(sampler_seed = warmup_seed) spec =
  let model = spec.build () in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let warm, ws =
    Pb_meter.measure (fun () ->
        Pb_trace.span "mcmc.warmup" (fun () -> Warmup.run ~seed:warmup_seed ~model ~q0 ()))
  in
  let reg, key = Nuts_dsl.setup ~seed:sampler_seed ~model () in
  let cfg = Nuts.default_config ~mass_minv:warm.Warmup.minv ~eps:warm.Warmup.eps () in
  let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
  let compiled, cs =
    Pb_meter.measure (fun () ->
        Pb_trace.span "core.compile" (fun () ->
            Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog))
  in
  {
    model;
    warm;
    key;
    cfg;
    compiled;
    warmup_s = ws.wall_s;
    compile_s = cs.wall_s;
  }

(* ---------- draws arm ---------- *)

type draws = {
  samples : Tensor.t array array;  (** [chain][trajectory] *)
  traj_walls : float list;  (** per invocation, in order *)
  draws_words : float;
  useful_grads : int;
  issued_grads : int;
  draws_steps : int;
}

let draws_wall d = Pb_meter.sum d.traj_walls

let draws_arm ?sink s ~n_traj =
  let z = chains in
  let dim = s.model.Model.dim in
  let eps = s.warm.Warmup.eps and minv = s.warm.Warmup.minv in
  let inst = Instrument.create () in
  let config = { Pc_vm.default_config with instrument = Some inst; sink } in
  let q_cur = ref (Tensor.broadcast_rows s.warm.Warmup.q z) in
  let cnt_cur = ref (Tensor.zeros [| z |]) in
  let samples = Array.make_matrix z n_traj (Tensor.zeros [| dim |]) in
  let walls = ref [] and words = ref 0. in
  for it = 0 to n_traj - 1 do
    let batch =
      [
        !q_cur;
        Tensor.full [| z |] eps;
        Tensor.full [| z |] 1.;
        Tensor.full [| z |] 1.;
        !cnt_cur;
        Tensor.broadcast_rows minv z;
      ]
    in
    let outputs, m =
      Pb_meter.measure (fun () ->
          Pb_trace.span ~req:it "vm.run_pc" (fun () ->
              Autobatch.run_pc ~config s.compiled ~batch))
    in
    walls := m.wall_s :: !walls;
    words := !words +. m.words;
    q_cur := List.nth outputs 0;
    cnt_cur := List.nth outputs 3;
    for c = 0 to z - 1 do
      samples.(c).(it) <- Tensor.slice_row !q_cur c
    done
  done;
  {
    samples;
    traj_walls = List.rev !walls;
    draws_words = !words;
    useful_grads = Instrument.prim_useful inst ~name:"grad";
    issued_grads = Instrument.prim_issued inst ~name:"grad";
    draws_steps = Instrument.blocks_executed inst;
  }

(* Per coordinate, ESS summed over chains; the minimum over coordinates. *)
let min_ess samples =
  let dim = Tensor.numel samples.(0).(0) in
  let per_coord d =
    Array.fold_left (fun acc chain -> acc +. Diagnostics.ess (Diagnostics.column chain d)) 0. samples
  in
  List.fold_left min infinity (List.init dim per_coord)

let max_split_rhat samples =
  let dim = Tensor.numel samples.(0).(0) in
  List.fold_left max 0.
    (List.init dim (fun d ->
         Diagnostics.split_rhat (Array.map (fun chain -> Diagnostics.column chain d) samples)))

(* ---------- moments arm ---------- *)

type moments = {
  moments_wall : float;
  moments_words : float;
  m_useful : int;
  m_issued : int;
  m_steps : int;
  outputs : Tensor.t list;
}

let moments_arm ?sink s ~n_traj =
  let inst = Instrument.create () in
  let config = { Pc_vm.default_config with instrument = Some inst; sink } in
  let batch =
    Nuts_dsl.inputs ~minv:s.warm.Warmup.minv ~q0:s.warm.Warmup.q ~eps:s.warm.Warmup.eps
      ~n_iter:n_traj ~n_burn:0 ~batch:chains ()
  in
  let outputs, m =
    Pb_meter.measure (fun () ->
        Pb_trace.span "vm.run_pc" (fun () -> Autobatch.run_pc ~config s.compiled ~batch))
  in
  {
    moments_wall = m.wall_s;
    moments_words = m.words;
    m_useful = Instrument.prim_useful inst ~name:"grad";
    m_issued = Instrument.prim_issued inst ~name:"grad";
    m_steps = Instrument.blocks_executed inst;
    outputs;
  }

(* ---------- single-chain reference ---------- *)

type single = { single_wall : float; single_grads : int; single_samples : Tensor.t array }

let single_chain s ~n_traj =
  let counted, n = Model.with_grad_counter s.model in
  let r, m =
    Pb_meter.measure (fun () ->
        Pb_trace.span "mcmc.sample_chain" (fun () ->
            Nuts.sample_chain s.cfg ~model:counted ~key:s.key ~member:0 ~q0:s.warm.Warmup.q
              ~n_iter:n_traj))
  in
  { single_wall = m.wall_s; single_grads = !n; single_samples = r.Nuts.samples }

(* ---------- checks ---------- *)

let chains_equal a b =
  Array.length a = Array.length b && Array.for_all2 Pb_control.bits_equal a b

(* How many of the chains differ in any bit between two sample sets. *)
let differing_chains (a : Tensor.t array array) (b : Tensor.t array array) =
  List.length (List.filter (fun c -> not (chains_equal a.(c) b.(c))) (List.init chains Fun.id))

(* The staged pipeline must reproduce Batched_sampler's [`Samples] mode
   bitwise when both use one seed for warmup and draws (the warmup seed);
   compared on four trajectories, untimed. Returns the chains that
   differ. *)
let batched_sampler_mismatches spec =
  let k = 4 in
  let d = draws_arm (setup_once spec) ~n_traj:k in
  let summary =
    Batched_sampler.run ~seed:warmup_seed ~collect:`Samples ~model:(spec.build ()) ~chains
      ~n_iter:k ~n_burn:0 ()
  in
  match summary.Batched_sampler.samples with
  | None -> chains
  | Some ref_samples -> differing_chains ref_samples d.samples

(* Every chain of the draws arm must equal the single-chain reference
   sampler run with that chain's member index. *)
let reference_mismatches s (d : draws) =
  let n_traj = Array.length d.samples.(0) in
  let reference =
    Array.init chains (fun c ->
        (Nuts.sample_chain s.cfg ~model:s.model ~key:s.key ~member:c ~q0:s.warm.Warmup.q
           ~n_iter:n_traj)
          .Nuts.samples)
  in
  differing_chains reference d.samples

(* ---------- rounds ---------- *)

(* One round runs every arm once on a model. The reference runs twice,
   right before and right after the moments arm, so the pair brackets it
   in time and a drift of the machine's speed cancels in their ratio. *)
type round = { d : draws; mo : moments; sc : single list }

let round ?sink (spec, s) =
  let d = draws_arm ?sink s ~n_traj:spec.draws_traj in
  let before = single_chain s ~n_traj:spec.single_traj in
  let mo = moments_arm ?sink s ~n_traj:spec.moments_traj in
  let after = single_chain s ~n_traj:spec.single_traj in
  { d; mo; sc = [ before; after ] }

let useful_share used issued = float_of_int used /. float_of_int issued

(* Readouts of one model over its rounds; each timing is the median over
   rounds (per trajectory for the draws arm). *)
type summary = {
  first : round;
  draws_s : float;
  moments_s : float;
  single_s : float;
  speedup : float;
      (** median over rounds of the moments arm's useful gradients per
          second over the reference's, both from the same round *)
}

let summarize rs =
  let first = List.hd rs in
  let per_traj = List.map (fun r -> Array.of_list r.d.traj_walls) rs in
  {
    first;
    draws_s =
      Pb_meter.sum
        (List.init (List.length first.d.traj_walls) (fun it ->
             Pb_meter.median (List.map (fun w -> w.(it)) per_traj)));
    moments_s = Pb_meter.median (List.map (fun r -> r.mo.moments_wall) rs);
    single_s = Pb_meter.median (List.concat_map (fun r -> List.map (fun x -> x.single_wall) r.sc) rs);
    speedup =
      (let single_grads = float_of_int (List.hd first.sc).single_grads in
       let round_single r = Pb_meter.sum (List.map (fun x -> x.single_wall) r.sc) /. 2. in
       Pb_meter.paired_ratio
         (List.map (fun r -> float_of_int r.mo.m_useful *. round_single r) rs)
         (List.map (fun r -> single_grads *. r.mo.moments_wall) rs));
  }

let setup_all ~seed =
  List.map (fun spec -> (spec, setup_once ~sampler_seed:(Int64.of_int seed) spec)) specs

let run ~seed ~seconds =
  let prepared = setup_all ~seed in
  (* Four fresh set-ups after each round, each from a collected heap, so
     the set-up median spans the whole run as the other timings do. The
     first set-up is not timed, as in [Pb_control.rounds_with_setups]. *)
  let setup_times = ref [] and heap_mb = ref 0. in
  let rounds =
    Pb_meter.repeat ~min_reps:3 ~min_s:seconds (fun () ->
        let r = List.map round prepared in
        if !heap_mb = 0. then heap_mb := peak_heap_mb ();
        for _ = 1 to 4 do
          Gc.full_major ();
          let _, s = List.hd (Pb_meter.scaled_setups 1 (fun () -> setup_all ~seed)) in
          setup_times := s :: !setup_times
        done;
        r)
  in
  let setup_s = Pb_meter.median !setup_times in
  let by_model = List.mapi (fun i p -> (p, List.map (fun r -> List.nth r i) rounds)) prepared in
  let attempted = ref 0 and failed = ref 0 in
  let check n bad =
    attempted := !attempted + n;
    failed := !failed + bad
  in
  let summaries =
    List.map
      (fun ((spec, s), rs) ->
        let sm = summarize rs in
        let first = sm.first in
        (* Every round repeats the first bit for bit. *)
        List.iter
          (fun r ->
            check chains (differing_chains r.d.samples first.d.samples);
            check 1 (if List.for_all2 Pb_control.bits_equal r.mo.outputs first.mo.outputs then 0 else 1))
          (List.tl rs);
        check chains (batched_sampler_mismatches spec);
        check chains (reference_mismatches s first.d);
        (spec, s, sm))
      by_model
  in
  let geo f = Pb_meter.geomean (List.map f summaries) in
  let grads_per_s = geo (fun (_, _, sm) -> float_of_int sm.first.mo.m_useful /. sm.moments_s) in
  let single_grads (sm : summary) = (List.hd sm.first.sc).single_grads in
  let single_per_s = geo (fun (_, _, sm) -> float_of_int (single_grads sm) /. sm.single_s) in
  let ess_per_s = geo (fun (_, _, sm) -> min_ess sm.first.d.samples /. sm.draws_s) in
  let single_ess (sm : summary) = min_ess [| (List.hd sm.first.sc).single_samples |] in
  let single_ess_per_s = geo (fun (_, _, sm) -> single_ess sm /. sm.single_s) in
  let util = geo (fun (_, _, sm) -> useful_share sm.first.mo.m_useful sm.first.mo.m_issued) in
  let model_line (spec, s, sm) =
    let f = sm.first in
    Printf.sprintf "  %-13s warmup %.3fs  draws %.3fs util %.3f ess %.1f split-rhat %.3f  moments %.3fs util \
       %.3f grads %d  single %.4fs grads %d ess %.1f"
      spec.label s.warmup_s sm.draws_s
      (useful_share f.d.useful_grads f.d.issued_grads)
      (min_ess f.d.samples) (max_split_rhat f.d.samples) sm.moments_s
      (useful_share f.mo.m_useful f.mo.m_issued)
      f.mo.m_useful sm.single_s (single_grads sm) (single_ess sm)
  in
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "peak_heap_mb" "MB" !heap_mb;
        m "speedup_x" "x" (geo (fun (_, _, sm) -> sm.speedup));
        m "useful_ratio" "ratio" util;
      ];
    lines =
      (Printf.sprintf "nuts: %d chains, %d rounds, %d checks, %d mismatches" chains (List.length rounds)
         !attempted !failed
      :: List.map model_line summaries)
      @ [
          Printf.sprintf "nuts.ess_per_s %.6g 1/s" ess_per_s;
          Printf.sprintf "nuts.grads_per_s %.6g 1/s" grads_per_s;
          Printf.sprintf "nuts.single_chain_ess_per_s %.6g 1/s" single_ess_per_s;
          Printf.sprintf "nuts.single_chain_grads_per_s %.6g 1/s" single_per_s;
        ];
  }

(* ---------- traced run ---------- *)

type traced_model = {
  spec : model_spec;
  setups : setup list;
  plain : round list;  (** untraced rounds, for the timings *)
  sm : summary;
  traced : round;  (** one round with the sink attached *)
  tot : Pb_trace.totals;
}

let traced ~seed ~seconds =
  let budget = seconds /. float_of_int (List.length specs) in
  let per_model =
    List.map
      (fun spec ->
        let setups = List.init 5 (fun _ -> setup_once ~sampler_seed:(Int64.of_int seed) spec) in
        let s = List.nth setups 4 in
        let plain =
          Pb_trace.suspended (fun () ->
              Pb_meter.repeat ~min_reps:1 ~min_s:budget (fun () -> round (spec, s)))
        in
        let traced, tot =
          Pb_trace.counting (fun () -> round ?sink:(Pb_trace.sink ()) (spec, s))
        in
        { spec; setups; plain; sm = summarize plain; traced; tot })
      specs
  in
  (* Attaching the sink must not change a single draw. *)
  let perturbed =
    List.fold_left
      (fun acc t -> acc + differing_chains t.sm.first.d.samples t.traced.d.samples)
      0 per_model
  in
  let total f = Pb_meter.sum (List.map f per_model) in
  let itotal f = total (fun x -> float_of_int (f x)) in
  let med_setup f t = Pb_meter.median (List.map f t.setups) in
  let first t = t.sm.first in
  let steps = itotal (fun t -> (first t).d.draws_steps + (first t).mo.m_steps) in
  let traj t =
    let walls = List.concat_map (fun r -> r.d.traj_walls) t.plain in
    let q x = 1e3 *. Pb_meter.quantile walls x in
    [
      ("mcmc.trajectory_ms_p50." ^ t.spec.label, q 0.5);
      ("mcmc.trajectory_ms_p90." ^ t.spec.label, q 0.9);
      ("mcmc.trajectories." ^ t.spec.label, float_of_int (List.length walls));
    ]
  in
  ( chains * List.length per_model,
    perturbed,
    [
      ("core.compile_ms", 1e3 *. total (med_setup (fun s -> s.compile_s)));
      ("vm.supersteps", steps);
      ("vm.pc_us_per_superstep", 1e6 *. total (fun t -> t.sm.draws_s +. t.sm.moments_s) /. steps);
      ( "vm.pc_alloc_words_per_superstep",
        total (fun t -> (first t).d.draws_words +. (first t).mo.moments_words) /. steps );
      ("vm.lane_utilization", total (fun t -> t.tot.Pb_trace.t_active) /. total (fun t -> t.tot.Pb_trace.t_live));
      ("mcmc.warmup_s", total (med_setup (fun s -> s.warmup_s)));
      ( "mcmc.grad_lane_utilization.draws",
        itotal (fun t -> (first t).d.useful_grads) /. itotal (fun t -> (first t).d.issued_grads) );
      ( "mcmc.grad_lane_utilization.moments",
        itotal (fun t -> (first t).mo.m_useful) /. itotal (fun t -> (first t).mo.m_issued) );
      ( "mcmc.alloc_words_per_grad",
        total (fun t -> (first t).mo.moments_words) /. itotal (fun t -> (first t).mo.m_useful) );
      ( "obs.trace_overhead_ratio",
        total (fun t -> draws_wall t.traced.d +. t.traced.mo.moments_wall)
        /. total (fun t -> t.sm.draws_s +. t.sm.moments_s) );
    ]
    @ List.concat_map traj per_model )
