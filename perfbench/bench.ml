(* Entry point. See README.md for the workloads and metrics.

     bench.exe --workload control|nuts|tenant --seed N --seconds S --trace 0|1
     bench.exe --self-check

   The last line of standard output is the JSON result. With --trace 1
   the spans and stamped events are also written to
   perfbench/out/trace-<workload>-<seed>.json. *)

(* Every per-layer metric, in BENCHMARK.json order. A workload that
   bypasses a layer reports 0 for it. *)
let per_layer =
  [
    ("core.compile_ms", "ms");
    ("vm.jit_precompile_ms", "ms");
    ("vm.supersteps", "count");
    ("vm.pc_us_per_superstep_z1", "us");
    ("vm.jit_us_per_superstep_z1", "us");
    ("vm.local_us_per_step_z1", "us");
    ("vm.pc_us_per_superstep", "us");
    ("vm.jit_us_per_superstep", "us");
    ("vm.pc_alloc_words_per_superstep", "words");
    ("vm.jit_alloc_words_per_superstep", "words");
    ("vm.lane_utilization", "ratio");
    ("vm.unbatched_us_per_member", "us");
    ("tensor.add_ns_per_elem", "ns");
    ("tensor.add_broadcast_ns_per_elem", "ns");
    ("tensor.matmul_gflops", "GFLOP/s");
    ("tensor.gather_rows_gbps", "GB/s");
    ("tensor.blit_rows_masked_gbps", "GB/s");
    ("tensor.alloc_words_per_call", "words");
    ("models.grad_batch_us.logistic", "us");
    ("models.grad_batch_us.eight_schools", "us");
    ("mcmc.warmup_s", "s");
    ("mcmc.grad_lane_utilization.draws", "ratio");
    ("mcmc.grad_lane_utilization.moments", "ratio");
    ("mcmc.trajectory_ms_p50.logistic", "ms");
    ("mcmc.trajectory_ms_p90.logistic", "ms");
    ("mcmc.trajectories.logistic", "count");
    ("mcmc.trajectory_ms_p50.eight_schools", "ms");
    ("mcmc.trajectory_ms_p90.eight_schools", "ms");
    ("mcmc.trajectories.eight_schools", "count");
    ("mcmc.alloc_words_per_grad", "words");
    ("tenant.rounds", "count");
    ("tenant.us_per_round", "us");
    ("tenant.alloc_words_per_request", "words");
    ("tenant.superstep_wall_share", "ratio");
    ("tenant.preemptions", "count");
    ("tenant.checkpoints", "count");
    ("tenant.restores", "count");
    ("tenant.wasted_rounds", "count");
    ("tenant.prog_cache_hit_ratio", "ratio");
    ("tenant.lane_utilization", "ratio");
    ("tenant.latency_bound_p50_s", "s");
    ("tenant.latency_bound_p99_s", "s");
    ("tenant.latency_bound_samples", "count");
    ("obs.trace_overhead_ratio", "ratio");
  ]

(* The tensor and model-gradient replays, as per-layer metrics plus
   report lines with their quartiles. *)
let replays ~seed =
  let tensor = Pb_replay.run (Pb_replay.kernels ~seed) in
  let models = Pb_replay.run (Pb_replay.model_kernels ~seed) in
  let find name = List.find (fun r -> r.Pb_replay.kname = name) (tensor @ models) in
  let med name = Pb_meter.median (find name).Pb_replay.per_call_s in
  let per_elem name = 1e9 *. med name /. (find name).Pb_replay.kwork in
  let giga_per_s name = (find name).Pb_replay.kwork /. med name /. 1e9 in
  let metrics =
    [
      ("tensor.add_ns_per_elem", per_elem "add");
      ("tensor.add_broadcast_ns_per_elem", per_elem "add_broadcast");
      ("tensor.matmul_gflops", giga_per_s "matmul");
      ("tensor.gather_rows_gbps", giga_per_s "gather_rows");
      ("tensor.blit_rows_masked_gbps", giga_per_s "blit_rows_masked");
      ( "tensor.alloc_words_per_call",
        Pb_meter.median (List.map (fun r -> r.Pb_replay.words_per_call) tensor) );
      ("models.grad_batch_us.logistic", 1e6 *. med "grad_batch.logistic");
      ("models.grad_batch_us.eight_schools", 1e6 *. med "grad_batch.eight_schools");
    ]
  in
  let lines =
    List.map
      (fun r ->
        let q = Pb_replay.quartiles r in
        Printf.sprintf "  replay %-26s per call q1 %.4gus median %.4gus q3 %.4gus  %.4g words"
          r.Pb_replay.kname (1e6 *. q.(0)) (1e6 *. q.(1)) (1e6 *. q.(2))
          r.Pb_replay.words_per_call)
      (tensor @ models)
  in
  (metrics, lines)

let run_traced ~workload ~seed ~seconds =
  let recorder = Pb_trace.install ~workload in
  let attempted, failed, layer =
    match workload with
    | "control" -> Pb_control.traced ~seed ~seconds
    | "nuts" -> Pb_nuts.traced ~seed ~seconds
    | _ -> Pb_tenant.traced ~seed ~seconds
  in
  let replay, replay_lines = replays ~seed in
  Pb_trace.uninstall ();
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
  Pb_trace.write recorder ~seed ~path;
  let values = layer @ replay in
  let metrics =
    List.map
      (fun (name, unit_) ->
        Pb_report.m name unit_ (Option.value ~default:0. (List.assoc_opt name values)))
      per_layer
  in
  {
    Pb_report.attempted;
    failed;
    correct = failed = 0;
    metrics;
    lines =
      (Printf.sprintf "%s traced run, spans and events in %s" workload path :: replay_lines)
      @ List.map
          (fun x -> Printf.sprintf "%s %.6g %s" x.Pb_report.name x.Pb_report.value x.Pb_report.unit_)
          metrics;
  }

let usage () =
  prerr_endline
    "usage: bench.exe --workload control|nuts|tenant --seed N --seconds S --trace 0|1\n\
    \       bench.exe --self-check";
  exit 2

let () =
  let rec parse acc = function
    | [] -> acc
    | "--self-check" :: rest -> parse (("self-check", "") :: acc) rest
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] (List.tl (Array.to_list Sys.argv)) in
  let int k =
    match Option.bind (List.assoc_opt k opts) int_of_string_opt with
    | Some n -> n
    | None -> usage ()
  in
  if List.mem_assoc "self-check" opts then exit (if Pb_selfcheck.run () then 0 else 1);
  let workload = Option.value ~default:"" (List.assoc_opt "workload" opts) in
  if not (List.mem workload [ "control"; "nuts"; "tenant" ]) then usage ();
  let seed = int "seed" and seconds = float_of_int (int "seconds") and trace = int "trace" in
  if seconds <= 0. || (trace <> 0 && trace <> 1) then usage ();
  let o =
    if trace = 1 then run_traced ~workload ~seed ~seconds
    else
      match workload with
      | "control" -> Pb_control.run ~seed ~seconds
      | "nuts" -> Pb_nuts.run ~seed ~seconds
      | _ -> Pb_tenant.run ~seed ~seconds
  in
  List.iter print_endline o.Pb_report.lines;
  match List.find_opt (fun x -> not (Float.is_finite x.Pb_report.value)) o.Pb_report.metrics with
  | Some x ->
    Printf.eprintf "metric %s is not finite\n" x.Pb_report.name;
    exit 1
  | None -> print_endline (Pb_report.result_line o)
