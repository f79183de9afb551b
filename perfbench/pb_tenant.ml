(* The [tenant] workload: the Tenant_load bursty Zipf trace served by
   Tenant_server on a 4-device mesh, 8 lanes per shard, with periodic
   checkpoints and one device kill, and no FIFO arm. It is the only
   workload that exercises lane refill/retire/preempt, admission, the
   autoscaling pool and checkpoint capture. Its programs are tiny and its
   program cache stays hot, so [tensor] and in-run compilation are
   bypassed. *)

open Pb_report

let n_requests = 20_000
let trace_seed seed = Splitmix.hash2 0x7E47L (Int64.of_int seed)

(* Set-up: compile the trace's program family, as the program cache does
   on its cold misses. *)
let setup_once () =
  let cache = Prog_cache.create ~capacity:8 () in
  for k = 0 to 7 do
    Pb_trace.span ~req:k "core.compile" (fun () ->
        ignore
          (Prog_cache.find_or_compile cache ~input_shapes:Tenant_load.element_shapes
             (Tenant_load.family_program ~k)))
  done

let serve ?sink ~seed ~n () =
  Pb_trace.span "tenant.serve" (fun () ->
      Tenant_load.run ~seed:(trace_seed seed) ~n_requests:n ~baseline:false ~verify:false
        ~keep_outputs:true ?sink ())

(* Solo replay of every completion: the correctness check and, timed,
   the one-request-at-a-time reference. Returns the mismatches and the
   replay's wall seconds. *)
let replay (r : Tenant_load.result) =
  let completions = r.Tenant_load.fair.Tenant_load.stats.Tenant_server.completions in
  let bad, s =
    Pb_meter.measure (fun () ->
        Pb_trace.span "tenant.solo_replay" (fun () ->
            List.fold_left
              (fun bad c -> if Tenant_load.matches_solo c then bad else bad + 1)
              0 completions))
  in
  (bad, s.wall_s)

let latency_bound_count (r : Tenant_load.result) =
  List.length
    (List.filter
       (fun c -> Admission.item_slo c.Tenant_server.c_item = Tenant.Latency_bound)
       r.Tenant_load.fair.Tenant_load.stats.Tenant_server.completions)

(* The deterministic readout of one serving run; every repetition of the
   same trace must reproduce it exactly. *)
let readout (r : Tenant_load.result) =
  let a = r.Tenant_load.fair in
  ( a.Tenant_load.completed,
    a.Tenant_load.throttled + a.Tenant_load.rejected + a.Tenant_load.shed,
    a.Tenant_load.stats.Tenant_server.rounds,
    a.Tenant_load.p50_latency,
    a.Tenant_load.p99_latency )

(* A round serves the trace, then replays its completions solo. Every
   round serves the same trace, so from the second round on a serving pass
   is bracketed by two identical replays, the previous round's and its
   own; their mean over the pass is the speed-up, and a drift of the
   machine's speed cancels in it. *)
let run ~seed ~seconds =
  (* Ten set-ups after each round, from a collected heap, so the set-up
     median spans the whole run as the other timings do. *)
  let setup_times = ref [] in
  let first = ref None and heap_mb = ref 0. in
  (* Operations: every completion's solo check, and from the second round
     on, the check that the round repeated the first. *)
  let attempted = ref 0 and unstable = ref 0 and mismatches = ref 0 in
  let rounds =
    Pb_meter.repeat ~min_reps:3 ~min_s:seconds (fun () ->
        let r, s = Pb_meter.measure (fun () -> serve ~seed ~n:n_requests ()) in
        (match !first with
        | None ->
          first := Some r;
          heap_mb := peak_heap_mb ()
        | Some r0 ->
          incr attempted;
          if readout r <> readout r0 then incr unstable);
        let b, solo_s = replay r in
        attempted := !attempted + r.Tenant_load.fair.Tenant_load.completed;
        mismatches := !mismatches + b;
        Gc.full_major ();
        setup_times := List.map snd (Pb_meter.scaled_setups 10 setup_once) @ !setup_times;
        (s.wall_s, solo_s))
  in
  let setup_s = Pb_meter.median !setup_times in
  let r = Option.get !first in
  let a = r.Tenant_load.fair in
  let completed = a.Tenant_load.completed in
  let refused = a.Tenant_load.throttled + a.Tenant_load.rejected + a.Tenant_load.shed in
  let serve_s = List.map fst rounds and solo_s = List.map snd rounds in
  let rec brackets = function
    | s0 :: (s1 :: _ as rest) -> ((s0 +. s1) /. 2.) :: brackets rest
    | _ -> []
  in
  let speedup = Pb_meter.paired_ratio (brackets solo_s) (List.tl serve_s) in
  let per_s secs = float_of_int completed /. secs in
  {
    attempted = !attempted;
    failed = !unstable + !mismatches;
    correct = !unstable + !mismatches = 0;
    metrics =
      [
        m "setup_s" "s" setup_s;
        m "peak_heap_mb" "MB" !heap_mb;
        m "speedup_x" "x" speedup;
        m "useful_ratio" "ratio" (float_of_int completed /. float_of_int n_requests);
      ];
    lines =
      [
        Printf.sprintf "tenant: %d offered, %d completed, %d refused (throttled %d, rejected %d, shed %d), \
           %d rounds, %d not repeating the first, %d solo mismatches"
          n_requests completed refused a.Tenant_load.throttled a.Tenant_load.rejected
          a.Tenant_load.shed (List.length rounds) !unstable !mismatches;
        Printf.sprintf "tenant.requests_per_s %.6g 1/s" (per_s (Pb_meter.median serve_s));
        Printf.sprintf "tenant.solo_requests_per_s %.6g 1/s" (per_s (Pb_meter.median solo_s));
        Printf.sprintf "tenant.completed_ratio %.6g" (float_of_int completed /. float_of_int n_requests);
        Printf.sprintf "tenant.latency_bound_p50_s %.6g s (simulated, n=%d)" a.Tenant_load.p50_latency
          (latency_bound_count r);
        Printf.sprintf "tenant.latency_bound_p99_s %.6g s (simulated, n=%d)" a.Tenant_load.p99_latency
          (latency_bound_count r);
      ];
  }

(* ---------- traced run ---------- *)

let traced ~seed ~seconds =
  let compile_s =
    Pb_meter.median (List.init 15 (fun _ -> (snd (Pb_meter.measure setup_once)).Pb_meter.wall_s))
  in
  let plain_runs =
    Pb_trace.suspended (fun () ->
        Pb_meter.repeat ~min_reps:1 ~min_s:seconds (fun () ->
            Pb_meter.measure (fun () -> serve ~seed ~n:n_requests ())))
  in
  let plain = fst (List.hd plain_runs) in
  (* Median wall, words of the first pass (allocation repeats). *)
  let ps =
    {
      (snd (List.hd plain_runs)) with
      Pb_meter.wall_s = Pb_meter.median (List.map (fun (_, s) -> s.Pb_meter.wall_s) plain_runs);
    }
  in
  let (traced, ts), tot =
    Pb_trace.counting (fun () ->
        Pb_meter.measure (fun () -> serve ?sink:(Pb_trace.sink ()) ~seed ~n:n_requests ()))
  in
  let a = plain.Tenant_load.fair in
  let st = a.Tenant_load.stats in
  let rounds = float_of_int st.Tenant_server.rounds in
  (* Attaching the sink must not change what is served. *)
  let same = readout traced = readout plain in
  ( 1,
    (if same then 0 else 1),
  [
    ("core.compile_ms", 1e3 *. compile_s);
    ("vm.supersteps", float_of_int tot.Pb_trace.t_steps);
    ("vm.pc_us_per_superstep", 1e6 *. tot.Pb_trace.t_step_wall /. float_of_int tot.Pb_trace.t_steps);
    ("vm.lane_utilization", tot.Pb_trace.t_active /. tot.Pb_trace.t_live);
    ("tenant.rounds", rounds);
    ("tenant.us_per_round", 1e6 *. ps.wall_s /. rounds);
    ("tenant.alloc_words_per_request", ps.words /. float_of_int n_requests);
    ("tenant.superstep_wall_share", tot.Pb_trace.t_step_wall /. ts.wall_s);
    ("tenant.preemptions", float_of_int st.Tenant_server.preemptions);
    ("tenant.checkpoints", float_of_int st.Tenant_server.checkpoints);
    ("tenant.restores", float_of_int st.Tenant_server.restores);
    ("tenant.wasted_rounds", float_of_int st.Tenant_server.wasted_rounds);
    ("tenant.prog_cache_hit_ratio", plain.Tenant_load.hit_rate);
    ("tenant.lane_utilization", tot.Pb_trace.t_active /. tot.Pb_trace.t_total);
    ("tenant.latency_bound_p50_s", a.Tenant_load.p50_latency);
    ("tenant.latency_bound_p99_s", a.Tenant_load.p99_latency);
    ("tenant.latency_bound_samples", float_of_int (latency_bound_count plain));
    ("obs.trace_overhead_ratio", ts.wall_s /. ps.wall_s);
  ] )
