(* The benchmark's own test, on small instances of each workload: two
   runs with one seed give identical deterministic readouts (supersteps,
   ESS, completions, allocated words, simulated latencies), and another
   seed changes the generated inputs. *)

let control ~seed =
  let s = Pb_control.setup_once ~seed ~z:64 in
  Array.to_list s.Pb_control.prepared
  |> List.concat_map (fun (p : Pb_control.prepared) ->
         let c = Pb_control.census p in
         let _, m = Pb_meter.measure (fun () -> Pb_control.exec Pb_control.Pc p) in
         let n = p.entry.Pb_corpus.name in
         [
           (n ^ ".supersteps", float_of_int c.Pb_control.steps);
           (n ^ ".active", c.Pb_control.active);
           (n ^ ".pc_words", m.Pb_meter.words);
         ])

let nuts ~seed =
  List.concat_map
    (fun (spec : Pb_nuts.model_spec) ->
      let s = Pb_nuts.setup_once ~sampler_seed:(Int64.of_int seed) spec in
      let d = Pb_nuts.draws_arm s ~n_traj:4 in
      let mo = Pb_nuts.moments_arm s ~n_traj:4 in
      let l = spec.Pb_nuts.label in
      [
        (l ^ ".draws_supersteps", float_of_int d.Pb_nuts.draws_steps);
        (l ^ ".ess", Pb_nuts.min_ess d.Pb_nuts.samples);
        (l ^ ".draws_words", d.Pb_nuts.draws_words);
        (l ^ ".moments_useful_grads", float_of_int mo.Pb_nuts.m_useful);
        (l ^ ".moments_words", mo.Pb_nuts.moments_words);
      ])
    Pb_nuts.specs

let tenant ~seed =
  let r, m = Pb_meter.measure (fun () -> Pb_tenant.serve ~seed ~n:400 ()) in
  let completed, refused, rounds, p50, p99 = Pb_tenant.readout r in
  [
    ("completed", float_of_int completed);
    ("refused", float_of_int refused);
    ("rounds", float_of_int rounds);
    ("latency_bound_p50_s", p50);
    ("latency_bound_p99_s", p99);
    ("words", m.Pb_meter.words);
  ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let inputs_differ ~seed1 ~seed2 =
  List.mapi
    (fun i e ->
      let a = Pb_corpus.inputs ~seed:seed1 ~z:64 i e and b = Pb_corpus.inputs ~seed:seed2 ~z:64 i e in
      (e.Pb_corpus.name, not (List.for_all2 Pb_control.bits_equal a b)))
    (Pb_corpus.load ())

let run () =
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        print_endline ("FAIL " ^ s))
      fmt
  in
  List.iter
    (fun (workload, readouts) ->
      (* The first pass warms lazily built tables, so it is not compared. *)
      ignore (readouts ~seed:1);
      let a = readouts ~seed:1 and b = readouts ~seed:1 and c = readouts ~seed:2 in
      List.iter2
        (fun (name, x) (_, y) ->
          if not (same_bits x y) then fail "%s.%s: %.17g then %.17g with one seed" workload name x y)
        a b;
      if List.for_all2 (fun (_, x) (_, y) -> same_bits x y) a c then
        fail "%s: seeds 1 and 2 give the same readouts" workload;
      Printf.printf "%s: %d readouts repeat for one seed\n" workload (List.length a))
    [ ("control", control); ("nuts", nuts); ("tenant", tenant) ];
  List.iter
    (fun (name, differ) -> if not differ then fail "control.%s: inputs ignore the seed" name)
    (inputs_differ ~seed1:1 ~seed2:2);
  print_endline (if !ok then "self-check passed" else "self-check FAILED");
  !ok
