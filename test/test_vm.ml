(* Unit tests for the runtime layer: scheduling, instrumentation, stacked
   storage, and VM-specific behaviours (error handling, input immutability,
   cost accounting hooks). *)

let t = Alcotest.test_case

(* ---------- Sched ---------- *)

let test_sched_earliest () =
  Alcotest.(check (option int)) "first nonzero" (Some 1)
    (Sched_policy.pick Sched_policy.Earliest ~last:5 ~counts:[| 0; 3; 1 |]);
  Alcotest.(check (option int)) "none" None
    (Sched_policy.pick Sched_policy.Earliest ~last:0 ~counts:[| 0; 0 |])

let test_sched_most_active () =
  Alcotest.(check (option int)) "argmax" (Some 1)
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 2; 5; 3 |]);
  Alcotest.(check (option int)) "tie -> earliest" (Some 0)
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 5; 5; 3 |]);
  Alcotest.(check (option int)) "none" None
    (Sched_policy.pick Sched_policy.Most_active ~last:0 ~counts:[| 0; 0; 0 |])

let test_sched_round_robin () =
  let counts = [| 1; 1; 0; 1 |] in
  Alcotest.(check (option int)) "after 0 -> 1" (Some 1)
    (Sched_policy.pick Sched_policy.Round_robin ~last:0 ~counts);
  Alcotest.(check (option int)) "after 1 skips 2 -> 3" (Some 3)
    (Sched_policy.pick Sched_policy.Round_robin ~last:1 ~counts);
  Alcotest.(check (option int)) "wraps" (Some 0)
    (Sched_policy.pick Sched_policy.Round_robin ~last:3 ~counts);
  Alcotest.(check (option int)) "initial -1" (Some 0)
    (Sched_policy.pick Sched_policy.Round_robin ~last:(-1) ~counts)

let prop_sched_picks_nonzero =
  QCheck.Test.make ~name:"sched picks only runnable blocks" ~count:300
    (QCheck.triple
       (QCheck.oneofl Sched_policy.all)
       (QCheck.int_range (-1) 10)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) (QCheck.int_bound 5)))
    (fun (policy, last, counts) ->
      let counts = Array.of_list counts in
      match Sched_policy.pick policy ~last ~counts with
      | Some i -> counts.(i) > 0
      | None -> Array.for_all (fun c -> c = 0) counts)

(* ---------- Instrument ---------- *)

let test_instrument () =
  let ins = Instrument.create () in
  Instrument.record_prim ins ~name:"grad" ~useful:3 ~issued:8;
  Instrument.record_prim ins ~name:"grad" ~useful:5 ~issued:8;
  Alcotest.(check (option (float 1e-12))) "utilization" (Some 0.5)
    (Instrument.utilization ins ~name:"grad");
  Alcotest.(check (option (float 1e-12))) "unknown prim" None
    (Instrument.utilization ins ~name:"mul");
  let occupancy ~step ~block ~active =
    Obs_sink.Occupancy { shard = 0; step; block; active; live = 4; total = 4 }
  in
  Instrument.observe_occupancy ins (occupancy ~step:1 ~block:0 ~active:2);
  Instrument.observe_occupancy ins (occupancy ~step:2 ~block:1 ~active:4);
  Instrument.observe_occupancy ins (occupancy ~step:3 ~block:1 ~active:3);
  (* Events other than Occupancy count nothing. *)
  Instrument.observe_occupancy ins (Obs_sink.Step { shard = 0; step = 4; block = 0 });
  Alcotest.(check int) "blocks" 3 (Instrument.blocks_executed ins);
  Alcotest.(check (float 1e-12)) "overall" 0.75 (Instrument.overall_utilization ins);
  Alcotest.(check (list (triple int int int))) "per-block profile"
    [ (1, 2, 7); (0, 1, 2) ] (Instrument.block_stats ins);
  Alcotest.(check int) "live samples" 3 (Instrument.live_samples ins);
  Instrument.record_push ins ~lanes:3;
  Instrument.record_pop ins ~lanes:3;
  Instrument.record_depth ins 5;
  Instrument.record_depth ins 2;
  Alcotest.(check int) "pushes" 1 (Instrument.pushes ins);
  Alcotest.(check int) "max depth keeps max" 5 (Instrument.max_depth ins);
  Instrument.reset ins;
  Alcotest.(check int) "reset" 0 (Instrument.blocks_executed ins);
  Alcotest.(check (float 0.)) "reset utilization" 1. (Instrument.overall_utilization ins)

(* ---------- Stacked ---------- *)

let test_stacked_basic () =
  let s = Stacked.create ~z:3 ~elem:[| 2 |] () in
  Alcotest.(check (array int)) "top shape" [| 3; 2 |] (Tensor.shape (Stacked.top s));
  let all = [| true; true; true |] in
  Stacked.write_top_masked s ~mask:all
    (Tensor.create [| 3; 2 |] [| 1.; 1.; 2.; 2.; 3.; 3. |]);
  (* Save member 1 only, then overwrite everyone. *)
  Stacked.push s ~mask:[| false; true; false |];
  Stacked.write_top_masked s ~mask:all (Tensor.full [| 3; 2 |] 9.);
  Alcotest.(check int) "depth member 1" 1 (Stacked.depth s 1);
  Alcotest.(check int) "depth member 0" 0 (Stacked.depth s 0);
  Stacked.pop s ~mask:[| false; true; false |];
  let top = Stacked.top s in
  Alcotest.(check (float 0.)) "member 1 restored" 2. (Tensor.get top [| 1; 0 |]);
  Alcotest.(check (float 0.)) "member 0 untouched" 9. (Tensor.get top [| 0; 0 |])

let test_stacked_growth () =
  let s = Stacked.create ~z:2 ~elem:[||] ~initial_depth:1 () in
  let all = [| true; true |] in
  for i = 1 to 20 do
    Stacked.write_top_masked s ~mask:all (Tensor.full [| 2 |] (float_of_int i));
    Stacked.push s ~mask:all
  done;
  Alcotest.(check bool) "capacity grew" true (Stacked.capacity s >= 20);
  Alcotest.(check int) "max depth" 20 (Stacked.max_depth s);
  (* Pop everything back in LIFO order. *)
  for i = 20 downto 1 do
    Stacked.pop s ~mask:all;
    Alcotest.(check (float 0.)) "LIFO restore" (float_of_int i)
      (Tensor.get (Stacked.top s) [| 0 |])
  done

let test_stacked_underflow () =
  let s = Stacked.create ~z:1 ~elem:[||] () in
  Alcotest.check_raises "underflow"
    (Invalid_argument "Stacked.pop: underflow for member 0") (fun () ->
      Stacked.pop s ~mask:[| true |])

let prop_stacked_push_pop_identity =
  QCheck.Test.make ~name:"push;pop is identity on the top" ~count:100
    (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.bool) (fun mask_list ->
      let z = List.length mask_list in
      let mask = Array.of_list mask_list in
      let s = Stacked.create ~z ~elem:[| 2 |] () in
      let v = Tensor.init [| z; 2 |] (fun i -> float_of_int ((i.(0) * 2) + i.(1))) in
      Stacked.write_top_masked s ~mask:(Array.make z true) v;
      let before = Tensor.copy (Stacked.top s) in
      Stacked.push s ~mask;
      Stacked.pop s ~mask;
      Tensor.equal before (Stacked.top s))

(* ---------- VM behaviours ---------- *)

let fib_compiled =
  Autobatch.compile ~input_shapes:[ Shape.scalar ] Test_programs.fib

let test_vm_inputs_not_mutated () =
  (* Regression: the local VM once wrote through to caller tensors. *)
  let inputs = Tensor.of_list [ 5.; 6.; 7. ] in
  let snapshot = Tensor.copy inputs in
  ignore (Autobatch.run_local fib_compiled ~batch:[ inputs ]);
  Alcotest.(check bool) "local VM leaves inputs intact" true
    (Tensor.equal snapshot inputs);
  ignore (Autobatch.run_pc fib_compiled ~batch:[ inputs ]);
  Alcotest.(check bool) "pc VM leaves inputs intact" true (Tensor.equal snapshot inputs)

let test_vm_rerun_same_result () =
  let batch = [ Tensor.of_list [ 8.; 9. ] ] in
  let a = Autobatch.run_pc fib_compiled ~batch in
  let b = Autobatch.run_pc fib_compiled ~batch in
  Alcotest.(check bool) "pc deterministic" true (Tensor.equal (List.hd a) (List.hd b));
  let c = Autobatch.run_local fib_compiled ~batch in
  let d = Autobatch.run_local fib_compiled ~batch in
  Alcotest.(check bool) "local deterministic" true (Tensor.equal (List.hd c) (List.hd d))

let test_vm_bad_inputs () =
  Alcotest.check_raises "local: scalar input"
    (Invalid_argument "Local_vm: inputs must carry a leading batch dimension")
    (fun () -> ignore (Autobatch.run_local fib_compiled ~batch:[ Tensor.scalar 1. ]));
  Alcotest.check_raises "local: no inputs"
    (Invalid_argument "Local_vm: at least one input required") (fun () ->
      ignore (Autobatch.run_local fib_compiled ~batch:[]));
  Alcotest.check_raises "pc: input count"
    (Invalid_argument "Pc_vm: input count mismatch") (fun () ->
      ignore
        (Autobatch.run_pc fib_compiled
           ~batch:[ Tensor.of_list [ 1. ]; Tensor.of_list [ 2. ] ]))

let test_vm_empty_active () =
  Alcotest.check_raises "empty active set"
    (Invalid_argument "Local_vm: initial active set is empty") (fun () ->
      ignore
        (Local_vm.run_active fib_compiled.Autobatch.registry fib_compiled.Autobatch.cfg
           ~batch:[ Tensor.of_list [ 1.; 2. ] ]
           ~active:[| false; false |]))

let test_vm_partial_active () =
  let batch = [ Tensor.of_list [ 3.; 4.; 5. ] ] in
  let out =
    Local_vm.run_active fib_compiled.Autobatch.registry fib_compiled.Autobatch.cfg
      ~batch ~active:[| true; false; true |]
  in
  let data = Tensor.data (List.hd out) in
  Alcotest.(check (float 0.)) "active member 0" 3. data.(0);
  Alcotest.(check (float 0.)) "active member 2" 8. data.(2)

let test_vm_step_limit () =
  let infinite =
    Lang.program ~main:"spin"
      [
        Lang.func "spin" ~params:[ "x" ]
          [
            Lang.while_ (Lang.prim "ge" [ Lang.var "x"; Lang.flt 0. ])
              [ Lang.assign "x" (Lang.prim "add" [ Lang.var "x"; Lang.flt 1. ]) ];
            Lang.return_ [ Lang.var "x" ];
          ];
      ]
  in
  let compiled = Autobatch.compile ~input_shapes:[ Shape.scalar ] infinite in
  let batch = [ Tensor.of_list [ 0. ] ] in
  Alcotest.check_raises "local step limit" Local_vm.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_local
           ~config:{ Local_vm.default_config with max_steps = 100 }
           compiled ~batch));
  Alcotest.check_raises "pc step limit" Pc_vm.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_pc
           ~config:{ Pc_vm.default_config with max_steps = 100 }
           compiled ~batch));
  Alcotest.check_raises "interp step limit" Interp.Step_limit_exceeded (fun () ->
      ignore
        (Autobatch.run_single ~max_steps:100 compiled ~member:0
           ~args:[ Tensor.scalar 0. ]))

let test_vm_engine_accounting () =
  let engine = Engine.create ~device:Device.cpu ~mode:Engine.Eager () in
  let config = { Local_vm.default_config with engine = Some engine } in
  ignore (Autobatch.run_local ~config fib_compiled ~batch:[ Tensor.of_list [ 6. ] ]);
  let c = (Engine.snapshot engine).Engine.at in
  Alcotest.(check bool) "time advanced" true (Engine.elapsed engine > 0.);
  Alcotest.(check bool) "blocks executed" true (c.Engine.Counters.blocks > 0);
  Alcotest.(check bool) "host calls for recursion" true (c.Engine.Counters.host_calls > 0);
  let engine2 = Engine.create ~device:Device.cpu ~mode:Engine.Fused () in
  let config2 = { Pc_vm.default_config with engine = Some engine2 } in
  ignore (Autobatch.run_pc ~config:config2 fib_compiled ~batch:[ Tensor.of_list [ 6. ] ]);
  let c2 = (Engine.snapshot engine2).Engine.at in
  Alcotest.(check int) "pc has no host calls" 0 c2.Engine.Counters.host_calls;
  Alcotest.(check bool) "pc fused launches" true (c2.Engine.Counters.fused_launches > 0)

let test_pc_max_depth_instrumented () =
  let ins = Instrument.create () in
  let config = { Pc_vm.default_config with instrument = Some ins } in
  ignore (Autobatch.run_pc ~config fib_compiled ~batch:[ Tensor.of_list [ 10. ] ]);
  (* fib(10) recursion depth is at least 5 pc frames. *)
  Alcotest.(check bool) "depth recorded" true (Instrument.max_depth ins >= 5);
  Alcotest.(check int) "pushes balance pops" (Instrument.pushes ins)
    (Instrument.pops ins)

(* The fault-injection seam: a sink that raises on a superstep's Step
   aborts it before the Occupancy event reaches anyone, the instrument
   included, so every runtime has counted exactly the steps before it. *)
exception Injected

let test_step_fault_precedes_counting () =
  let batch = [ Tensor.of_list [ 6.; 8. ] ] in
  let occupancies = ref 0 in
  let sink = function
    | Obs_sink.Step { step = 3; _ } -> raise Injected
    | Obs_sink.Occupancy _ -> incr occupancies
    | _ -> ()
  in
  let check name run =
    occupancies := 0;
    let ins = Instrument.create () in
    Alcotest.check_raises name Injected (fun () -> run ins);
    Alcotest.(check (pair int int)) (name ^ ": two steps counted") (2, 2)
      (!occupancies, Instrument.blocks_executed ins)
  in
  check "pc" (fun ins ->
      ignore
        (Autobatch.run_pc
           ~config:{ Pc_vm.default_config with instrument = Some ins; sink = Some sink }
           fib_compiled ~batch));
  check "jit" (fun ins ->
      ignore (Pc_jit.run ~instrument:ins ~sink (Autobatch.jit fib_compiled ~batch:2) ~batch));
  check "local" (fun ins ->
      ignore
        (Autobatch.run_local
           ~config:{ Local_vm.default_config with instrument = Some ins; sink = Some sink }
           fib_compiled ~batch))

let test_pc_shape_change_rejected () =
  (* A program whose variable changes element shape across writes must be
     rejected by the runtime (static shapes are the contract). *)
  let bad =
    Lang.program ~main:"m"
      [
        Lang.func "m" ~params:[ "x" ]
          [
            Lang.assign "y" (Lang.var "x");
            Lang.assign "y" (Lang.vec [| 1.; 2. |]);
            Lang.return_ [ Lang.prim "sum" [ Lang.var "y" ] ];
          ];
      ]
  in
  (* Shape inference rejects it at compile time... *)
  (match Autobatch.compile ~input_shapes:[ Shape.scalar ] bad with
  | _ -> Alcotest.fail "expected shape conflict"
  | exception Shape_infer.Error _ -> ());
  (* ... and the lazy-allocation runtime rejects it at run time. *)
  let compiled = Autobatch.compile bad in
  (match Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ 1. ] ] with
  | _ -> Alcotest.fail "expected runtime shape error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions shape change" true
      (String.length msg > 0))

let suites =
  [
    ( "sched",
      [
        t "earliest" `Quick test_sched_earliest;
        t "most active" `Quick test_sched_most_active;
        t "round robin" `Quick test_sched_round_robin;
        QCheck_alcotest.to_alcotest prop_sched_picks_nonzero;
      ] );
    ("instrument", [ t "counters and utilization" `Quick test_instrument ]);
    ( "stacked",
      [
        t "masked push/pop" `Quick test_stacked_basic;
        t "growth and LIFO" `Quick test_stacked_growth;
        t "underflow" `Quick test_stacked_underflow;
        QCheck_alcotest.to_alcotest prop_stacked_push_pop_identity;
      ] );
    ( "vm",
      [
        t "inputs not mutated" `Quick test_vm_inputs_not_mutated;
        t "reruns deterministic" `Quick test_vm_rerun_same_result;
        t "bad inputs rejected" `Quick test_vm_bad_inputs;
        t "empty active set rejected" `Quick test_vm_empty_active;
        t "partial active set" `Quick test_vm_partial_active;
        t "step limits" `Quick test_vm_step_limit;
        t "engine accounting" `Quick test_vm_engine_accounting;
        t "pc depth instrumented" `Quick test_pc_max_depth_instrumented;
        t "step fault precedes counting" `Quick test_step_fault_precedes_counting;
        t "shape changes rejected" `Quick test_pc_shape_change_rejected;
      ] );
  ]

(* ---------- precompiled executor (Pc_jit) ---------- *)

let test_jit_matches_pc_fib () =
  let batch = [ Tensor.of_list [ 3.; 7.; 4.; 5.; 10. ] ] in
  let expected = Autobatch.run_pc fib_compiled ~batch in
  let exe = Autobatch.jit fib_compiled ~batch:5 in
  let got = Pc_jit.run exe ~batch in
  List.iter2
    (fun a b -> Alcotest.(check bool) "jit = pc (fib)" true (Tensor.equal a b))
    expected got;
  (* Reusable: a second run with different inputs. *)
  let batch2 = [ Tensor.of_list [ 1.; 2.; 9.; 0.; 6. ] ] in
  let expected2 = Autobatch.run_pc fib_compiled ~batch:batch2 in
  let got2 = Pc_jit.run exe ~batch:batch2 in
  List.iter2
    (fun a b -> Alcotest.(check bool) "jit reusable" true (Tensor.equal a b))
    expected2 got2

let test_jit_matches_pc_nuts () =
  let model = Gaussian_model.model ~dim:6 () in
  let reg, _ = Nuts_dsl.setup ~model () in
  let prog = Nuts_dsl.program () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model) prog
  in
  let batch =
    Nuts_dsl.inputs ~q0:(Tensor.zeros [| 6 |]) ~eps:0.3 ~n_iter:4 ~n_burn:0 ~batch:4 ()
  in
  let expected = Autobatch.run_pc compiled ~batch in
  let exe = Autobatch.jit compiled ~batch:4 in
  let got = Pc_jit.run exe ~batch in
  List.iter2
    (fun a b -> Alcotest.(check bool) "jit = pc (NUTS)" true (Tensor.equal a b))
    expected got

let test_jit_requires_shapes () =
  let lazy_compiled = Autobatch.compile Test_programs.fib in
  (match Autobatch.jit lazy_compiled ~batch:2 with
  | _ -> Alcotest.fail "expected shape requirement error"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions input_shapes" true
      (String.length msg > 0))

let test_jit_engine_matches_pc () =
  (* Cost accounting agrees with the interpreted VM (static shapes make
     the per-block charges identical). *)
  let batch = [ Tensor.of_list [ 6.; 8. ] ] in
  let e1 = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let config = { Pc_vm.default_config with engine = Some e1 } in
  ignore (Autobatch.run_pc ~config fib_compiled ~batch);
  let e2 = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let exe = Autobatch.jit fib_compiled ~batch:2 in
  ignore (Pc_jit.run ~engine:e2 exe ~batch);
  Alcotest.(check (float 1e-12)) "same simulated time" (Engine.elapsed e1)
    (Engine.elapsed e2);
  Alcotest.(check int) "same fused launches" ((Engine.snapshot e1).Engine.at).Engine.Counters.fused_launches
    ((Engine.snapshot e2).Engine.at).Engine.Counters.fused_launches

let test_jit_instrument () =
  let ins_pc = Instrument.create () in
  let config = { Pc_vm.default_config with instrument = Some ins_pc } in
  let batch = [ Tensor.of_list [ 9.; 4.; 11. ] ] in
  ignore (Autobatch.run_pc ~config fib_compiled ~batch);
  let ins_jit = Instrument.create () in
  let exe = Autobatch.jit fib_compiled ~batch:3 in
  ignore (Pc_jit.run ~instrument:ins_jit exe ~batch);
  Alcotest.(check int) "same blocks" (Instrument.blocks_executed ins_pc)
    (Instrument.blocks_executed ins_jit);
  Alcotest.(check int) "same pushes" (Instrument.pushes ins_pc)
    (Instrument.pushes ins_jit);
  Alcotest.(check (float 1e-12)) "same utilization"
    (Instrument.overall_utilization ins_pc)
    (Instrument.overall_utilization ins_jit);
  Alcotest.(check int) "same max depth" (Instrument.max_depth ins_pc)
    (Instrument.max_depth ins_jit);
  Alcotest.(check bool) "same instrument image" true
    (Instrument.capture ins_pc = Instrument.capture ins_jit)

(* ---------- instrument readouts, pinned ---------- *)

(* Every readout an instrument offers, split in three strings (totals,
   per-primitive table with utilization, per-block profile) and compared
   against literals, so a change in how the VMs feed their instrument
   shows up as a diff. *)
let check_readout ins (totals, prims, blocks) =
  Alcotest.(check string) "totals" totals
    (Printf.sprintf
       "blocks=%d overall=%.17g occupancy=%.17g pushes=%d pops=%d max_depth=%d"
       (Instrument.blocks_executed ins)
       (Instrument.overall_utilization ins)
       (Instrument.mean_occupancy ins)
       (Instrument.pushes ins) (Instrument.pops ins) (Instrument.max_depth ins));
  Alcotest.(check string) "prims" prims
    ((Instrument.capture ins).Instrument.i_prims
    |> List.map (fun (name, useful, issued) ->
           Printf.sprintf "%s:%d/%d:%.17g" name useful issued
             (Option.value ~default:nan (Instrument.utilization ins ~name)))
    |> String.concat " ");
  Alcotest.(check string) "block_stats" blocks
    (Instrument.block_stats ins
    |> List.map (fun (b, execs, active) -> Printf.sprintf "%d:%d:%d" b execs active)
    |> String.concat " ")

let fib_z32 = [ Tensor.init [| 32 |] (fun i -> float_of_int (4 + (i.(0) mod 8))) ]

let fib_pc_readout =
  ( "blocks=1219 overall=0.22374897456931911 \
      occupancy=0.36587366694011486 pushes=420 pops=349 max_depth=11",
    "add:1444/4576:0.31555944055944057 le:2920/13472:0.2167458432304038 \
      sub:2888/13440:0.21488095238095239",
    "0:421:2920 1:235:1476 2:214:1444 3:206:1444 4:143:1444" )

(* A pc run driven through its lane pool, so the pool's step count is
   visible next to the instrument's. *)
let pc_instrumented compiled ~batch =
  let ins = Instrument.create () in
  let config = { Pc_vm.default_config with instrument = Some ins } in
  let lanes =
    Pc_vm.Lanes.create ~config compiled.Autobatch.registry compiled.Autobatch.stack
      ~z:(Tensor.shape (List.hd batch)).(0)
  in
  Pc_vm.Lanes.load_batch lanes ~batch;
  while Pc_vm.Lanes.step lanes do
    ()
  done;
  Alcotest.(check int) "pc blocks = pool steps" (Pc_vm.Lanes.steps lanes)
    (Instrument.blocks_executed ins);
  ins

let test_readout_fib_pc () =
  check_readout (pc_instrumented fib_compiled ~batch:fib_z32) fib_pc_readout

let test_readout_fib_jit () =
  let ins = Instrument.create () in
  let exe = Autobatch.jit fib_compiled ~batch:32 in
  ignore (Pc_jit.run ~instrument:ins exe ~batch:fib_z32);
  Alcotest.(check int) "jit blocks = pool steps" (Pc_jit.steps exe)
    (Instrument.blocks_executed ins);
  check_readout ins fib_pc_readout

let test_readout_fib_local () =
  let ins = Instrument.create () in
  let config = { Local_vm.default_config with instrument = Some ins } in
  ignore (Autobatch.run_local ~config fib_compiled ~batch:fib_z32);
  check_readout ins
    ( "blocks=713 overall=0.25596072931276298 \
        occupancy=0.31363955119214587 pushes=0 pops=0 max_depth=0",
      "add:1444/4576:0.31555944055944057 le:2920/9184:0.31794425087108014 \
        sub:2888/9152:0.31555944055944057",
      "0:287:2920 1:283:1476 2:143:1444" )

let test_readout_nuts_pc () =
  let model = Eight_schools.model () in
  let reg, _ = Nuts_dsl.setup ~model () in
  let compiled =
    Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model)
      (Nuts_dsl.program ())
  in
  let q0 = Tensor.zeros [| model.Model.dim |] in
  let batch = Nuts_dsl.inputs ~q0 ~eps:0.3 ~n_iter:1 ~n_burn:0 ~batch:16 () in
  let ins = pc_instrumented compiled ~batch in
  Alcotest.(check (option (float 0.))) "grad utilization" (Some (260. /. 560.))
    (Instrument.utilization ins ~name:"grad");
  check_readout ins
    ( "blocks=177 overall=0.45444915254237289 \
        occupancy=0.51800847457627119 pushes=41 pops=41 max_depth=6",
      "add:1151/2400:0.47958333333333331 and:49/64:0.765625 \
        div:66/112:0.5892857142857143 dot:172/352:0.48863636363636365 \
        exponential:16/16:1 ge:120/256:0.46875 \
        grad:260/560:0.4642857142857143 gt:101/176:0.57386363636363635 \
        le:123/304:0.40460526315789475 logp:68/128:0.53125 \
        lt:528/1040:0.50769230769230766 min:31/32:0.96875 \
        mul:1309/2720:0.48125000000000001 normal_like:16/16:1 \
        select:83/144:0.57638888888888884 sqrt:16/16:1 sub:174/400:0.435 \
        uniform:83/144:0.57638888888888884",
      "35:35:260 36:28:208 20:12:71 21:8:52 34:7:52 22:7:52 37:7:52 \
        32:4:19 25:4:19 30:4:19 27:4:13 23:4:19 24:4:19 26:4:13 9:4:49 \
        18:3:33 15:3:33 12:3:18 1:3:32 10:3:33 11:3:18 19:2:16 17:2:2 \
        4:2:16 14:2:15 6:2:16 3:2:16 16:2:31 13:2:15 7:2:16 8:1:16 28:1:6 \
        0:1:16 29:1:6 2:1:16" )

let readout_suite =
  ( "instr-readout",
    [
      t "fib z=32 on pc" `Quick test_readout_fib_pc;
      t "fib z=32 on jit" `Quick test_readout_fib_jit;
      t "fib z=32 on local" `Quick test_readout_fib_local;
      t "eight_schools NUTS z=16 on pc" `Quick test_readout_nuts_pc;
    ] )

let jit_suite =
  ( "pc-jit",
    [
      t "matches pc on fib + reusable" `Quick test_jit_matches_pc_fib;
      t "matches pc on NUTS" `Quick test_jit_matches_pc_nuts;
      t "requires inferred shapes" `Quick test_jit_requires_shapes;
      t "engine accounting matches" `Quick test_jit_engine_matches_pc;
      t "instrumentation matches" `Quick test_jit_instrument;
    ] )

(* ---------- the program-counter stack itself ---------- *)

let test_pc_stack_growth () =
  (* Start with capacity 1 and push far past it: the backing array must
     regrow without losing any member's saved frames. *)
  let z = 3 in
  let s = Pc_vm.Pc_stack.create ~z ~bottom:99 ~start:0 ~initial_depth:1 in
  let all = Array.make z true in
  let only b = Array.init z (fun i -> i = b) in
  for depth = 1 to 20 do
    Pc_vm.Pc_stack.set_top_masked s ~mask:all depth;
    Pc_vm.Pc_stack.push s ~mask:all
  done;
  Alcotest.(check bool) "capacity grew" true (s.Pc_vm.Pc_stack.cap >= 21);
  Alcotest.(check int) "max depth" 21 (Pc_vm.Pc_stack.max_depth s);
  (* Unwind member 1 alone; its frames come back in LIFO order while the
     other members' stacks are untouched. *)
  for depth = 20 downto 1 do
    Pc_vm.Pc_stack.pop s ~mask:(only 1);
    Alcotest.(check int)
      (Printf.sprintf "member 1 depth %d" depth)
      depth s.Pc_vm.Pc_stack.top.(1)
  done;
  Pc_vm.Pc_stack.pop s ~mask:(only 1);
  Alcotest.(check int) "member 1 bottom" 99 s.Pc_vm.Pc_stack.top.(1);
  Alcotest.(check int) "member 0 untouched" 21 s.Pc_vm.Pc_stack.sp.(0)

let test_pc_stack_masked_push () =
  let z = 2 in
  let s = Pc_vm.Pc_stack.create ~z ~bottom:(-1) ~start:7 ~initial_depth:2 in
  (* Push only member 0: member 1's stack pointer must not move. *)
  Pc_vm.Pc_stack.push s ~mask:[| true; false |];
  Alcotest.(check int) "member 0 sp" 2 s.Pc_vm.Pc_stack.sp.(0);
  Alcotest.(check int) "member 1 sp" 1 s.Pc_vm.Pc_stack.sp.(1);
  Pc_vm.Pc_stack.pop s ~mask:[| true; false |];
  Alcotest.(check int) "member 0 restored" 7 s.Pc_vm.Pc_stack.top.(0)

let test_pc_stack_underflow () =
  let s = Pc_vm.Pc_stack.create ~z:2 ~bottom:0 ~start:0 ~initial_depth:1 in
  (* Each member starts with the single bottom sentinel frame: one pop is
     fine, a second must raise rather than read out of bounds. *)
  Pc_vm.Pc_stack.pop s ~mask:[| false; true |];
  Alcotest.check_raises "underflow"
    (Invalid_argument "Pc_vm: pc stack underflow for member 1") (fun () ->
      Pc_vm.Pc_stack.pop s ~mask:[| false; true |])

let pc_stack_suite =
  ( "pc-stack",
    [
      t "growth preserves frames" `Quick test_pc_stack_growth;
      t "masked push isolates members" `Quick test_pc_stack_masked_push;
      t "underflow raises" `Quick test_pc_stack_underflow;
    ] )

let suites = suites @ [ jit_suite; readout_suite; pc_stack_suite ]
