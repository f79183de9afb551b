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
  Instrument.record_block ins ~active:2 ~batch:4;
  Instrument.record_block ins ~active:4 ~batch:4;
  Alcotest.(check (float 1e-12)) "overall" 0.75 (Instrument.overall_utilization ins);
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

let suites = suites @ [ jit_suite; pc_stack_suite ]
