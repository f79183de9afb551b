(* Tests for the continuous-batching serving subsystem: the recyclable
   lane pool, the bounded admission queue, and the server's acceptance
   criterion — every request's outputs are bitwise identical to running
   it alone, regardless of arrival order, batch composition, or
   admission policy. *)

let t = Alcotest.test_case
let check_f = Alcotest.(check (float 1e-12))

(* ---------- fixtures ---------- *)

(* A cheap control-flow program whose running time depends on its input:
   fib by double recursion, so service times genuinely differ per lane. *)
let fib_program =
  let open Lang in
  let open Lang.Infix in
  program ~main:"fib"
    [
      func "fib" ~params:[ "n" ]
        [
          if_
            (var "n" <= flt 1.)
            [ return_ [ flt 1. ] ]
            [
              call [ "left" ] "fib" [ var "n" - flt 2. ];
              call [ "right" ] "fib" [ var "n" - flt 1. ];
              return_ [ var "left" + var "right" ];
            ];
        ];
    ]

let fib_compiled =
  lazy (Autobatch.compile ~input_shapes:[ Shape.scalar ] fib_program)

let fib_request ?(arrival = 0.) ?width ~id n =
  let compiled = Lazy.force fib_compiled in
  let inputs =
    match width with
    | None -> [ Tensor.of_list [ n ] ]
    | Some w -> [ Tensor.init [| w |] (fun i -> n +. float_of_int i.(0)) ]
  in
  Request.make ~id ~member:(id * 16) ~arrival ~cost_hint:n ~program:compiled
    ~inputs ()

(* The stochastic fixture: batched NUTS on a small Gaussian, where every
   lane draws from its member's RNG streams — the serving layer must
   reproduce those draws exactly through member offsetting. *)
let nuts_fixture =
  lazy
    (let dim = 5 in
     let model = Gaussian_model.model ~dim () in
     let reg, _ = Nuts_dsl.setup ~seed:0xD15EA5EL ~model () in
     let q0 = Tensor.zeros [| dim |] in
     let eps = Nuts.find_reasonable_eps ~seed:0xD15EA5EL ~model ~q0 () in
     let cfg = Nuts.default_config ~eps () in
     let prog = Nuts_dsl.program ~params:(Nuts_dsl.params_of_config cfg) () in
     let compiled =
       Autobatch.compile ~registry:reg
         ~input_shapes:(Nuts_dsl.input_shapes ~model)
         prog
     in
     (compiled, q0, eps))

let nuts_request ?(arrival = 0.) ?(width = 1) ?(n_iter = 1) ~id ~member () =
  let compiled, q0, eps = Lazy.force nuts_fixture in
  Request.make ~id ~member ~arrival
    ~cost_hint:(float_of_int n_iter)
    ~program:compiled
    ~inputs:(Nuts_dsl.inputs ~q0 ~eps ~n_iter ~n_burn:0 ~batch:width ())
    ()

(* The solo reference: the request run by itself under plain [run_pc]
   with [member_base] set to its member — the defining equation of
   request identity. *)
let solo_reference (r : Request.t) =
  let config = { Pc_vm.default_config with member_base = r.Request.member } in
  Autobatch.run_pc ~config r.Request.program ~batch:r.Request.inputs

let check_outputs msg expected actual =
  Alcotest.(check int)
    (msg ^ " output arity") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s output %d bitwise" msg i)
        true (Tensor.equal e a))
    (List.combine expected actual)

let outputs_by_id (stats : Server.stats) =
  List.map (fun c -> (c.Server.request.Request.id, c.Server.outputs))
    stats.Server.completions

(* ---------- Pc_vm.Lanes ---------- *)

let test_lanes_lifecycle () =
  let compiled = Lazy.force fib_compiled in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack
      ~z:3
  in
  Alcotest.(check int) "all free" 3 (Pc_vm.Lanes.free_count lanes);
  Alcotest.(check bool) "idle pool does not step" false (Pc_vm.Lanes.step lanes);
  Pc_vm.Lanes.load lanes ~lane:1 ~member:0
    ~inputs:[ Tensor.of_list [ 6. ] |> Fun.flip Tensor.slice_row 0 ];
  Alcotest.(check int) "one occupied" 2 (Pc_vm.Lanes.free_count lanes);
  Alcotest.(check bool) "live" true (Pc_vm.Lanes.live lanes ~lane:1);
  while Pc_vm.Lanes.step lanes do () done;
  Alcotest.(check bool) "finished" true (Pc_vm.Lanes.finished lanes ~lane:1);
  Alcotest.(check (list int)) "finished lanes" [ 1 ]
    (Pc_vm.Lanes.finished_lanes lanes);
  let outs = Pc_vm.Lanes.retire lanes ~lane:1 in
  Alcotest.(check int) "freed" 3 (Pc_vm.Lanes.free_count lanes);
  (* fib 6 = 13 with fib 0 = fib 1 = 1. *)
  check_f "fib 6" 13. (Tensor.get (List.hd outs) [||])

let test_lanes_recycling_bitwise () =
  (* A recycled lane must behave exactly like a fresh VM: run fib(10) in
     a lane, retire it, reuse the same lane for fib(5) while another lane
     is mid-flight, and compare against solo runs. *)
  let compiled = Lazy.force fib_compiled in
  let solo n =
    List.hd (Autobatch.run_pc compiled ~batch:[ Tensor.of_list [ n ] ])
  in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack
      ~z:2
  in
  let elem n = Tensor.slice_row (Tensor.of_list [ n ]) 0 in
  Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ elem 10. ];
  Pc_vm.Lanes.load lanes ~lane:1 ~member:1 ~inputs:[ elem 13. ];
  (* Drain lane 0 (fib 10 finishes first), refill it mid-run. *)
  while not (Pc_vm.Lanes.finished lanes ~lane:0) do
    ignore (Pc_vm.Lanes.step lanes)
  done;
  let out10 = List.hd (Pc_vm.Lanes.retire lanes ~lane:0) in
  Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[ elem 5. ];
  while Pc_vm.Lanes.step lanes do () done;
  let out5 = List.hd (Pc_vm.Lanes.retire lanes ~lane:0) in
  let out13 = List.hd (Pc_vm.Lanes.retire lanes ~lane:1) in
  check_f "fib 10 bitwise" (Tensor.get (solo 10.) [| 0 |]) (Tensor.get out10 [||]);
  check_f "fib 5 in recycled lane" (Tensor.get (solo 5.) [| 0 |])
    (Tensor.get out5 [||]);
  check_f "fib 13 undisturbed" (Tensor.get (solo 13.) [| 0 |])
    (Tensor.get out13 [||])

let test_lanes_input_mismatch () =
  let compiled = Lazy.force fib_compiled in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack
      ~z:1
  in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Pc_vm: input count mismatch") (fun () ->
      Pc_vm.Lanes.load lanes ~lane:0 ~member:0 ~inputs:[])

(* ---------- Request and Request_queue ---------- *)

let test_request_validation () =
  let compiled = Lazy.force fib_compiled in
  Alcotest.check_raises "no inputs"
    (Invalid_argument "Request: at least one input required") (fun () ->
      ignore (Request.make ~id:0 ~program:compiled ~inputs:[] ()));
  let r = fib_request ~id:7 ~width:3 6. in
  Alcotest.(check int) "width" 3 (Request.width r);
  Alcotest.(check int) "member defaults offset" (7 * 16) r.Request.member;
  check_f "input bytes" 24. (Request.input_bytes r);
  check_f "lane input row 2" 8.
    (Tensor.get (List.hd (Request.lane_inputs r ~row:2)) [||])

let test_queue_fifo_blocking () =
  let q = Request_queue.create () in
  let a = fib_request ~id:0 ~width:4 3. in
  let b = fib_request ~id:1 ~width:1 3. in
  ignore (Request_queue.offer q a);
  ignore (Request_queue.offer q b);
  (* FIFO with a wide head: nothing fits, even though b would. *)
  let fits r = Request.width r <= 2 in
  Alcotest.(check bool) "head blocks" true
    (Request_queue.pop_fifo q ~fits = None);
  (* Shortest-first skips the blocked head. *)
  (match Request_queue.pop_shortest q ~fits with
  | Some r -> Alcotest.(check int) "narrow one admitted" 1 r.Request.id
  | None -> Alcotest.fail "expected a fitting request");
  Alcotest.(check int) "one left" 1 (Request_queue.length q)

let test_queue_shortest_order () =
  let q = Request_queue.create () in
  let mk id cost =
    let r = fib_request ~id cost in
    ignore (Request_queue.offer q r)
  in
  mk 0 9.;
  mk 1 2.;
  mk 2 2.;
  mk 3 1.;
  let fits _ = true in
  let pop () =
    match Request_queue.pop_shortest q ~fits with
    | Some r -> r.Request.id
    | None -> -1
  in
  (* Force left-to-right pops (list literals evaluate right-to-left). *)
  let a = pop () in
  let b = pop () in
  let c = pop () in
  let d = pop () in
  Alcotest.(check (list int)) "cost order, ties by arrival" [ 3; 1; 2; 0 ]
    [ a; b; c; d ]

let test_queue_shed_reject_new () =
  let q = Request_queue.create ~depth:2 () in
  let r id = fib_request ~id 3. in
  Alcotest.(check bool) "first" true (Request_queue.offer q (r 0) = `Admitted);
  Alcotest.(check bool) "second" true (Request_queue.offer q (r 1) = `Admitted);
  (match Request_queue.offer q (r 2) with
  | `Shed victim -> Alcotest.(check int) "newcomer shed" 2 victim.Request.id
  | `Admitted -> Alcotest.fail "expected shed");
  Alcotest.(check int) "depth held" 2 (Request_queue.length q);
  Alcotest.(check int) "shed counted" 1 (Request_queue.shed_total q)

(* ---------- server determinism ---------- *)

let all_policies = [ Server.Fifo; Server.Shortest_first; Server.Synchronous ]

let test_serve_alone_matches_solo () =
  let r = nuts_request ~id:0 ~member:5 ~n_iter:2 () in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 4 }
      ~program:r.Request.program [ r ]
  in
  match stats.Server.completions with
  | [ c ] -> check_outputs "alone" (solo_reference r) c.Server.outputs
  | cs -> Alcotest.fail (Printf.sprintf "expected 1 completion, got %d" (List.length cs))

let saturated_trace () =
  (* 10 single-lane chains plus two 2-wide requests through 4 lanes:
     more work than lanes, mixed widths, distinct members. *)
  List.init 10 (fun i ->
      nuts_request ~id:i ~member:(i * 3) ~n_iter:(1 + (i mod 2))
        ~arrival:(float_of_int (i mod 4))
        ())
  @ [
      nuts_request ~id:10 ~member:40 ~width:2 ~arrival:1.5 ();
      nuts_request ~id:11 ~member:50 ~width:2 ~n_iter:2 ~arrival:0.5 ();
    ]

let test_serve_saturated_bitwise () =
  (* The acceptance criterion: under every admission policy, every
     request in a saturated mixed-width server reproduces its solo
     outputs exactly. *)
  let trace = saturated_trace () in
  let program = (List.hd trace).Request.program in
  List.iter
    (fun policy ->
      let stats =
        Server.run
          ~config:{ Server.default_config with lanes = 4; policy }
          ~program trace
      in
      Alcotest.(check int)
        (Server.policy_name policy ^ " all served")
        (List.length trace)
        (List.length stats.Server.completions);
      List.iter
        (fun c ->
          let r = c.Server.request in
          check_outputs
            (Printf.sprintf "%s request %d" (Server.policy_name policy)
               r.Request.id)
            (solo_reference r) c.Server.outputs)
        stats.Server.completions)
    all_policies

let test_serve_arrival_order_invariance () =
  (* Same requests, three different arrival patterns (bursty, reversed,
     spread) and different lane counts: per-request outputs never move. *)
  let base = saturated_trace () in
  let program = (List.hd base).Request.program in
  let rearrange arrival_of =
    List.map
      (fun (r : Request.t) ->
        { r with Request.arrival = arrival_of r.Request.id })
      base
  in
  let reference =
    outputs_by_id
      (Server.run
         ~config:{ Server.default_config with lanes = 4 }
         ~program base)
  in
  List.iter
    (fun (name, trace, lanes) ->
      let got =
        Server.run ~config:{ Server.default_config with lanes } ~program trace
      in
      List.iter
        (fun (id, outs) ->
          check_outputs
            (Printf.sprintf "%s request %d" name id)
            (List.assoc id reference) outs)
        (outputs_by_id got))
    [
      ("burst", rearrange (fun _ -> 0.), 4);
      ("reversed", rearrange (fun id -> float_of_int (20 - id)), 4);
      ("narrow device", rearrange (fun id -> float_of_int id *. 7.), 2);
    ]

(* ---------- server queueing behavior ---------- *)

let test_server_sheds_on_full_queue () =
  (* 1 lane, queue depth 2, 6 simultaneous arrivals: the head is admitted
     to the lane, two wait, three are shed (the newcomers). *)
  let trace = List.init 6 (fun id -> fib_request ~id 10.) in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 1; queue_depth = 2 }
      ~program:(Lazy.force fib_compiled) trace
  in
  Alcotest.(check int) "three served" 3 (List.length stats.Server.completions);
  Alcotest.(check (list int)) "newest shed" [ 3; 4; 5 ]
    (List.map (fun r -> r.Request.id) stats.Server.shed)

let test_server_idles_between_arrivals () =
  (* Arrival gaps far larger than a request's service time: the server
     must jump its clock instead of spinning, and queueing latency stays
     zero (each request starts the moment it arrives). *)
  let trace =
    List.init 3 (fun id -> fib_request ~id ~arrival:(float_of_int id *. 1e4) 4.)
  in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 2 }
      ~program:(Lazy.force fib_compiled) trace
  in
  Alcotest.(check int) "all served" 3 (List.length stats.Server.completions);
  Alcotest.(check bool) "idle periods counted" true (stats.Server.idle_steps > 0);
  Alcotest.(check bool) "clock reached the last arrival" true
    (stats.Server.makespan >= 2e4);
  List.iter
    (fun c -> check_f "no queueing delay" 0. (Server.queueing_latency c))
    stats.Server.completions

let test_server_rejects_wider_than_device () =
  let wide = fib_request ~id:0 ~width:3 5. in
  let narrow = fib_request ~id:1 5. in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 2 }
      ~program:(Lazy.force fib_compiled) [ wide; narrow ]
  in
  Alcotest.(check (list int)) "wide rejected" [ 0 ]
    (List.map (fun r -> r.Request.id) stats.Server.rejected);
  Alcotest.(check (list int)) "narrow served" [ 1 ]
    (List.map (fun c -> c.Server.request.Request.id) stats.Server.completions)

let test_server_latency_accounting () =
  let trace = List.init 5 (fun id -> fib_request ~id 8.) in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 2 }
      ~program:(Lazy.force fib_compiled) trace
  in
  List.iter
    (fun c ->
      Alcotest.(check bool) "queued <= started" true
        (c.Server.queued <= c.Server.started);
      Alcotest.(check bool) "started < finished" true
        (c.Server.started < c.Server.finished);
      check_f "total = queueing + service"
        (Server.total_latency c)
        (Server.queueing_latency c +. Server.service_latency c))
    stats.Server.completions;
  Alcotest.(check bool) "occupancy in (0, 1]" true
    (stats.Server.mean_occupancy > 0. && stats.Server.mean_occupancy <= 1.)

let test_server_closed_loop () =
  (* A one-client closed loop issues each follow-up on completion; the
     chain of 4 requests serializes, and each reproduces its solo run. *)
  let issued = ref 1 in
  let on_complete _c =
    if !issued >= 4 then None
    else begin
      let id = !issued in
      incr issued;
      Some (fib_request ~id (6. +. float_of_int id))
    end
  in
  let stats =
    Server.run
      ~config:{ Server.default_config with lanes = 2 }
      ~on_complete
      ~program:(Lazy.force fib_compiled)
      [ fib_request ~id:0 6. ]
  in
  Alcotest.(check int) "chain served" 4 (List.length stats.Server.completions);
  List.iter
    (fun c ->
      check_outputs
        (Printf.sprintf "follow-up %d" c.Server.request.Request.id)
        (solo_reference c.Server.request)
        c.Server.outputs)
    stats.Server.completions

(* ---------- instrument gauge and engine counters ---------- *)

(* One superstep's occupancy event, as the VMs announce it. *)
let occupancy ~step ~active ~live ~total =
  Obs_sink.Occupancy { shard = 0; step; block = 0; active; live; total }

let test_occupancy_gauge () =
  let ins = Instrument.create () in
  check_f "no samples reads full" 1. (Instrument.mean_occupancy ins);
  for i = 1 to 10 do
    Instrument.observe_occupancy ins (occupancy ~step:i ~active:1 ~live:2 ~total:4)
  done;
  check_f "mean over samples" 0.5 (Instrument.mean_occupancy ins);
  Alcotest.(check int) "samples counted" 10 (Instrument.live_samples ins);
  let series = Instrument.occupancy_series ins in
  Alcotest.(check bool) "series non-empty" true (List.length series > 0);
  List.iter (fun (_, occ) -> check_f "bucket occupancy" 0.5 occ) series

let test_occupancy_gauge_compaction () =
  let ins = Instrument.create () in
  (* Twice the bucket budget of samples: the gauge must downsample, keep
     the step axis anchored at the start, and preserve the mean. *)
  for i = 1 to 1024 do
    let live = if i <= 512 then 4 else 0 in
    Instrument.observe_occupancy ins (occupancy ~step:i ~active:live ~live ~total:4)
  done;
  let series = Instrument.occupancy_series ins in
  Alcotest.(check bool) "bounded" true (List.length series <= 256);
  (match series with
  | (first_step, first_occ) :: _ ->
    Alcotest.(check int) "anchored at step 0" 0 first_step;
    check_f "early buckets full" 1. first_occ
  | [] -> Alcotest.fail "empty series");
  check_f "mean preserved" 0.5 (Instrument.mean_occupancy ins);
  (match List.rev series with
  | (_, last_occ) :: _ -> check_f "late buckets empty" 0. last_occ
  | [] -> ())

let test_engine_refill_retire_counters () =
  let e = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.charge_refill e ~bytes:64.;
  Engine.charge_refill e ~bytes:64.;
  Engine.charge_retire e ~bytes:128.;
  let c = (Engine.snapshot e).Engine.at in
  Alcotest.(check int) "refills" 2 c.Engine.Counters.lane_refills;
  Alcotest.(check int) "retires" 1 c.Engine.Counters.lane_retires;
  check_f "traffic accumulates" 256. c.Engine.Counters.traffic_bytes;
  Alcotest.(check bool) "time advances" true (Engine.elapsed e > 0.);
  let sum = Engine.Counters.add c Engine.Counters.zero in
  Alcotest.(check int) "refills survive add" 2 sum.Engine.Counters.lane_refills;
  Alcotest.(check int) "retires survive add" 1 sum.Engine.Counters.lane_retires

(* ---------- Lane_group: the request-to-lane binding layer ---------- *)

let bytes_of ts =
  List.fold_left (fun acc x -> acc +. (8. *. float_of_int (Tensor.numel x))) 0. ts

let rows (r : Request.t) =
  Array.init (Request.width r) (fun row -> Request.lane_inputs r ~row)

let step_n lanes n =
  for _ = 1 to n do
    ignore (Pc_vm.Lanes.step lanes)
  done

let drain lanes =
  while Pc_vm.Lanes.step lanes do
    ()
  done

(* A width-2 NUTS request is admitted into pool A, stepped, parked,
   resumed into pool B beside a resident request, stepped, moved back to
   A, run to halt and retired. The outputs must equal the solo run
   bitwise, and each engine must carry exactly the charges of the same
   sequence done on raw pools the way the drivers charged it before the
   binding layer: one refill per loaded lane (its input bytes), one
   retire per retired lane (its output bytes), and the callers' own
   transfers priced at the exported states' summed bytes. *)
let test_lane_group_round_trip () =
  let compiled, _, _ = Lazy.force nuts_fixture in
  let reg = compiled.Autobatch.registry and prog = compiled.Autobatch.stack in
  let r = nuts_request ~id:1 ~member:40 ~width:2 () in
  let resident = nuts_request ~id:2 ~member:90 () in
  let engine () = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let config e = { Pc_vm.default_config with engine = Some e } in
  let ea = engine () and eb = engine () in
  let migrations = ref [] in
  let sink =
    Some
      (function
      | Obs_sink.Migration { src_shard; dst_shard; member; _ } ->
        migrations := (src_shard, dst_shard, member) :: !migrations
      | _ -> ())
  in
  let a = Lane_group.create ~shard:0 ~config:(config ea) reg prog ~z:4 in
  let b = Lane_group.create ~shard:1 ~config:(config eb) reg prog ~z:4 in
  let group = Lane_group.admit a ~member:r.Request.member (rows r) in
  Alcotest.(check (array int)) "admitted on the lowest lanes" [| 0; 1 |] group;
  ignore (Lane_group.admit b ~member:resident.Request.member (rows resident));
  step_n a.Lane_group.lanes 3;
  let states, park_bytes = Lane_group.park a group in
  Alcotest.(check int) "park frees the lanes" 4 (Pc_vm.Lanes.free_count a.lanes);
  Engine.charge_transfer ea ~name:"preempt-park" ~bytes:park_bytes ~seconds:0.;
  let group, resume_bytes = Lane_group.resume ~sink ~step:1 ~from:0 b states in
  Alcotest.(check (array int)) "resumed beside the resident" [| 1; 2 |] group;
  check_f "resume moves what park exported" park_bytes resume_bytes;
  Engine.charge_transfer eb ~name:"preempt-resume" ~bytes:resume_bytes ~seconds:0.;
  step_n b.Lane_group.lanes 2;
  let group, move_bytes = Lane_group.move ~sink ~step:2 b group a in
  Alcotest.(check (array int)) "moved back to the lowest lanes" [| 0; 1 |] group;
  Engine.charge_transfer ea ~name:"drain-migrate" ~bytes:move_bytes ~seconds:0.;
  drain a.Lane_group.lanes;
  Alcotest.(check bool) "group halted" true (Lane_group.finished a group);
  check_outputs "round trip" (solo_reference r) (Lane_group.retire a group);
  Alcotest.(check (list (triple int int int)))
    "one migration event per moved lane"
    [ (0, 1, 40); (0, 1, 41); (1, 0, 40); (1, 0, 41) ]
    (List.rev !migrations);
  (* The same sequence on raw pools, charged as the replaced code did. *)
  let ca = engine () and cb = engine () in
  let pa = Pc_vm.Lanes.create ~config:(config ca) reg prog ~z:4 in
  let pb = Pc_vm.Lanes.create ~config:(config cb) reg prog ~z:4 in
  let load pool e ~lane ~member inputs =
    Pc_vm.Lanes.load pool ~lane ~member ~inputs;
    Engine.charge_refill e ~bytes:(bytes_of inputs)
  in
  Array.iteri (fun i row -> load pa ca ~lane:i ~member:(40 + i) row) (rows r);
  load pb cb ~lane:0 ~member:90 (rows resident).(0);
  step_n pa 3;
  let transfer src dst pairs =
    List.fold_left
      (fun acc (s, d) ->
        let st = Pc_vm.Lanes.export_lane src ~lane:s in
        Pc_vm.Lanes.evict src ~lane:s;
        Pc_vm.Lanes.import_lane dst ~lane:d st;
        acc +. Pc_vm.Lanes.lane_state_bytes st)
      0. pairs
  in
  let bytes = transfer pa pb [ (0, 1); (1, 2) ] in
  Engine.charge_transfer ca ~name:"preempt-park" ~bytes ~seconds:0.;
  Engine.charge_transfer cb ~name:"preempt-resume" ~bytes ~seconds:0.;
  step_n pb 2;
  let bytes = transfer pb pa [ (1, 0); (2, 1) ] in
  Engine.charge_transfer ca ~name:"drain-migrate" ~bytes ~seconds:0.;
  drain pa;
  List.iter
    (fun lane ->
      Engine.charge_retire ca ~bytes:(bytes_of (Pc_vm.Lanes.retire pa ~lane)))
    [ 0; 1 ];
  Alcotest.(check bool) "pool A engine charged as before" true
    (Engine.snapshot ea = Engine.snapshot ca);
  Alcotest.(check bool) "pool B engine charged as before" true
    (Engine.snapshot eb = Engine.snapshot cb);
  let c = (Engine.snapshot ea).Engine.at in
  Alcotest.(check int) "refills" 2 c.Engine.Counters.lane_refills;
  Alcotest.(check int) "retires" 2 c.Engine.Counters.lane_retires

(* Checkpoint bytes counted off a pool image must equal the export-and-sum
   they replace, on a pool whose occupied lanes sit at different stack
   depths, with finished lanes still loaded and later retired. *)
let test_occupied_bytes_matches_export () =
  let compiled = Lazy.force fib_compiled in
  let lanes =
    Pc_vm.Lanes.create compiled.Autobatch.registry compiled.Autobatch.stack ~z:6
  in
  List.iteri
    (fun lane n -> Pc_vm.Lanes.load lanes ~lane ~member:lane ~inputs:[ Tensor.scalar n ])
    [ 2.; 5.; 7.; 9.; 3. ];
  let exported () =
    List.fold_left
      (fun acc lane ->
        if Pc_vm.Lanes.occupied lanes ~lane then
          acc +. Pc_vm.Lanes.lane_state_bytes (Pc_vm.Lanes.export_lane lanes ~lane)
        else acc)
      0. (List.init 6 Fun.id)
  in
  let most_depths = ref 0 in
  for i = 1 to 60 do
    ignore (Pc_vm.Lanes.step lanes);
    if i = 30 then
      List.iter (fun lane -> ignore (Pc_vm.Lanes.retire lanes ~lane))
        (Pc_vm.Lanes.finished_lanes lanes);
    check_f
      (Printf.sprintf "step %d" i)
      (exported ())
      (Lane_group.occupied_bytes (Pc_vm.Lanes.capture lanes));
    let depths =
      List.filter_map
        (fun lane ->
          if Pc_vm.Lanes.occupied lanes ~lane then
            let st = Pc_vm.Lanes.export_lane lanes ~lane in
            Some st.Pc_vm.Lanes.ls_pc.Pc_vm.Pc_stack.pl_sp
          else None)
        (List.init 6 Fun.id)
    in
    most_depths := max !most_depths (List.length (List.sort_uniq compare depths))
  done;
  Alcotest.(check bool) "lanes reached at least three distinct depths" true
    (!most_depths >= 3)

let test_server_charges_engine () =
  let engine = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  let trace = List.init 4 (fun id -> fib_request ~id 6.) in
  let stats =
    Server.run
      ~config:
        {
          Server.default_config with
          lanes = 2;
          vm = { Pc_vm.default_config with engine = Some engine };
        }
      ~program:(Lazy.force fib_compiled) trace
  in
  let c = (Engine.snapshot engine).Engine.at in
  Alcotest.(check int) "every lane load charged" 4 c.Engine.Counters.lane_refills;
  Alcotest.(check int) "every retire charged" 4 c.Engine.Counters.lane_retires;
  (* With an engine, the server clock runs on simulated seconds. *)
  check_f "makespan is simulated time" (Engine.elapsed engine)
    stats.Server.makespan

(* ---------- serving harness ---------- *)

let test_serving_harness_smoke () =
  let stats =
    Serving.run ~dim:3 ~lanes:4 ~n_requests:6 ~max_iter:2 ~loads:[ 0.9 ]
      ~policies:[ Server.Synchronous; Server.Fifo ]
      ~closed_clients:0 ~seed:0xFEEDL ()
  in
  Alcotest.(check int) "one point per policy" 2 (List.length stats.Serving.points);
  List.iter
    (fun p ->
      Alcotest.(check int) "all complete" 6 p.Serving.completed;
      Alcotest.(check bool) "throughput positive" true (p.Serving.throughput > 0.);
      Alcotest.(check bool) "latency percentiles ordered" true
        (p.Serving.p50 <= p.Serving.p95 && p.Serving.p95 <= p.Serving.p99))
    stats.Serving.points;
  let csv = Serving.to_csv stats in
  Alcotest.(check bool) "csv has header and rows" true
    (List.length (String.split_on_char '\n' csv) >= 4)

let suites =
  [
    ( "serve-lanes",
      [
        t "lifecycle" `Quick test_lanes_lifecycle;
        t "recycling is bitwise clean" `Quick test_lanes_recycling_bitwise;
        t "input mismatch" `Quick test_lanes_input_mismatch;
      ] );
    ( "serve-queue",
      [
        t "request validation" `Quick test_request_validation;
        t "fifo head-of-line blocking" `Quick test_queue_fifo_blocking;
        t "shortest-first order" `Quick test_queue_shortest_order;
        t "reject-new shed" `Quick test_queue_shed_reject_new;
      ] );
    ( "serve-determinism",
      [
        t "alone equals solo run" `Quick test_serve_alone_matches_solo;
        t "saturated server, all policies" `Slow test_serve_saturated_bitwise;
        t "arrival order invariance" `Slow test_serve_arrival_order_invariance;
      ] );
    ( "serve-server",
      [
        t "full queue sheds" `Quick test_server_sheds_on_full_queue;
        t "idles between arrivals" `Quick test_server_idles_between_arrivals;
        t "rejects wider than device" `Quick test_server_rejects_wider_than_device;
        t "latency accounting" `Quick test_server_latency_accounting;
        t "closed loop follow-ups" `Quick test_server_closed_loop;
        t "charges engine refills and retires" `Quick test_server_charges_engine;
      ] );
    ( "serve-instrument",
      [
        t "occupancy gauge" `Quick test_occupancy_gauge;
        t "gauge compaction" `Quick test_occupancy_gauge_compaction;
        t "engine refill/retire counters" `Quick test_engine_refill_retire_counters;
      ] );
    ( "serve-binding",
      [
        t "admit, park, resume, move, retire" `Quick test_lane_group_round_trip;
        t "checkpoint bytes from the image" `Quick test_occupied_bytes_matches_export;
      ] );
    ("serve-harness", [ t "smoke" `Slow test_serving_harness_smoke ]);
  ]
