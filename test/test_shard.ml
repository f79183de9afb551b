(* Tests for the multi-device sharded runtime: batch partitioning, the
   collective cost formulas, counter merging, and the acceptance
   criterion that sharded execution is bitwise-identical to the
   single-device run for the same seed. *)

let t = Alcotest.test_case
let check_f = Alcotest.(check (float 1e-12))

(* ---------- partitioning ---------- *)

let check_parts msg parts expected =
  Alcotest.(check (list (pair int int)))
    msg expected
    (Array.to_list
       (Array.map (fun p -> (p.Shard_vm.offset, p.Shard_vm.length)) parts))

let test_partition_remainder () =
  (* Front-loaded remainder: 10 over 4 shards is 3,3,2,2. *)
  check_parts "z=10 n=4"
    (Shard_vm.partition ~z:10 ~shards:4)
    [ (0, 3); (3, 3); (6, 2); (8, 2) ]

let test_partition_even () =
  check_parts "z=8 n=4"
    (Shard_vm.partition ~z:8 ~shards:4)
    [ (0, 2); (2, 2); (4, 2); (6, 2) ]

let test_partition_more_shards_than_members () =
  (* Never create empty shards: k = min(shards, z). *)
  check_parts "z=3 n=8"
    (Shard_vm.partition ~z:3 ~shards:8)
    [ (0, 1); (1, 1); (2, 1) ]

let test_partition_identity () =
  check_parts "z=5 n=1" (Shard_vm.partition ~z:5 ~shards:1) [ (0, 5) ]

let test_partition_covers () =
  (* Exact cover of [0, z): contiguous, ordered, total length z. *)
  for z = 1 to 17 do
    for shards = 1 to 9 do
      let parts = Shard_vm.partition ~z ~shards in
      let next = ref 0 in
      Array.iter
        (fun p ->
          Alcotest.(check int)
            (Printf.sprintf "contiguous z=%d n=%d" z shards)
            !next p.Shard_vm.offset;
          Alcotest.(check bool) "non-empty" true (p.Shard_vm.length > 0);
          next := p.Shard_vm.offset + p.Shard_vm.length)
        parts;
      Alcotest.(check int) (Printf.sprintf "total z=%d n=%d" z shards) z !next
    done
  done

let test_partition_invalid () =
  Alcotest.check_raises "z=0"
    (Invalid_argument "Shard_vm.partition: batch must be positive") (fun () ->
      ignore (Shard_vm.partition ~z:0 ~shards:2));
  Alcotest.check_raises "shards=0"
    (Invalid_argument "Shard_vm.partition: need at least one shard") (fun () ->
      ignore (Shard_vm.partition ~z:4 ~shards:0))

(* ---------- collective cost formulas ---------- *)

let round_link = { Mesh.name = "round"; bytes_per_sec = 100.; latency = 0.5 }
let mesh_n n = Mesh.create ~device:Device.gpu ~link:round_link ~n ()

let test_ring_all_reduce () =
  (* 2·(N-1)/N·bytes/bw + 2·(N-1)·lat = 2·(3/4)·4 + 6·0.5 = 9. *)
  check_f "n=4" 9.
    (Collectives.all_reduce_time (mesh_n 4) Collectives.Ring ~bytes:400.)

let test_tree_all_reduce () =
  (* 2·ceil(log2 N)·(bytes/bw + lat) = 4·(4 + 0.5) = 18. *)
  check_f "n=4" 18.
    (Collectives.all_reduce_time (mesh_n 4) Collectives.Tree ~bytes:400.);
  (* Non-power-of-two rounds the tree depth up: ceil(log2 5) = 3. *)
  check_f "n=5" 27.
    (Collectives.all_reduce_time (mesh_n 5) Collectives.Tree ~bytes:400.)

let test_all_gather () =
  (* Ring: (N-1)/N·bytes/bw + (N-1)·lat = 3 + 1.5 = 4.5. *)
  check_f "ring n=4" 4.5
    (Collectives.all_gather_time (mesh_n 4) Collectives.Ring ~bytes:400.);
  (* Recursive doubling: same bandwidth term, ceil(log2 N) latencies. *)
  check_f "tree n=4" 4.
    (Collectives.all_gather_time (mesh_n 4) Collectives.Tree ~bytes:400.)

let test_single_device_free () =
  let m = mesh_n 1 in
  List.iter
    (fun algo ->
      check_f "all_reduce" 0. (Collectives.all_reduce_time m algo ~bytes:1e9);
      check_f "all_gather" 0. (Collectives.all_gather_time m algo ~bytes:1e9))
    [ Collectives.Ring; Collectives.Tree ]

(* ---------- counter merging ---------- *)

let test_add_counters () =
  let e1 = Engine.create ~device:Device.gpu ~mode:Engine.Eager () in
  let e2 = Engine.create ~device:Device.gpu ~mode:Engine.Fused () in
  Engine.charge_block e1 ~ops:[ ("a", 100.) ] ~control_ops:1 ~traffic_bytes:64.;
  Engine.charge_block e2 ~ops:[ ("b", 50.); ("c", 25.) ] ~control_ops:0
    ~traffic_bytes:32.;
  let c1 = (Engine.snapshot e1).Engine.at and c2 = (Engine.snapshot e2).Engine.at in
  let sum = Engine.Counters.add c1 c2 in
  Alcotest.(check int) "blocks"
    (c1.Engine.Counters.blocks + c2.Engine.Counters.blocks)
    sum.Engine.Counters.blocks;
  check_f "flops" (c1.Engine.Counters.flops +. c2.Engine.Counters.flops)
    sum.Engine.Counters.flops;
  check_f "traffic"
    (c1.Engine.Counters.traffic_bytes +. c2.Engine.Counters.traffic_bytes)
    sum.Engine.Counters.traffic_bytes;
  check_f "elapsed"
    (Engine.elapsed e1 +. Engine.elapsed e2)
    sum.Engine.Counters.elapsed_seconds;
  let z = Engine.Counters.zero in
  Alcotest.(check int) "zero blocks" 0 z.Engine.Counters.blocks;
  check_f "zero elapsed" 0. z.Engine.Counters.elapsed_seconds

(* ---------- sharded NUTS: determinism and time accounting ---------- *)

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
       Autobatch.compile ~registry:reg ~input_shapes:(Nuts_dsl.input_shapes ~model)
         prog
     in
     let batch = Nuts_dsl.inputs ~q0 ~eps ~n_iter:2 ~n_burn:0 ~batch:6 () in
     (compiled, batch))

let sharded_config ?(mode = None) devices =
  { Shard_vm.default_config with mesh = Mesh.gpu_pod ~n:devices (); mode }

let check_outputs msg expected actual =
  List.iteri
    (fun i (e, a) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s output %d bitwise" msg i)
        true (Tensor.equal e a))
    (List.combine expected actual)

let test_sharded_matches_pc () =
  (* The acceptance criterion: for any device count the sharded run
     reassembles exactly the single-device program-counter outputs,
     because lane b of shard o draws the RNG streams of member o+b. *)
  let compiled, batch = Lazy.force nuts_fixture in
  let reference = Autobatch.run_pc compiled ~batch in
  List.iter
    (fun devices ->
      let r =
        Autobatch.run_sharded ~config:(sharded_config devices) compiled ~batch
      in
      check_outputs
        (Printf.sprintf "pc devices=%d" devices)
        reference r.Shard_vm.outputs)
    [ 1; 2; 3; 4; 6; 8 ]

let test_sharded_matches_local () =
  let compiled, batch = Lazy.force nuts_fixture in
  let reference = Autobatch.run_local compiled ~batch in
  List.iter
    (fun devices ->
      let r =
        Autobatch.run_sharded ~config:(sharded_config devices) ~runtime:`Local
          compiled ~batch
      in
      check_outputs
        (Printf.sprintf "local devices=%d" devices)
        reference r.Shard_vm.outputs)
    [ 2; 4 ]

let test_sharded_time_accounting () =
  let compiled, batch = Lazy.force nuts_fixture in
  let config = sharded_config ~mode:(Some Engine.Fused) 4 in
  let r = Autobatch.run_sharded ~config compiled ~batch in
  Alcotest.(check int) "one time per shard" 4
    (Array.length r.Shard_vm.shard_times);
  check_f "compute is the slowest shard"
    (Array.fold_left Float.max 0. r.Shard_vm.shard_times)
    r.Shard_vm.compute_time;
  Alcotest.(check bool) "supersteps counted" true (r.Shard_vm.supersteps > 0);
  let output_bytes =
    List.fold_left
      (fun acc t -> acc +. (8. *. float_of_int (Tensor.numel t)))
      0. r.Shard_vm.outputs
  in
  let expected_collective =
    (float_of_int r.Shard_vm.supersteps
    *. Collectives.all_reduce_time config.Shard_vm.mesh Collectives.Ring
         ~bytes:8.)
    +. Collectives.all_gather_time config.Shard_vm.mesh Collectives.Ring
         ~bytes:output_bytes
  in
  check_f "collective priced from supersteps and outputs" expected_collective
    r.Shard_vm.collective_time;
  check_f "sim time decomposes"
    (r.Shard_vm.compute_time +. r.Shard_vm.collective_time)
    r.Shard_vm.sim_time;
  (* Engine counters from all four shards land in the merged total. *)
  Alcotest.(check bool) "merged fused launches" true
    (r.Shard_vm.counters.Engine.Counters.fused_launches > 0)

let test_sharded_counters_merged () =
  let compiled, batch = Lazy.force nuts_fixture in
  let single =
    Autobatch.run_sharded
      ~config:(sharded_config ~mode:(Some Engine.Fused) 1)
      compiled ~batch
  in
  let sharded =
    Autobatch.run_sharded
      ~config:(sharded_config ~mode:(Some Engine.Fused) 3)
      compiled ~batch
  in
  (* Results are identical, but the cost profile legitimately shifts:
     each shard only pays flops for its own z lanes, so sharding sheds
     masked-lane waste (total flops can only drop), while every shard
     re-runs the schedule, so launch counts can only grow. *)
  Alcotest.(check bool) "sharding sheds masked-lane flops" true
    (sharded.Shard_vm.counters.Engine.Counters.flops > 0.
    && sharded.Shard_vm.counters.Engine.Counters.flops
       <= single.Shard_vm.counters.Engine.Counters.flops);
  Alcotest.(check bool) "launch overheads multiply" true
    (sharded.Shard_vm.counters.Engine.Counters.fused_launches
    >= single.Shard_vm.counters.Engine.Counters.fused_launches)

let suites =
  [
    ( "shard-partition",
      [
        t "remainder front-loaded" `Quick test_partition_remainder;
        t "even split" `Quick test_partition_even;
        t "more shards than members" `Quick test_partition_more_shards_than_members;
        t "single shard identity" `Quick test_partition_identity;
        t "exact cover" `Quick test_partition_covers;
        t "invalid arguments" `Quick test_partition_invalid;
      ] );
    ( "collectives",
      [
        t "ring all-reduce" `Quick test_ring_all_reduce;
        t "tree all-reduce" `Quick test_tree_all_reduce;
        t "all-gather" `Quick test_all_gather;
        t "single device is free" `Quick test_single_device_free;
      ] );
    ( "engine-merge",
      [
        t "add_counters" `Quick test_add_counters;
      ] );
    ( "shard-vm",
      [
        t "pc bitwise determinism" `Quick test_sharded_matches_pc;
        t "local bitwise determinism" `Quick test_sharded_matches_local;
        t "time accounting" `Quick test_sharded_time_accounting;
        t "counters merged" `Quick test_sharded_counters_merged;
      ] );
  ]
