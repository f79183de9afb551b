type config = {
  policy : Sched_policy.t;
  plan : Sched_plan.config;
  lanes : int;
  mesh : Mesh.t;
  mode : Engine.mode option;
  sink : Obs_sink.t option;
}

let default_config =
  {
    policy = Sched_policy.Earliest;
    plan = Sched_plan.default;
    lanes = 8;
    mesh = Mesh.gpu_pod ~n:1 ();
    mode = None;
    sink = None;
  }

type result = {
  outputs : Tensor.t list;
  counters : Engine.Counters.t;
  supersteps : int;
  vm_steps : int;
  refills : int;
  migrations : int;
  steals : int;
  migration_bytes : float;
  compute_time : float;
  collective_time : float;
  sim_time : float;
}

(* Per planning round every device contributes its lane view to a ring
   all-reduce (the same convergence flag Shard_vm pays, plus the live/free
   counts the planner reads); the outputs come home in a ring all-gather. *)
let sync_bytes = 8.

let batch_size batch =
  match batch with
  | [] -> invalid_arg "Sched_vm: at least one input required"
  | first :: _ ->
    if Tensor.rank first = 0 then
      invalid_arg "Sched_vm: inputs must carry a leading batch dimension";
    let n = (Tensor.shape first).(0) in
    if n = 0 then invalid_arg "Sched_vm: empty batch";
    List.iter
      (fun t ->
        if Tensor.rank t = 0 || (Tensor.shape t).(0) <> n then
          invalid_arg "Sched_vm: inputs disagree on the batch dimension")
      batch;
    n

let run ?(config = default_config) reg (p : Stack_ir.program) ~batch =
  let n = batch_size batch in
  if config.lanes <= 0 then
    invalid_arg "Sched_vm: need at least one lane per shard";
  if not config.plan.Sched_plan.refill then
    invalid_arg "Sched_vm: plan.refill must be enabled (members enter via refills)";
  let k = Mesh.size config.mesh in
  let z = config.lanes in
  let engines =
    Array.init k (fun i ->
        Option.map
          (fun mode -> Engine.create ~device:(Mesh.device config.mesh i) ~mode ())
          config.mode)
  in
  (* The rounds below run sequentially on the calling domain, shard 0
     first — deliberately, not an oversight: a migration schedule must be
     a deterministic function of the lane state for the bitwise gate (and
     the seeded-schedule fuzzer) to mean anything, and the measurement is
     the per-device simulated clock, not host wall time. Shard_vm keeps
     the free-running one-domain-per-shard path for migration-free runs. *)
  let pools =
    Array.init k (fun i ->
        let sink = Option.map (Obs_sink.tag_shard i) config.sink in
        (match (engines.(i), sink) with
        | Some engine, Some sink -> Engine.set_sink engine sink
        | _ -> ());
        let pool_config =
          {
            Pc_vm.default_config with
            sched = config.policy;
            engine = engines.(i);
            sink;
          }
        in
        Lane_group.create ~shard:i ~config:pool_config reg p ~z)
  in
  let queue = Queue.create () in
  for m = 0 to n - 1 do
    Queue.add m queue
  done;
  let member_inputs m = List.map (fun t -> Tensor.slice_row t m) batch in
  let outputs : Tensor.t list option array = Array.make n None in
  let refills = ref 0 and migrations = ref 0 and steals = ref 0 in
  let migration_bytes = ref 0. in
  let rounds = ref 0 in
  let drained () =
    Queue.is_empty queue
    && Array.for_all (fun pool -> Pc_vm.Lanes.free_count pool.Lane_group.lanes = z) pools
  in
  while not (drained ()) do
    incr rounds;
    let activity = ref false in
    (* Retire: finished lanes free up before the planner looks. *)
    Array.iter
      (fun pool ->
        List.iter
          (fun lane ->
            let m = Pc_vm.Lanes.member pool.Lane_group.lanes ~lane in
            outputs.(m) <- Some (Lane_group.retire pool [| lane |]);
            activity := true)
          (Pc_vm.Lanes.finished_lanes pool.Lane_group.lanes))
      pools;
    (* Plan against the post-retire occupancy. *)
    let views =
      Array.map
        (fun { Lane_group.lanes = pool; _ } ->
          let free = ref [] and live = ref [] in
          for lane = z - 1 downto 0 do
            if Pc_vm.Lanes.live pool ~lane then live := lane :: !live
            else if not (Pc_vm.Lanes.occupied pool ~lane) then
              free := lane :: !free
          done;
          { Sched_plan.free = !free; live = !live })
        pools
    in
    let plan =
      Sched_plan.plan config.plan ~pending:(Queue.length queue) ~views
    in
    (* The planner targets the lowest free lane of a shard, as the
       binding layer's lane choice does; the asserts pin that agreement. *)
    List.iter
      (fun { Sched_plan.r_shard; r_lane } ->
        match Queue.take_opt queue with
        | None -> ()
        | Some m ->
          let lanes = Lane_group.admit pools.(r_shard) ~member:m [| member_inputs m |] in
          assert (lanes = [| r_lane |]);
          incr refills;
          activity := true)
      plan.Sched_plan.refills;
    List.iter
      (fun { Sched_plan.m_src_shard; m_src_lane; m_dst_shard; m_dst_lane } ->
        let lanes, bytes =
          Lane_group.move ~sink:config.sink ~step:!rounds pools.(m_src_shard)
            [| m_src_lane |] pools.(m_dst_shard)
        in
        assert (lanes = [| m_dst_lane |]);
        incr migrations;
        migration_bytes := !migration_bytes +. bytes;
        if m_src_shard = m_dst_shard then
          Option.iter
            (fun e -> Engine.charge_transfer e ~name:"defrag-move" ~bytes ~seconds:0.)
            engines.(m_src_shard)
        else begin
          incr steals;
          let seconds = Collectives.p2p_time config.mesh ~bytes in
          Option.iter
            (fun e ->
              Engine.charge_transfer e ~name:"steal-transfer" ~bytes ~seconds)
            engines.(m_dst_shard)
        end;
        activity := true)
      plan.Sched_plan.moves;
    (* One scheduled block per shard per round — the SPMD superstep. *)
    Array.iter
      (fun pool -> if Pc_vm.Lanes.step pool.Lane_group.lanes then activity := true)
      pools;
    if not !activity then
      (* Unreachable by construction (finished lanes retire, free lanes
         refill while members are pending), kept as a loud failure over a
         silent spin. *)
      invalid_arg "Sched_vm: no progress — lane pool wedged"
  done;
  let outputs =
    match outputs.(0) with
    | None -> assert false
    | Some first ->
      List.mapi
        (fun j _ ->
          Tensor.concat_rows
            (List.init n (fun m ->
                 match outputs.(m) with
                 | Some outs -> List.nth outs j
                 | None -> assert false)))
        first
  in
  let counters =
    Array.fold_left
      (fun acc e ->
        match e with
        | Some e -> Engine.Counters.add acc (Engine.snapshot e).Engine.at
        | None -> acc)
      Engine.Counters.zero engines
  in
  let compute_time =
    Array.fold_left
      (fun acc e ->
        match e with Some e -> Float.max acc (Engine.elapsed e) | None -> acc)
      0. engines
  in
  let output_bytes =
    List.fold_left (fun acc x -> acc +. (8. *. float_of_int (Tensor.numel x))) 0. outputs
  in
  let all_reduce_total =
    float_of_int !rounds
    *. Collectives.all_reduce_time config.mesh Collectives.Ring
         ~bytes:sync_bytes
  in
  let all_gather_total =
    Collectives.all_gather_time config.mesh Collectives.Ring
      ~bytes:output_bytes
  in
  let collective_time = all_reduce_total +. all_gather_total in
  (match config.sink with
  | None -> ()
  | Some sink ->
    if collective_time > 0. then begin
      sink
        (Obs_sink.Collective
           {
             name = "all-reduce";
             bytes = sync_bytes *. float_of_int !rounds;
             t0 = compute_time;
             t1 = compute_time +. all_reduce_total;
           });
      sink
        (Obs_sink.Collective
           {
             name = "all-gather";
             bytes = output_bytes;
             t0 = compute_time +. all_reduce_total;
             t1 = compute_time +. collective_time;
           })
    end);
  {
    outputs;
    counters;
    supersteps = !rounds;
    vm_steps =
      Array.fold_left
        (fun acc pool -> acc + Pc_vm.Lanes.steps pool.Lane_group.lanes)
        0 pools;
    refills = !refills;
    migrations = !migrations;
    steals = !steals;
    migration_bytes = !migration_bytes;
    compute_time;
    collective_time;
    sim_time = compute_time +. collective_time;
  }
