type pool = { lanes : Pc_vm.Lanes.t; engine : Engine.t option; shard : int }

let create ~shard ~config reg program ~z =
  {
    lanes = Pc_vm.Lanes.create ~config reg program ~z;
    engine = config.Pc_vm.engine;
    shard;
  }

let bytes_of ts =
  List.fold_left
    (fun acc x -> acc +. (Vm_util.bytes_per_elem *. float_of_int (Tensor.numel x)))
    0. ts

let charge pool f = Option.iter f pool.engine

(* The lowest free lanes, through the planner's selection so every driver
   shares one lane-choice code path. *)
let choose who pool width =
  let z = Pc_vm.Lanes.z pool.lanes in
  let free = Array.init z (fun lane -> not (Pc_vm.Lanes.occupied pool.lanes ~lane)) in
  match Sched_plan.choose_lanes ~free ~width with
  | Some lanes -> lanes
  | None ->
    invalid_arg
      (Printf.sprintf "Lane_group.%s: %d lanes wanted, %d free" who width
         (Pc_vm.Lanes.free_count pool.lanes))

let admit pool ~member rows =
  let lanes = choose "admit" pool (Array.length rows) in
  Array.iteri
    (fun i lane ->
      Pc_vm.Lanes.load pool.lanes ~lane ~member:(member + i) ~inputs:rows.(i);
      charge pool (fun e -> Engine.charge_refill e ~bytes:(bytes_of rows.(i))))
    lanes;
  lanes

let finished pool group =
  Array.for_all (fun lane -> Pc_vm.Lanes.finished pool.lanes ~lane) group

(* Output rows of a halted lane are frozen (masked writes never touch
   it), so retiring mid-superstep reads exactly what an end-of-run read
   would. *)
let retire pool group =
  let per_lane =
    Array.map
      (fun lane ->
        let outs = Pc_vm.Lanes.retire pool.lanes ~lane in
        charge pool (fun e -> Engine.charge_retire e ~bytes:(bytes_of outs));
        outs)
      group
  in
  List.mapi
    (fun j _ ->
      Tensor.stack_rows (Array.to_list (Array.map (fun outs -> List.nth outs j) per_lane)))
    per_lane.(0)

let park pool group =
  let states = Array.map (fun lane -> Pc_vm.Lanes.export_lane pool.lanes ~lane) group in
  Array.iter (fun lane -> Pc_vm.Lanes.evict pool.lanes ~lane) group;
  let bytes =
    Array.fold_left (fun acc st -> acc +. Pc_vm.Lanes.lane_state_bytes st) 0. states
  in
  (states, bytes)

let resume ~sink ~step ~from pool states =
  let lanes = choose "resume" pool (Array.length states) in
  let total = ref 0. in
  Array.iteri
    (fun j lane ->
      let st = states.(j) in
      Pc_vm.Lanes.import_lane pool.lanes ~lane st;
      let bytes = Pc_vm.Lanes.lane_state_bytes st in
      total := !total +. bytes;
      Option.iter
        (fun sink ->
          sink
            (Obs_sink.Migration
               {
                 src_shard = from;
                 dst_shard = pool.shard;
                 member = st.Pc_vm.Lanes.ls_member;
                 bytes;
                 step;
               }))
        sink)
    lanes;
  (lanes, !total)

let move ~sink ~step src group dst =
  let states, _ = park src group in
  resume ~sink ~step ~from:src.shard dst states

(* [Pc_vm.Lanes.lane_state_bytes] of each occupied lane's export, read off
   the image: one row of every variable (a stacked variable's saved
   frames plus its top) and the pc column's saved entries plus its top. *)
let occupied_bytes (img : Pc_vm.Lanes.image) =
  let z = img.Pc_vm.Lanes.li_z in
  let lane_elems lane =
    List.fold_left
      (fun acc (_, s) ->
        acc
        +
        match s with
        | Vm_image.Reg (_, data) | Vm_image.Msk (_, data) -> Array.length data / z
        | Vm_image.Stk st ->
          (st.Stacked.i_sp.(lane) + 1) * (Array.length st.Stacked.i_top / z))
      0 img.Pc_vm.Lanes.li_store
  in
  let pc_sp = img.Pc_vm.Lanes.li_pc.Vm_image.pc_sp in
  let total = ref 0. in
  for lane = 0 to z - 1 do
    if img.Pc_vm.Lanes.li_occupied.(lane) then
      total :=
        !total
        +. (Vm_util.bytes_per_elem *. float_of_int (lane_elems lane + pc_sp.(lane) + 1))
  done;
  !total
