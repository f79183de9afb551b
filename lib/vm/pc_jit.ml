type t = Pc_vm.Lanes.precompiled

let compile reg p ~batch = Pc_vm.Lanes.precompile (Pc_vm.Lanes.create reg p ~z:batch)
let lanes = Pc_vm.Lanes.precompiled_pool
let step = Pc_vm.Lanes.step_precompiled
let steps t = Pc_vm.Lanes.steps (lanes t)

let run ?sched ?engine ?instrument ?sink ?max_steps t ~batch =
  let pool = lanes t in
  Pc_vm.Lanes.load_batch pool ~batch;
  while step ?sched ?engine ?instrument ?sink ?max_steps t do
    ()
  done;
  Pc_vm.Lanes.outputs pool
