(** Program-counter autobatching with precompiled blocks.

    A {!Pc_vm.Lanes} pool plus its precompiled block table
    ({!Pc_vm.Lanes.precompile}): semantically identical to {!Pc_vm}
    (Algorithm 2) — same scheduling loop, masking, state and checkpoint
    image — with the interpreter work done once, ahead of time. Only the
    host-side dispatch overhead changes (measured by the [control]
    workload of [perfbench/]). *)

type t

val compile : Prim.registry -> Stack_ir.program -> batch:int -> t
(** Prepare a reusable executor for a fixed batch size. Raises
    [Invalid_argument] if the program lacks inferred shapes for some
    variable (compile the program with [input_shapes]). *)

val run :
  ?sched:Sched_policy.t ->
  ?engine:Engine.t ->
  ?instrument:Instrument.t ->
  ?sink:Obs_sink.t ->
  ?max_steps:int ->
  t ->
  batch:Tensor.t list ->
  Tensor.t list
(** Execute on inputs whose batch dimension matches [compile]'s. The
    executor is reusable: {!Pc_vm.Lanes.load_batch} restarts the pool,
    then {!step} runs until it returns [false], then
    {!Pc_vm.Lanes.outputs}. *)

val lanes : t -> Pc_vm.Lanes.t
(** The executor's lane pool: load, outputs, capture and restore go
    through it. *)

val step :
  ?sched:Sched_policy.t ->
  ?engine:Engine.t ->
  ?instrument:Instrument.t ->
  ?sink:Obs_sink.t ->
  ?max_steps:int ->
  t ->
  bool
(** {!Pc_vm.Lanes.step_precompiled}: one scheduled basic block; [false]
    when every lane has halted. Raises {!Pc_vm.Step_limit_exceeded} past
    [max_steps]. *)

val steps : t -> int
(** Supersteps executed since the pool was last loaded. *)
