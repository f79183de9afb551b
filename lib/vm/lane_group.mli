(** Request-to-lane binding: the one layer between a {!Pc_vm.Lanes} pool
    and the drivers that serve work on it — the continuous-batching
    server ([Server] in [lib/serve]), the defragmenting runtime
    ({!Sched_vm}) and the multi-tenant server ([Tenant_server] in
    [lib/tenant]).

    A {e group} is the lanes of one request, in row order: row [i] runs
    as RNG member [member + i] (the member-offset technique that makes
    serving bitwise identical to running the request alone with
    [member_base = member]). {!Sched_vm} uses groups of width 1.

    Every operation here does its bookkeeping in one place: lane choice
    goes through {!Sched_plan.choose_lanes}; refills and retires are
    charged to the pool's engine ({!Engine.charge_refill} /
    {!Engine.charge_retire}); moved lane states are summed in bytes and
    announced as one {!Obs_sink.Migration} per lane. Transfer {e pricing}
    stays with the callers, whose transfer names and link costs differ.
    The raw {!Pc_vm.Lanes.load} and {!Pc_vm.Lanes.retire} stay uncharged
    for the whole-batch runtimes. *)

type pool = private {
  lanes : Pc_vm.Lanes.t;
  engine : Engine.t option;  (** the lane pool's engine, if costed *)
  shard : int;  (** names the pool in [Migration] events *)
}

val create :
  shard:int -> config:Pc_vm.config -> Prim.registry -> Stack_ir.program -> z:int -> pool
(** [z] idle lanes; the pool's engine is [config.engine]. *)

val admit : pool -> member:int -> Tensor.t list array -> int array
(** Load one group — row [i]'s element inputs onto the [i]-th lowest free
    lane as member [member + i] — charging one refill per lane. Returns
    the group's lanes. Raises [Invalid_argument] if too few lanes are
    free. *)

val finished : pool -> int array -> bool
(** Every lane of the group has halted. *)

val retire : pool -> int array -> Tensor.t list
(** Retire every lane of a finished group, charging one retire per lane,
    and stack the rows: outputs with a leading width dimension, exactly
    as [Autobatch.run_pc] returns them. *)

val park : pool -> int array -> Pc_vm.Lanes.lane_state array * float
(** Export and evict every lane of the group: its states, in row order,
    and their total size in bytes. *)

val resume :
  sink:Obs_sink.t option ->
  step:int ->
  from:int ->
  pool ->
  Pc_vm.Lanes.lane_state array ->
  int array * float
(** Import parked states into the lowest free lanes of the pool, emitting
    a [Migration] from shard [from] per lane. Returns the new lanes and
    the bytes moved. Raises [Invalid_argument] if too few lanes are
    free. *)

val move :
  sink:Obs_sink.t option -> step:int -> pool -> int array -> pool -> int array * float
(** [move ~sink ~step src group dst]: {!park} the group in [src] and
    {!resume} it in [dst] (which may be [src]). *)

val occupied_bytes : Pc_vm.Lanes.image -> float
(** What {!park} would report for every occupied lane of the image,
    without copying any lane state. *)
