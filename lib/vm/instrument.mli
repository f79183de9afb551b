(** Runtime instrumentation shared by both autobatching VMs.

    The central quantity is per-primitive *batch utilization*: when a
    basic block executes with [useful] active members out of [issued]
    batch slots, every primitive in it does [useful] lanes of useful work
    while occupying [issued] lanes. The paper's Figure 6 is the
    utilization of the model-gradient primitive under the two batching
    strategies. *)

type t

val create : unit -> t
val reset : t -> unit

val merge : into:t -> t -> unit
(** Absorb another instrument's observations (counts sum, max depth takes
    the max). Used to combine the per-shard instruments of a multi-device
    run into one report. *)

val record_prim : t -> name:string -> useful:int -> issued:int -> unit

val record_push : t -> lanes:int -> unit
val record_pop : t -> lanes:int -> unit
val record_depth : t -> int -> unit
(** Observe a stack depth; the maximum is retained. *)

val observe_occupancy : t -> Obs_sink.event -> unit
(** Count one executed superstep from its {!Obs_sink.Occupancy} event:
    the block count, Σ active and Σ [total] (for {!overall_utilization}),
    the per-block profile ({!block_stats}), and the live-lane gauge
    ({!mean_occupancy}, {!occupancy_series}; adjacent samples merge as
    the run grows, so memory stays constant). Every other event is
    ignored. The VMs feed it the same event their sink receives
    ({!Vm_util.superstep}), so there is no separate counting path. *)

val utilization : t -> name:string -> float option
(** useful/issued lane fraction for one primitive; [None] if never run. *)

val overall_utilization : t -> float
(** Σ active / Σ batch over all executed blocks (1.0 when never run). *)

val mean_occupancy : t -> float
(** Σ live / Σ total over all observed supersteps (1.0 when never
    sampled). Distinct from {!overall_utilization}: a lane is *live* until
    it halts, even while waiting out a block it does not execute. *)

val live_samples : t -> int
(** Number of observed supersteps. *)

val occupancy_series : t -> (int * float) list
(** The live-lane gauge as [(first_step, mean_occupancy)] buckets in step
    order — at most a few hundred points spanning the whole run. Empty if
    nothing was observed. Not combined by {!merge} (shards run
    on independent step axes); the merge target keeps its own series. *)

val prim_issued : t -> name:string -> int
val prim_useful : t -> name:string -> int
val blocks_executed : t -> int
val pushes : t -> int
val pops : t -> int
val max_depth : t -> int

val block_stats : t -> (int * int * int) list
(** Per-block profile, sorted by execution count descending:
    [(block_index, executions, total_active_lanes)]. *)

(** Plain-data checkpoint of an instrument. Entry lists are sorted by key,
    so images of equal states are structurally equal ([=]); the resilience
    layer relies on this for bitwise-replay verification. *)
type image = {
  i_prims : (string * int * int) list;     (** name, useful, issued *)
  i_per_block : (int * int * int) list;    (** block, execs, active *)
  i_blocks : int;
  i_active_total : int;
  i_batch_total : int;
  i_pushes : int;
  i_pops : int;
  i_push_lanes : int;
  i_pop_lanes : int;
  i_max_depth : int;
  i_live_total : float;
  i_live_lanes_total : float;
  i_live_samples : int;
  i_gauge_width : int;
  i_gauge_used : int;
  i_gauge_fill : int;
  i_gauge_live : float array;
  i_gauge_lanes : float array;
}

val capture : t -> image

val restore : t -> image -> unit
(** Overwrite [t] with the image (counts, per-key tables, occupancy
    gauge), so a recovered run reports statistics from time zero. *)
