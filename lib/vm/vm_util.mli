(** Shared helpers for the autobatching runtimes (mask bookkeeping, the
    cost model's byte accounting, and the superstep announcement). *)

val bytes_per_elem : float
(** Every element is a float64. *)

val indices_of_mask : bool array -> int array
(** Positions of the set lanes, in order. *)

val count_mask : bool array -> int

val masked_write_bytes : lanes:int -> row:int -> float
(** Traffic of a masked write in a static-shape (XLA-style) system: a
    select reads old and new and writes the result. *)

val stack_move_bytes : lanes:int -> row:int -> float
(** Traffic of a batched stack push/pop: one row per lane moves between
    the stack body and the cached top, read plus write. *)

val elem_shape_of_batched : Tensor.t -> Shape.t
(** Drop the leading batch dimension. *)

val superstep :
  Obs_sink.t option ->
  Instrument.t option ->
  step:int ->
  block:int ->
  active:int ->
  live:int ->
  total:int ->
  unit
(** Announce one scheduled superstep, before its block runs: the sink
    receives [Step {shard = 0; step; block}] then
    [Occupancy {shard = 0; step; block; active; live; total}], and the
    instrument then counts the same [Occupancy]
    ({!Instrument.observe_occupancy}). A sink that raises aborts before
    the instrument counts. With neither attached, nothing is built. *)
