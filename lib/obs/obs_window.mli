(** Sliding-window counters on the simulated clock.

    A window of length [w] is split into a ring of [k] sub-buckets of
    width [w/k]; advancing the clock zeros whatever the clock skipped.
    Readouts therefore cover the last [w] simulated seconds with [w/k]
    granularity, in O(k) state, and are pure functions of the
    observation sequence — no wall time anywhere, so replays under the
    same seed read identically. {!Obs_slo} builds its multi-window
    burn-rate monitor on {!counter}. *)

type counter

val counter : ?buckets:int -> window:float -> unit -> counter
(** [buckets] (the ring size [k]) defaults to 8. Raises
    [Invalid_argument] on non-positive [window] or [buckets]. *)

val window : counter -> float

val add : counter -> now:float -> float -> unit
(** Accumulate a value at simulated time [now]. Observations older than
    the window (the clock already slid past their sub-bucket) are
    dropped. *)

val total : counter -> now:float -> float
(** Sum over the window ending at [now]. *)

val rate : counter -> now:float -> float
(** [total / window]: events (or value units) per simulated second. *)
