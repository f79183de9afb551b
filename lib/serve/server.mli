(** Continuous-batching request server.

    Drives one {!Pc_vm.Lanes} pool (bound to requests through
    {!Lane_group}) through the program-counter VM's
    superstep loop, streaming requests through recyclable lanes: each
    superstep admits every due arrival into a bounded {!Request_queue},
    refills freed lanes per the admission policy, executes one scheduled
    block across all live lanes, and retires any request whose lanes have
    halted — freeing them for the next refill {e mid-run}, instead of
    waiting for the whole batch to drain (the fixed-batch regime of the
    paper's Figure 6, kept here as the [Synchronous] baseline).

    The server clock advances by the engine's simulated elapsed time per
    superstep when the VM config carries an engine, else by 1.0 per
    superstep; idle periods jump straight to the next arrival. *)

type policy =
  | Fifo  (** strict arrival order; a wide head blocks the line *)
  | Shortest_first  (** admissible request with the smallest cost hint *)
  | Synchronous
      (** fixed-batch baseline: refill only once every lane has drained *)

val policy_name : policy -> string

type config = {
  lanes : int;
  policy : policy;
  queue_depth : int;  (** a full queue sheds the newcomer *)
  vm : Pc_vm.config;
      (** engine/instrument/sched for the lane pool; an instrument is
          created if absent so occupancy is always recorded (the lane
          pool's per-superstep [Occupancy] events feed it via
          [Instrument.observe_occupancy] — the occupancy stats below and
          any profiler sink read the same event stream). The VM config's
          [sink] is shared with the server itself: besides the lane
          pool's [Step]/[Occupancy] events, it receives the request
          lifecycle —
          [Request_enqueued]/[Request_shed]/[Request_rejected] instants
          and one [Request_completed] span per served request, all on the
          server clock. *)
}

val default_config : config
(** 8 lanes, [Fifo], queue depth 64, {!Pc_vm.default_config}. *)

type record = {
  request : Request.t;
  outputs : Tensor.t list;  (** leading width dim, as [run_pc] returns *)
  queued : float;  (** arrival time *)
  started : float;  (** lanes assigned *)
  finished : float;  (** all lanes halted, outputs retired *)
}

val queueing_latency : record -> float
val service_latency : record -> float
val total_latency : record -> float

type stats = {
  completions : record list;  (** completion order *)
  shed : Request.t list;  (** victims of queue backpressure *)
  rejected : Request.t list;  (** wider than the whole device *)
  steps : int;  (** supersteps executed *)
  idle_steps : int;  (** clock jumps with no runnable lane *)
  makespan : float;  (** server clock at completion of the last request *)
  mean_occupancy : float;  (** mean live-lane fraction over all supersteps *)
  occupancy : (int * float) list;  (** downsampled time series *)
  instrument : Instrument.t;
}

val run :
  ?config:config ->
  ?on_complete:(record -> Request.t option) ->
  program:Autobatch.compiled ->
  Request.t list ->
  stats
(** Serve the given arrival trace to completion. [on_complete] may inject
    a follow-up request per completion (closed-loop load generation); its
    arrival is clamped to the current clock. Raises [Invalid_argument] if
    a request was compiled from a different program. Equivalent to
    {!create} followed by {!step} until it returns [false], then
    {!stats}. *)

(** {1 Steppable interface}

    The server's whole state behind one superstep-at-a-time handle, so a
    resilience layer can checkpoint between supersteps ({!capture} /
    {!restore}) and a driver can interleave other work. *)

type t

val create :
  ?config:config ->
  ?on_complete:(record -> Request.t option) ->
  program:Autobatch.compiled ->
  Request.t list ->
  t

val step : t -> bool
(** One server superstep: admit due arrivals, refill freed lanes, execute
    one scheduled block over the live lanes (or poll loaded-but-halted
    groups, or jump the clock to the next arrival). [false] when the trace
    is fully drained. *)

val stats : t -> stats
(** The run's statistics so far (final once {!step} returns [false]).
    Idempotent. *)

val now : t -> float
(** The server clock: simulated seconds when the VM config has an engine,
    supersteps otherwise. The natural [clock] for an [Obs_trace.sink]
    wired into [config.vm]. *)

(** Plain-data checkpoint of one completion. *)
type completion_image = {
  ci_request : Request.image;
  ci_outputs : (Shape.t * float array) list;
  ci_queued : float;
  ci_started : float;
  ci_finished : float;
}

(** Plain-data checkpoint of the server's complete state: clock, pending
    trace (including requests injected by [on_complete]), bounded queue,
    shed/rejected/completed records, the lane pool, and the engine and
    instrument snapshots. Request/record lists are in internal (newest
    first) order except [si_pending], [si_queue] and [si_flight], which
    are oldest first. *)
type image = {
  si_now : float;
  si_last_elapsed : float;
  si_idle_steps : int;
  si_pending : Request.image list;
  si_queue : Request.image list;
  si_queue_shed_total : int;
  si_shed : Request.image list;
  si_rejected : Request.image list;
  si_completions : completion_image list;
  si_vm : Pc_vm.Lanes.image;  (** the lane pool *)
  si_flight : (Request.image * int array * float) list;
      (** in-flight requests in admission order, with their lanes and
          start times *)
  si_engine : Engine.snapshot option;
  si_instrument : Instrument.image;
}

val capture : t -> image

val restore : t -> image -> unit
(** Overwrite the server's state with the image. Restore into a server
    built by {!create} with the same configuration, program, and
    [on_complete] (the callback is construction, not state — it must be
    deterministic for replay to be). Raises [Invalid_argument] if the
    image and server disagree about having an engine. *)
