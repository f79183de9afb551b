(** Bounded admission queue with backpressure.

    Holds requests that have arrived but not yet been assigned lanes.
    Depth is bounded: offering to a full queue sheds the newcomer
    (classic admission control), which keeps the server's memory and
    worst-case queueing delay bounded under overload. *)

type t

val create : ?depth:int -> unit -> t
(** Default: unbounded depth. Raises [Invalid_argument] on non-positive
    depth. *)

val depth : t -> int
val length : t -> int

val shed_total : t -> int
(** Requests shed since creation. *)

val to_list : t -> Request.t list
(** Pending requests, oldest first (for inspection; does not pop). *)

val set_state : t -> items:Request.t list -> shed_total:int -> unit
(** Overwrite the queue's mutable state (the resilience layer's restore
    seam). [items] is oldest first, as {!to_list} returns; depth is a
    construction parameter and unchanged. *)

val offer : t -> Request.t -> [ `Admitted | `Shed of Request.t ]
(** Enqueue, or shed the newcomer when full. *)

val pop_fifo : t -> fits:(Request.t -> bool) -> Request.t option
(** The head, if [fits] accepts it; [None] otherwise (strict FIFO:
    a non-fitting head blocks the line). *)

val pop_shortest : t -> fits:(Request.t -> bool) -> Request.t option
(** The fitting request with the smallest {!Request.cost_hint}, ties by
    arrival order — shortest-expected-first admission. *)
