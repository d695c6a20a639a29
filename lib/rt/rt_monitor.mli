(** Real-domain monitor: §4.5.2 prefork accept dispatch on actual domains,
    through the same {!Sds_proto.Dispatch_core} policy as the simulator's
    monitor (round-robin with backlog capacity + idle-worker stealing).

    Lifecycle: [create ~workers], each worker domain calls
    [register ~index], the caller barriers on [registered] = [workers],
    then clients [connect] and workers [accept] until [close_listener]. *)

type t
type worker

val create : ?ring_size:int -> ?capacity:int -> workers:int -> unit -> t
(** A listener dispatching to [workers] worker domains; [capacity] bounds
    each per-worker accept backlog (default 128). *)

val register : t -> index:int -> worker
(** Called from worker domain [index]'s own domain; binds its {!Rt_dom}
    slot for wakeups.  Re-registering an index whose previous worker
    incarnation is dead is the restart path: the replacement inherits the
    predecessor's undrained (unpoisoned) backlog.  Re-registering a live
    index raises. *)

val workers : t -> int
val registered : t -> int
val accepted : t -> int

val pending : t -> int -> int
(** Worker [i]'s current backlog length (lock-free mirror). *)

val served : worker -> int
val stolen : worker -> int
(** Connections this worker accepted, and of those, how many it stole. *)

val connect : t -> dom:int -> Rt_sock.t
(** Create a connection, dispatch the server end to a worker backlog, wake
    that worker, return the client end.  All workers must be registered. *)

val accept : t -> index:int -> Rt_sock.t option
(** Blocking accept for worker [index]: own backlog, else steal from the
    longest sibling, else park.  [None] once closed and fully drained. *)

val close_listener : t -> unit

(** {1 Liveness reaper (§4.3)} *)

val start_reaper : ?interval_s:float -> ?stalls:int -> unit -> unit
(** Start the process-wide reaper (idempotent): every [interval_s]
    (default 5 ms) it samples each {!Rt_dom.enroll}ed live slot's
    heartbeat, and after [stalls] (default 8) consecutive unchanged
    samples — while the slot is not parked on its own waiter —
    {!Rt_dom.declare_dead}s it (counted as [fault.reaped]).  The silence
    window is therefore bounded by [interval_s * (stalls + 1)]. *)

val stop_reaper : unit -> unit
(** Stop and join the reaper; no-op when not running. *)
