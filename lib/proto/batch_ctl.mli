(** §4.5 adaptive batch sizing, shared between the sim and real-domain
    backends.

    The budget rests at [initial_budget]; it halves only on an observed
    ring-full (a whole attempt rejected), down to [min_budget], recovers
    back toward [initial_budget] on full acceptance, and grows past it, up
    to [max_budget], only while the caller declares pressure (a backlog
    beyond one batch).  Partial acceptance leaves it unchanged. *)

type t

val min_budget : int
(** The floor ring-full halving stops at (4 messages). *)

val initial_budget : int
(** The resting budget (32 messages): one sender batch, which also bounds
    a receiver's batched dequeue. *)

val max_budget : int
(** The ceiling growth under pressure stops at (256 messages). *)

val create : unit -> t
(** A controller resting at [initial_budget]. *)

val budget : t -> int
val reset : t -> unit

val observe : t -> sent:int -> attempted:int -> pressure:bool -> unit
(** Report one vectored-enqueue attempt: [sent] of [attempted] accepted;
    [pressure] when a backlog remains beyond this batch. *)
