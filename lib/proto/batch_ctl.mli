(** §4.5 adaptive batch sizing, shared between the sim and real-domain
    backends.

    The budget rests at [initial]; it halves only on an observed ring-full
    (a whole attempt rejected), recovers back toward [initial] on full
    acceptance, and grows past [initial] only while the caller declares
    pressure (a backlog beyond one batch).  Partial acceptance leaves it
    unchanged. *)

type t

val initial_budget : int
(** The resting budget [create] defaults [initial] to (32 messages): one
    sender batch, which also bounds a receiver's batched dequeue. *)

val create : ?min_b:int -> ?initial:int -> ?max_b:int -> unit -> t
(** Defaults 4 / 32 / 256.  Raises [Invalid_argument] unless
    [1 <= min_b <= initial <= max_b]. *)

val budget : t -> int
val reset : t -> unit

val observe : t -> sent:int -> attempted:int -> pressure:bool -> unit
(** Report one vectored-enqueue attempt: [sent] of [attempted] accepted;
    [pressure] when a backlog remains beyond this batch. *)
