(** The per-socket ring channel (§4.2), in both transport flavours: shared
    memory (visibility = one cache-line migration) and RDMA (visibility =
    the one-sided WRITE-with-immediate commit, strictly ordered by the NIC
    model).  Flow control is the ring's credit scheme with batched half-ring
    returns travelling back over the same transport.

    All data-path functions must run inside a simulated proc. *)

open Sds_sim

type mode = Sds_notify.Policy.mode = Polling | Interrupt

type via =
  | Shm
  | Rdma of Nic.qp

type t

val create : Engine.t -> cost:Cost.t -> ?ring_size:int -> unit -> t
(** Intra-host flavour. *)

val create_rdma : Engine.t -> cost:Cost.t -> qp:Nic.qp -> ?ring_size:int -> unit -> t
(** Inter-host flavour; installs [qp]'s remote sink to commit into this
    channel. *)

val token : t -> int
(** The secret marking the queue; non-holders cannot attach (§3). *)

val via : t -> via

val rx_waitq : t -> Waitq.t
(** Signalled on every delivery. *)

val tx_waitq : t -> Waitq.t
(** Signalled when credits return to the sender. *)

val set_mode : t -> mode -> unit
val mode : t -> mode

val rx_policy : t -> Sds_notify.Policy.t
(** The receiver's polling↔interrupt state machine — the same
    implementation the real cross-domain waiter runs. *)

val set_interrupt_hook : t -> (t -> unit) -> unit
(** Called on delivery while the receiver is in interrupt mode — the
    sender-side "notify the monitor" trigger of §4.4. *)

val add_deliver_hook : t -> (unit -> unit) -> unit
(** Called on every delivery (epoll notification). *)

val sent : t -> int
val received : t -> int

val credits : t -> int
(** Sender-side view of free ring bytes. *)

val pending : t -> int
(** Messages committed but not yet received. *)

type send_result = Sent | Full

val try_send : t -> Msg.t -> send_result
(** Non-blocking; [Full] when the sender lacks ring credits.  A
    [Msg.Pool] payload enqueues its page descriptors out-of-band
    ([Spsc_ring.flag_desc]) — ownership handoff, no payload blit. *)

val try_send_batch : t -> Msg.t list -> int
(** Vectored send: enqueues the longest prefix the ring credits accept in
    one batched ring operation (single tail publication / credit spend);
    returns how many messages were sent. *)

val try_recv : t -> Msg.t option
(** Non-blocking; posts batched credit returns to the sender. *)
