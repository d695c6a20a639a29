(** A costed, unidirectional kernel byte stream: the common substrate of
    pipes, FIFOs, Unix domain sockets and post-handshake TCP connections.

    Writers and readers pay per-operation (syscall + FD lock), per-packet
    (as framed by the sender) and per-byte CPU charges; the wire adds
    latency; a reader that slept pays the process wakeup.  Data is real
    bytes with POSIX stream semantics (partial reads, EOF, EPIPE).

    All data-path functions must run inside a simulated proc. *)

open Sds_sim

type profile = {
  label : string;
  syscall : int;
  fd_lock : int;
  sender_pkt : int;
  receiver_pkt : int;  (** incl. softirq / NIC interrupt *)
  wire : int;  (** one-way latency outside the CPUs *)
  wire_per_kb : int;
  copy_per_kb : int;
  mtu : int;
  wakeup : int;
  capacity : int;
}

val pipe_profile : Cost.t -> profile
val unix_profile : Cost.t -> profile
val tcp_intra_profile : Cost.t -> profile
(** Loopback: GSO-sized segments, softirq dispatch, no NIC. *)

val tcp_inter_profile : Cost.t -> profile
(** Wire MTU segments, NIC DMA + interrupt per packet. *)

type t

val create : Engine.t -> profile:profile -> t
val profile : t -> profile

val readable_now : t -> bool
(** Data visible, or clean EOF with nothing in flight. *)

val writable_now : t -> bool
val readable_waitq : t -> Waitq.t

val wakeups : t -> int
(** Times the reader was found asleep on arrival. *)

val bytes_moved : t -> int

val on_readable : t -> (unit -> unit) -> unit
(** Edge callbacks for epoll. *)

val write : t -> Bytes.t -> off:int -> len:int -> int
(** Blocking full write; raises [Unix.Unix_error (EPIPE, _, _)] when the
    read side closed. *)

val read : t -> Bytes.t -> off:int -> len:int -> int
(** Blocking read of up to [len] bytes; 0 = EOF. *)

val try_read : t -> Bytes.t -> off:int -> len:int -> [ `Read of int | `Eof | `Would_block ]

val close_write : t -> unit
val close_read : t -> unit
