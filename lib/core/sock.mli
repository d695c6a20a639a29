(** User-space socket objects and their transports.

    A socket is two FIFO directions, each backed by an intra-host SHM
    channel or an inter-host RDMA ring.  A regular TCP peer (§4.5.3) gets
    no socket object: libsd rebinds the fd to a kernel FD.  Metadata and buffers live logically in shared memory so
    they survive fork ([refs]).  The connection state machine is the
    paper's Figure 6.

    The record types are concrete: the monitor builds transports, libsd
    drives the data path, and tests inspect state. *)

open Sds_sim
open Sds_transport

type state =
  | Closed
  | Bound
  | Listening
  | Wait_dispatch  (** SYN sent to monitor, waiting for queue setup *)
  | Wait_server  (** queue ready, waiting for server ACK *)
  | Wait_client  (** server side: dispatched, ACK not yet sent *)
  | Established
  | Shut

val string_of_state : state -> string

(** Both directions are the same ring channel in its SHM or RDMA flavour
    (§4.2); the tx side also tracks fork/exec RDMA re-initialization and
    the adaptive vectored-send budget. *)
type chan_tx = {
  chan : Shm_chan.t;
  mutable needs_reinit : bool;  (** set in a forked child / after exec *)
  batch : Sds_proto.Batch_ctl.t;
      (** §4.5 shared controller: rests at
          {!Sds_proto.Batch_ctl.initial_budget}, halves only on
          observed ring-full, grows past the resting point only under
          backlog pressure *)
}

val chan_tx : Shm_chan.t -> chan_tx

type t = {
  sid : int;
  mutable host : Host.t;  (** mutable: container live migration (§4.1.3) *)
  cost : Cost.t;
  mutable state : state;
  mutable tx : chan_tx option;
  mutable rx : Shm_chan.t option;
  send_token : Token.t;
  recv_token : Token.t;
  incoming : Msg.t Queue.t;  (** completed messages ready for recv *)
  rx_wq : Waitq.t;
  mutable deliver_hooks : (unit -> unit) list;
  cursor : Sds_proto.Stream_core.cursor;  (** partly read record, guarded by [recv_token] *)
  mutable nonblocking : bool;  (** O_NONBLOCK *)
  mutable local_port : int;
  mutable peer_host : int;
  mutable peer_port : int;
  mutable refs : int;  (** shared across fork *)
  mutable peer_sock : t option;  (** simulator-side pairing, for migration *)
  mutable fin_sent : bool;
  mutable fin_seen : bool;
  mutable reset : bool;  (** peer died abnormally: ECONNRESET semantics *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
  mutable zerocopy_sends : int;
  mutable zerocopy_recvs : int;
  mutable requested_bufsize : int option;  (** SO_SNDBUF/SO_RCVBUF request *)
  policy : Sds_proto.Copy_policy.t;  (** per-socket selective-copy state (§4.6 + Libra) *)
}

val create : Host.t -> cost:Cost.t -> tid:int -> ?copy_mode:Sds_proto.Copy_policy.mode -> unit -> t

val tx_exn : t -> chan_tx

val deliver : t -> Msg.t -> unit
(** Commit a completed inbound message (NIC sink / SHM poll path). *)

val add_deliver_hook : t -> (unit -> unit) -> unit

val mark_reset : t -> unit
(** Abnormal peer death: sets [reset] (ECONNRESET semantics — buffered
    data is dropped by the libsd layer), wakes [rx_wq] sleepers and epoll
    watchers.  Idempotent. *)

val has_buffered : t -> bool

val poll_rx : t -> bool
(** Poll the rx transport once, moving anything available into [incoming];
    true if progress was made. *)

val readable : t -> bool
val is_eof : t -> bool
