(** libsd: the user-space socket library (§3, §4).

    One {!process_ctx} per simulated process (FD remapping table, page pool,
    SHM control queue to the local monitor), one {!thread} per application
    thread (pinned to a core; threads share sockets via tokens).

    The API mirrors POSIX sockets — socket / bind / listen / accept /
    connect / send / recv / shutdown / close / epoll / poll / select — plus
    fork, exec, and container live migration.  All calls except {!init} must
    run inside a simulated proc.

    Socket errors are the kernel's: every call raises
    [Unix.Unix_error (errno, call, "")] with the errno a Linux socket
    returns — EBADF for an unknown fd, EADDRINUSE from [bind],
    ECONNREFUSED from [connect], ENOTCONN from [send] before [connect],
    EPIPE from [send] after this end's shutdown or the peer's abort,
    ECONNRESET from [recv] after the peer's abort (dropping any buffered
    data, reset semantics) and EAGAIN from [try_recv].  A kernel fd (TCP
    fallback) raises the same errnos through {!Kernel}. *)

open Sds_transport
module Kernel = Sds_kernel.Kernel
module Fd_table = Sds_kernel.Fd_table

type config = {
  batching : bool;  (** adaptive RDMA batching (§4.2); off in "SD (unopt)" *)
  copy_policy : Sds_proto.Copy_policy.mode;
      (** §4.6 + Libra selective copying onto the descriptor path, over SHM
          and RDMA alike; [Always_copy] in "SD (unopt)" *)
}

val default_config : config

val ring_size : int
(** Per-direction ring bytes of a socket channel (64 KiB). *)

type epoll

(** An entry of the FD remapping table (§4.5.1): a user-space socket, a
    kernel FD, or an epoll instance. *)
type entry =
  | U of Sock.t
  | K of Kernel.process * int
  | Ep of epoll

type process_ctx
type thread

(* ---- process / thread lifecycle ---- *)

val init : ?config:config -> Host.t -> process_ctx
(** Load libsd into a fresh process on [Host.t], attached to the local
    monitor. *)

val create_thread : process_ctx -> ?core:int -> unit -> thread
val destroy_thread : thread -> unit

val fork : thread -> process_ctx
(** fork(2): socket metadata/buffers shared (in SHM), FD remapping table
    copied, tokens stay with the parent, the child re-establishes RDMA
    resources on first use, and the child pairs with the monitor via a
    secret (§4.1.2). *)

val exec : process_ctx -> unit
(** exec(2): the address space is wiped; the FD remapping table is copied to
    SHM just before and re-attached; RDMA is re-initialized on use. *)

val migrate : process_ctx -> to_host:Host.t -> unit
(** Container live migration (§4.1.3): in-flight data drains into the socket
    queues (part of the memory image), then every established connection's
    channels are re-built for the new locality (SHM <-> RDMA).  Threads are
    re-created by the caller after migration. *)

val simulate_crash : process_ctx -> unit
(** Abnormal death: peers observe hangup-then-EOF after draining what was
    already sent (§4.5.4). *)

val simulate_abort : process_ctx -> unit
(** The hard flavour of [simulate_crash] (§4.3): no drain — peers observe a
    reset (ECONNRESET on recv, EPIPE on send), and the
    monitor releases the dead pid's port binds so a restarted server can
    bind the same port. *)

(* ---- sockets ---- *)

val socket : thread -> int
(** Pure user-space: no kernel FD, no inode; lowest-free-FD semantics. *)

val bind : thread -> int -> port:int -> unit
(** [port = 0] requests an ephemeral port from the monitor. *)

val listen : thread -> int -> unit
val accept : thread -> int -> int
val connect : thread -> int -> dst:Host.t -> port:int -> unit

val send : thread -> int -> Bytes.t -> off:int -> len:int -> int
val recv : thread -> int -> Bytes.t -> off:int -> len:int -> int

val try_recv : thread -> int -> Bytes.t -> off:int -> len:int -> int
(** Raises EAGAIN on an O_NONBLOCK socket with nothing buffered. *)

val set_nonblocking : thread -> int -> bool -> unit
val dup : thread -> int -> int
val shutdown : thread -> int -> [ `Send | `Recv | `Both ] -> unit
val close : thread -> int -> unit

(* ---- event notification (§4.4) ---- *)

val epoll_create : thread -> int
val epoll_add : thread -> int -> int -> unit
val epoll_del : thread -> int -> int -> unit

val epoll_wait : thread -> int -> ?timeout_ns:int -> unit -> int list
(** Level-triggered readability over mixed user/kernel FDs; polls, then
    yields the core, then blocks on delivery hooks. *)

val poll : thread -> int list -> ?timeout_ns:int -> unit -> int list
val select : thread -> read:int list -> ?timeout_ns:int -> unit -> int list

(* ---- introspection ---- *)

val lookup : thread -> int -> entry
val fd_readable : thread -> int -> bool

val sock_stats : thread -> int -> int * int * int * int * int
(** [(bytes_sent, bytes_received, zerocopy_sends, zerocopy_recvs,
    token_takeovers)]. *)

val pool_of : process_ctx -> Sds_vm.Pagepool.t
(** The pool this process's descriptor sends stage into, created on first
    use (normally the first descriptor send).  Receivers release the pages
    back into it; it is dropped with the process. *)

val kernel_process : process_ctx -> Kernel.process
val monitor_of : thread -> Monitor.t
val thread_kernel_process : thread -> Kernel.process

val register_kernel_fd : thread -> int -> int
(** Expose a kernel FD (file, pipe end) through the remapping table. *)
