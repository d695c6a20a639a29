(** The simulated per-host Linux kernel: process table, per-process FD
    namespaces (copy-on-write across fork), the TCP port namespace with
    listener backlogs, pipes/Unix-domain sockets, and epoll.

    This is the baseline stack the paper measures against, and the substrate
    libsd falls back to for non-socket FDs and non-SocksDirect peers.  The
    TCP state machine is the RFC 793 subset driven by connect / accept /
    shutdown / close.

    Errors are the kernel's: [Unix.Unix_error (errno, call, "")] with
    EBADF, ENOTSOCK, EADDRINUSE, ECONNREFUSED or EPIPE.

    All blocking calls must run inside a simulated proc. *)

open Sds_sim
open Sds_transport

type tcp_state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

val string_of_state : tcp_state -> string

type t

type process = {
  pid : int;
  kernel : t;
  mutable fds : kobj Fd_table.t;
  mutable parent : process option;
  mutable forked_children : int;
}

and kobj =
  | Tcp of tcp_ep
  | Tcp_listener of listener
  | Pipe_r of pipe_end
  | Pipe_w of pipe_end
  | Epoll of epoll
  | Plain_file of string

and pipe_end = { pstream : Kstream.t; mutable p_refs : int }

and tcp_ep = {
  ep_id : int;
  ep_kernel : t;
  mutable state : tcp_state;
  mutable rx : Kstream.t option;
  mutable tx : Kstream.t option;
  mutable local_port : int;
  mutable remote : (int * int) option;
  mutable peer : tcp_ep option;
  mutable refs : int;
}

and listener = {
  l_kernel : t;
  l_port : int;
  backlog : tcp_ep Queue.t;
  accept_wq : Waitq.t;
  max_backlog : int;
  mutable l_refs : int;
}

and epoll

val for_host : Host.t -> t
(** The kernel instance for a host, created on first use. *)

val host : t -> Host.t
val conn_setups : t -> int

val spawn_process : t -> ?parent:process -> unit -> process

val fork : process -> process
(** FD table copied; shared objects gain a reference. *)

val lookup : process -> int -> kobj
(** Raises [Unix.Unix_error (EBADF, _, _)]. *)

(* ---- TCP ---- *)

val socket : process -> int
(** Allocates the FD + inode (Table 2: 1.6 us). *)

val listen : process -> int -> port:int -> ?backlog:int -> unit -> unit
val connect : process -> int -> dst:Host.t -> port:int -> unit
val accept : process -> int -> int
val established : tcp_ep -> bool

val send : process -> int -> Bytes.t -> off:int -> len:int -> int
val recv : process -> int -> Bytes.t -> off:int -> len:int -> int
(** 0 = orderly EOF. *)

val shutdown_send : tcp_ep -> unit
val close : process -> int -> unit
val tcp_state : process -> int -> tcp_state

val open_file : process -> string -> int
(** open(2) on a regular file (a [Plain_file] kobj). *)

(* ---- pipes / socketpairs ---- *)

val pipe : process -> int * int
(** [(read_fd, write_fd)]. *)

val unix_socketpair : ?profile:Kstream.profile -> process -> int * int

(* ---- epoll ---- *)

val epoll_create : process -> int
val epoll_add : process -> int -> watch_pid:int -> fd:int -> unit
val epoll_del : process -> int -> fd:int -> unit

val epoll_wait : process -> int -> ?timeout_ns:int -> unit -> int list
(** Level-triggered readability. *)

val obj_readable : kobj -> bool
