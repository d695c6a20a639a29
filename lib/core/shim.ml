(* The glibc-interposition surface (§3).

   Real libsd is LD_PRELOADed and intercepts every FD-related C-library
   call, implementing socket FDs in user space and forwarding everything
   else to the kernel through the FD remapping table.  This module is that
   uniform surface: read/write/close/fcntl/sockopt calls that work the same
   whether the descriptor is a SocksDirect socket, a kernel TCP fallback, a
   pipe end, or a plain file. *)

open Sds_sim
module Kernel = Sds_kernel.Kernel
module Fd_table = Sds_kernel.Fd_table

exception Not_supported of string

(* ---- files (always kernel-backed) ---- *)

(* open(2) on a regular file: kernel FD, exposed through the remapping
   table like any non-socket descriptor. *)
let open_file th path =
  let kproc = Libsd.thread_kernel_process th in
  let kfd = Kernel.open_file kproc path in
  Libsd.register_kernel_fd th kfd

(* ---- unified read/write ---- *)

(* read(2): sockets, pipes and fallback connections all answer. *)
let read th fd buf ~off ~len = Libsd.recv th fd buf ~off ~len

(* write(2). *)
let write th fd buf ~off ~len = Libsd.send th fd buf ~off ~len

let close th fd = Libsd.close th fd

(* ---- fcntl ---- *)

type fcntl_cmd =
  | F_GETFL
  | F_SETFL of { nonblock : bool }
  | F_DUPFD

let fcntl th fd cmd =
  match cmd with
  | F_GETFL -> (
    match Libsd.lookup th fd with
    | Libsd.U s -> if s.Sock.nonblocking then 1 else 0
    | Libsd.K _ | Libsd.Ep _ -> 0)
  | F_SETFL { nonblock } ->
    Libsd.set_nonblocking th fd nonblock;
    0
  | F_DUPFD -> Libsd.dup th fd

(* ---- socket options ---- *)

type sockopt =
  | SO_SNDBUF
  | SO_RCVBUF
  | SO_REUSEADDR
  | SO_KEEPALIVE
  | TCP_NODELAY
  | SO_ERROR

(* The options applications commonly set.  Several are structurally
   meaningless on SocksDirect and accepted as no-ops for compatibility:
   TCP_NODELAY (there is no Nagle — adaptive batching is transparent and
   latency-neutral on idle links), SO_KEEPALIVE (peer liveness comes from
   the monitor), SO_REUSEADDR (ports are monitor-managed). *)
let setsockopt th fd opt value =
  Proc.sleep_ns 15;
  match (Libsd.lookup th fd, opt) with
  | Libsd.U s, (SO_SNDBUF | SO_RCVBUF) ->
    if value <= 0 then invalid_arg "setsockopt: buffer size must be positive";
    (* Ring sizes are fixed at queue setup; remember the request so
       getsockopt round-trips, as Linux does (it doubles, we don't). *)
    s.Sock.requested_bufsize <- Some value
  | Libsd.U _, (SO_REUSEADDR | SO_KEEPALIVE | TCP_NODELAY) -> ()
  | Libsd.U _, SO_ERROR -> invalid_arg "setsockopt: SO_ERROR is read-only"
  | (Libsd.K _ | Libsd.Ep _), _ -> ()

let getsockopt th fd opt =
  Proc.sleep_ns 15;
  match (Libsd.lookup th fd, opt) with
  | Libsd.U s, (SO_SNDBUF | SO_RCVBUF) -> (
    match s.Sock.requested_bufsize with
    | Some v -> v
    | None -> Libsd.ring_size)
  | Libsd.U _, (SO_REUSEADDR | SO_KEEPALIVE) -> 1
  | Libsd.U _, TCP_NODELAY -> 1
  | Libsd.U s, SO_ERROR -> if s.Sock.state = Sock.Shut then 104 (* ECONNRESET *) else 0
  | (Libsd.K _ | Libsd.Ep _), _ -> 0

(* ---- getpeername / getsockname ---- *)

let getsockname th fd =
  match Libsd.lookup th fd with
  | Libsd.U s -> (Sds_transport.Host.id s.Sock.host, s.Sock.local_port)
  | Libsd.K _ | Libsd.Ep _ -> raise (Not_supported "getsockname on kernel fd")

let getpeername th fd =
  match Libsd.lookup th fd with
  | Libsd.U s ->
    if s.Sock.state <> Sock.Established then invalid_arg "getpeername: not connected";
    (s.Sock.peer_host, s.Sock.peer_port)
  | Libsd.K _ | Libsd.Ep _ -> raise (Not_supported "getpeername on kernel fd")
