(** RSocket baseline (§2.2, Table 3/4): socket-to-RDMA translation with
    two-sided verbs, per-FD locks, buffer copies on both sides, a shared
    buffer manager that serializes allocations, and intra-host traffic
    hairpinned through the NIC.  No epoll, no fork — the compatibility gaps
    Table 3 records.

    All blocking calls must run inside a simulated proc. *)

open Sds_transport

exception Not_supported of string

type conn
type listener

val reset : unit -> unit
(** Clear the stack-global registries (between experiment worlds). *)

val listen : Host.t -> port:int -> listener
val connect : Host.t -> dst:Host.t -> port:int -> conn
val accept : listener -> conn

val send : conn -> Bytes.t -> off:int -> len:int -> int
(** Raises [Unix.Unix_error (EPIPE, _, _)] once either end closed. *)

val recv : conn -> Bytes.t -> off:int -> len:int -> int
val close : conn -> unit

val epoll : unit -> 'a
(** Raises {!Not_supported}. *)

val fork : unit -> 'a
(** Raises {!Not_supported}. *)
