(** The per-host trusted monitor daemon (§3, §4.5).

    A single simulated thread polling control messages from every local
    libsd instance and from remote monitors.  It allocates ports, enforces
    access control, dispatches new connections round-robin to per-listener-
    thread backlogs, serves work stealing, pairs forked children by secret,
    and sets up peer-to-peer data queues.  The data plane never touches it. *)

open Sds_sim
open Sds_transport

(** Both endpoint sockets of a connection, filled in as each side attaches;
    pairs peers for container live migration. *)
type pairing = { mutable c_sock : Sock.t option; mutable s_sock : Sock.t option }

type syn_entry = {
  s_tx : Sock.chan_tx;  (** server's sending side *)
  s_rx : Shm_chan.t;
  syn_client_host : int;
  syn_client_port : int;
  syn_pairing : pairing;
}

type listener_thread = {
  lt_uid : int;  (** unique per accepting thread *)
  lt_backlog : syn_entry Queue.t;
  lt_wq : Waitq.t;
  lt_max : int;
}

type connect_reply =
  | Sds_queues of Sock.chan_tx * Shm_chan.t * pairing
  | Fallback of Sds_kernel.Kernel.process * int  (** kernel endpoint fd *)
  | Refused of string

type request =
  | Bind of { b_port : int; b_pid : int; b_reply : (int, string) result -> unit }
  | Listen of { l_port : int; l_thread : listener_thread; l_reply : (unit, string) result -> unit }
  | Syn of { syn_dst : Host.t; syn_port : int; syn_src_pid : int; syn_reply : connect_reply -> unit }
  | Steal of { st_port : int; st_for : int; st_reply : syn_entry option -> unit }
  | Fork_pair of { fp_secret : int; fp_reply : bool -> unit }
  | Wake of { w_fn : unit -> unit }  (** interrupt-mode wakeup relay (§4.4) *)
  | Died of { d_pid : int }
      (** abnormal process death: release every port the pid still owned so
          a restarted server can bind again (§4.3 crash cleanup) *)

type t

val for_host : Host.t -> t
(** The monitor for a host, started (with its polling proc) on first use. *)

val request : t -> request -> unit
(** Post a control message (asynchronous). *)

val rpc : t -> (('a -> unit) -> request) -> 'a
(** Post and block the calling proc until the reply closure fires; charges
    one SHM control-message hop. *)

val set_acl : t -> (src_host:int -> port:int -> bool) -> unit
(** Access-control policy consulted on every SYN. *)

val register_fork_secret : t -> int -> unit

val handled : t -> int
val host : t -> Host.t
val cost : t -> Cost.t
