(* User-space socket objects and their transports.

   A socket is two FIFO directions; each direction is backed by an intra-host
   SHM channel or an inter-host RDMA ring.  A regular TCP peer (§4.5.3) gets
   no user-space socket at all: libsd rebinds the fd to a kernel FD.  Socket
   metadata and buffers live logically in shared memory so they survive
   fork; the [refs] count models that sharing.

   The connection state machine is Figure 6 of the paper. *)

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

let string_of_state = function
  | Closed -> "Closed"
  | Bound -> "Bound"
  | Listening -> "Listening"
  | Wait_dispatch -> "Wait-Dispatch"
  | Wait_server -> "Wait-Server"
  | Wait_client -> "Wait-Client"
  | Established -> "Established"
  | Shut -> "Shut"

(* ---- transports ----

   Both intra-host (SHM) and inter-host (RDMA) directions are the same ring
   channel in different flavours (§4.2); the tx side additionally remembers
   whether RDMA resources must be re-initialized after fork/exec. *)

type chan_tx = {
  chan : Shm_chan.t;
  mutable needs_reinit : bool;  (** set in a forked child / after exec *)
  batch : Sds_proto.Batch_ctl.t;
      (** §4.5 adaptive vectored-send bound, the controller shared with the
          real-domain backend *)
}

let chan_tx chan = { chan; needs_reinit = false; batch = Sds_proto.Batch_ctl.create () }

(* ---- sockets ---- *)

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
  mutable deliver_hooks : (unit -> unit) list;  (** epoll notification *)
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

let counter = ref 0

let create host ~cost ~tid ?copy_mode () =
  incr counter;
  {
    sid = !counter;
    host;
    cost;
    state = Closed;
    tx = None;
    rx = None;
    send_token = Token.create ~cost ~holder:tid;
    recv_token = Token.create ~cost ~holder:tid;
    incoming = Queue.create ();
    rx_wq = Waitq.create ();
    deliver_hooks = [];
    cursor = Sds_proto.Stream_core.cursor ();
    nonblocking = false;
    local_port = 0;
    peer_host = -1;
    peer_port = 0;
    refs = 1;
    peer_sock = None;
    fin_sent = false;
    fin_seen = false;
    reset = false;
    bytes_sent = 0;
    bytes_received = 0;
    zerocopy_sends = 0;
    zerocopy_recvs = 0;
    requested_bufsize = None;
    policy = Sds_proto.Copy_policy.create ?mode:copy_mode ();
  }

let tx_exn t =
  match t.tx with Some tx -> tx | None -> invalid_arg "Sock: no tx transport"

(* Deliver a completed inbound message (called by the NIC sink or the SHM
   poll path). *)
let deliver t msg =
  Queue.push msg t.incoming;
  Waitq.signal t.rx_wq;
  List.iter (fun f -> f ()) t.deliver_hooks

let add_deliver_hook t f = t.deliver_hooks <- f :: t.deliver_hooks

(* Abnormal peer death (§4.5.4 hard flavour): unlike FIN, a reset drops
   buffered data and surfaces as ECONNRESET/EPIPE.  Wakes sleepers and
   epoll watchers like a delivery would, so nobody stays parked. *)
let mark_reset t =
  if not t.reset then begin
    t.reset <- true;
    t.fin_seen <- true;
    Waitq.broadcast t.rx_wq;
    List.iter (fun f -> f ()) t.deliver_hooks
  end

(* Data ready for recv without touching the transport? *)
let has_buffered t = Sds_proto.Stream_core.pending t.cursor || not (Queue.is_empty t.incoming)

(* Poll the rx transport once, moving anything available into [incoming].
   Returns true if progress was made. *)
let poll_rx t =
  match t.rx with
  | Some chan ->
    (match Shm_chan.try_recv chan with
    | Some msg ->
      deliver t msg;
      true
    | None -> false)
  | None -> false

let readable t =
  t.reset || has_buffered t
  || match t.rx with Some chan -> Shm_chan.pending chan > 0 | None -> t.fin_seen

let is_eof t = t.fin_seen && not (has_buffered t)
