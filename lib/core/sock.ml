(* User-space socket objects and their transports.

   A socket is two FIFO directions; each direction is backed by an intra-host
   SHM channel, an inter-host RDMA ring, or a kernel TCP fd (fallback to
   regular peers, §4.5.3).  Socket metadata and buffers live logically in
   shared memory so they survive fork; the [refs] count models that sharing.

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

(* §4.5 adaptive batch sizing: the per-direction budget bounding how many
   messages one vectored enqueue may carry.  The controller is shared with
   the real-domain backend ([Sds_proto.Batch_ctl]): it rests at
   [initial_batch], halves only on an observed ring-full, and grows past
   the resting point only under caller backlog pressure. *)
let min_batch = 4
let initial_batch = 32
let max_batch = 256

type chan_tx = {
  chan : Shm_chan.t;
  mutable needs_reinit : bool;  (** set in a forked child / after exec *)
  batch : Sds_proto.Batch_ctl.t;  (** §4.5 adaptive vectored-send bound *)
}

let chan_tx chan =
  { chan; needs_reinit = false;
    batch = Sds_proto.Batch_ctl.create ~min_b:min_batch ~initial:initial_batch ~max_b:max_batch () }

type tx_transport =
  | Tx_chan of chan_tx
  | Tx_kernel of Sds_kernel.Kernel.process * int

type rx_transport =
  | Rx_chan of Shm_chan.t
  | Rx_kernel of Sds_kernel.Kernel.process * int

(* ---- sockets ---- *)

type t = {
  sid : int;
  mutable host : Host.t;  (** mutable: container live migration (§4.1.3) *)
  cost : Cost.t;
  mutable state : state;
  mutable tx : tx_transport option;
  mutable rx : rx_transport option;
  send_token : Token.t;
  recv_token : Token.t;
  incoming : Msg.t Queue.t;  (** completed messages ready for recv *)
  rx_wq : Waitq.t;
  mutable deliver_hooks : (unit -> unit) list;  (** epoll notification *)
  cursor : Sds_proto.Stream_core.cursor;  (** partly read record, guarded by [recv_token] *)
  mutable rx_interrupt : bool;  (** receiver sleeping in interrupt mode *)
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
    rx_interrupt = false;
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
  match t.tx with Some tr -> tr | None -> invalid_arg "Sock: no tx transport"

let rx_exn t =
  match t.rx with Some tr -> tr | None -> invalid_arg "Sock: no rx transport"

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
  | Some (Rx_chan chan) ->
    (match Shm_chan.try_recv chan with
    | Some msg ->
      deliver t msg;
      true
    | None -> false)
  | Some (Rx_kernel _) | None -> not (Queue.is_empty t.incoming)

let readable t =
  t.reset || has_buffered t
  ||
  match t.rx with
  | Some (Rx_chan chan) -> Shm_chan.pending chan > 0
  | Some (Rx_kernel (proc, fd)) -> (
    match Sds_kernel.Kernel.lookup proc fd with
    | Sds_kernel.Kernel.Tcp ep ->
      (match ep.Sds_kernel.Kernel.rx with
      | Some s -> Sds_kernel.Kstream.readable_now s
      | None -> false)
    | _ -> false)
  | None -> t.fin_seen

let is_eof t = t.fin_seen && not (has_buffered t)
