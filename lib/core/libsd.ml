(* libsd: the user-space socket library (§3, §4).

   One [process_ctx] per simulated process, holding the FD remapping table
   (user-space sockets vs kernel FDs), the page pool its zero-copy sends
   stage into, and the SHM control queue to the local monitor.  One
   [thread] per simulated application thread, pinned to a core; threads
   share sockets through the token mechanism.

   The API mirrors POSIX sockets: socket / bind / listen / accept / connect
   / send / recv / shutdown / close / epoll, plus fork and exec. *)

open Sds_sim
open Sds_transport
module Kernel = Sds_kernel.Kernel
module Fd_table = Sds_kernel.Fd_table

let log = Logs.Src.create "sds.libsd" ~doc:"SocksDirect user-space library"

module Log = (val Logs.src_log log : Logs.LOG)
module Obs = Sds_obs.Obs

(* Socket-API metrics: the application's view of the stack. *)
let m_sockets = Obs.Metrics.counter "libsd.sockets"
let m_connects = Obs.Metrics.counter "libsd.connects"
let m_fallbacks = Obs.Metrics.counter "libsd.fallbacks"
let m_accepts = Obs.Metrics.counter "libsd.accepts"
let m_sends = Obs.Metrics.counter "libsd.sends"
let m_send_bytes = Obs.Metrics.counter "libsd.send_bytes"
let m_recvs = Obs.Metrics.counter "libsd.recvs"
let m_recv_bytes = Obs.Metrics.counter "libsd.recv_bytes"
let m_zerocopy_sends = Obs.Metrics.counter "libsd.zerocopy_sends"
let m_zerocopy_recvs = Obs.Metrics.counter "libsd.zerocopy_recvs"
let m_pool_fallbacks = Obs.Metrics.counter "libsd.pool_fallbacks"
let m_forks = Obs.Metrics.counter "libsd.forks"
let m_epoll_waits = Obs.Metrics.counter "libsd.epoll_waits"
let h_send_size = Obs.Metrics.histogram "libsd.send_size"

(* Socket errors are the kernel's: [Unix.Unix_error] with the errno a
   Linux socket returns and the call's name. *)
let fail errno call = raise (Unix.Unix_error (errno, call, ""))

type config = {
  batching : bool;  (** adaptive RDMA batching (§4.2); off in "SD (unopt)" *)
  copy_policy : Sds_proto.Copy_policy.mode;
      (** Libra-style selective copying onto the descriptor path (§4.3,
          §4.6); [Always_copy] in "SD (unopt)" *)
}

let default_config = { batching = true; copy_policy = Sds_proto.Copy_policy.Adaptive }

(* Empty polls before a receiver switches to interrupt mode (§4.4). *)
let yield_rounds = 256

(* Per-direction ring bytes of a socket channel: the size [Shm_chan]
   creates rings with, reported as the socket buffer size. *)
let ring_size = 64 * 1024

type entry =
  | U of Sock.t  (** user-space socket *)
  | K of Kernel.process * int  (** kernel FD (fallback socket, file, ...) *)
  | Ep of epoll

and epoll = {
  ep_watched : (int, unit) Hashtbl.t;  (** app fds *)
  ep_wq : Waitq.t;
  mutable ep_hooked : (int, unit) Hashtbl.t;  (** fds whose hooks are installed *)
}

type process_ctx = {
  uid : int;  (** globally unique process id *)
  mutable host : Host.t;  (** mutable: container live migration *)
  engine : Engine.t;
  cost : Cost.t;
  kproc : Kernel.process;
  mutable monitor : Monitor.t;
  config : config;
  mutable fds : entry Fd_table.t;
  mutable pool : (Sds_vm.Pagepool.t * Sds_vm.Pagepool.handle) option;
      (** the pool descriptor sends stage into, with this process's
          allocation handle; created on the first descriptor send, so it
          lives and dies with the process *)
  mutable threads : int;  (** live thread count *)
  mutable listener_regs : (int * int) list;  (** (port, lt_uid) pairs registered *)
  (* The per-process epoll thread (§4.4 challenge 1): one fiber owns a
     kernel epoll over every watched kernel FD and fans events out to the
     user-space epoll instances. *)
  mutable epoll_thread : epoll_thread option;
}

and epoll_thread = {
  et_kepfd : int;  (** the kernel epoll instance the thread polls *)
  et_watchers : (int, Waitq.t list ref) Hashtbl.t;  (** kernel fd -> user epoll wqs *)
  et_rearm : Waitq.t;  (** poked by new kernel arrivals *)
}

type thread = {
  tid : int;  (** globally unique thread id, used as token holder identity *)
  ctx : process_ctx;
  cpu : Cpu.t;
  listeners : (int, Monitor.listener_thread) Hashtbl.t;  (** port -> my backlog *)
}

let uid_counter = ref 0
let tid_counter = ref 0

let init ?(config = default_config) host =
  incr uid_counter;
  let kernel = Kernel.for_host host in
  let monitor = Monitor.for_host host in
  let ctx =
    {
      uid = !uid_counter;
      host;
      engine = host.Host.engine;
      cost = host.Host.cost;
      kproc = Kernel.spawn_process kernel ();
      monitor;
      config;
      fds = Fd_table.create ();
      pool = None;
      threads = 0;
      listener_regs = [];
      epoll_thread = None;
    }
  in
  Log.info (fun m -> m "libsd loaded into process %d on host %d" ctx.uid (Host.id host));
  ctx

let create_thread ctx ?(core = 0) () =
  incr tid_counter;
  ctx.threads <- ctx.threads + 1;
  let cpu = Host.core ctx.host core in
  Cpu.enter cpu;
  (* If the calling proc exits while holding the core baton, pass it on so
     co-resident pollers keep rotating. *)
  (try
     let p = Proc.self () in
     Proc.on_exit p (fun () -> Cpu.release_for cpu ~pid:(Proc.id p))
   with Effect.Unhandled _ -> ());
  { tid = !tid_counter; ctx; cpu; listeners = Hashtbl.create 4 }

let destroy_thread th =
  th.ctx.threads <- th.ctx.threads - 1;
  Cpu.leave th.cpu

let entry th fd ~call =
  match Fd_table.find th.ctx.fds fd with
  | Some e -> e
  | None -> fail Unix.EBADF call

let lookup th fd = entry th fd ~call:"lookup"

let sock_exn th fd ~call =
  match entry th fd ~call with
  | U s -> s
  | K _ | Ep _ -> invalid_arg "libsd: not a user-space socket"

(* ---- socket / bind / listen ---- *)

(* socket(): pure user-space — no kernel FD, no inode (§4.5.1). *)
let socket th =
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  Obs.Metrics.incr m_sockets;
  Fd_table.alloc th.ctx.fds (U (Sock.create th.ctx.host ~cost:th.ctx.cost ~tid:th.tid ~copy_mode:th.ctx.config.copy_policy ()))

let bind th fd ~port =
  let s = sock_exn th fd ~call:"bind" in
  if s.Sock.state <> Sock.Closed then invalid_arg "libsd.bind: bad state";
  match Monitor.rpc th.ctx.monitor (fun reply -> Monitor.Bind { b_port = port; b_pid = th.ctx.uid; b_reply = reply }) with
  | Ok port ->
    s.Sock.local_port <- port;
    s.Sock.state <- Sock.Bound
  | Error _ -> fail Unix.EADDRINUSE "bind"

(* Register this thread as a listener for [port] with its own backlog. *)
let register_listener th ~port =
  match Hashtbl.find_opt th.listeners port with
  | Some lt -> lt
  | None ->
    let lt =
      { Monitor.lt_uid = th.tid; lt_backlog = Queue.create (); lt_wq = Waitq.create (); lt_max = 128 }
    in
    (match Monitor.rpc th.ctx.monitor (fun reply -> Monitor.Listen { l_port = port; l_thread = lt; l_reply = reply }) with
    | Ok () -> ()
    | Error e -> invalid_arg ("libsd.listen: " ^ e));
    Hashtbl.replace th.listeners port lt;
    th.ctx.listener_regs <- (port, th.tid) :: th.ctx.listener_regs;
    lt

let listen th fd =
  let s = sock_exn th fd ~call:"listen" in
  (match s.Sock.state with
  | Sock.Bound -> ()
  | _ -> invalid_arg "libsd.listen: socket not bound");
  ignore (register_listener th ~port:s.Sock.local_port);
  s.Sock.state <- Sock.Listening

(* ---- data path helpers ---- *)

(* Per-via preamble before touching a channel transport: forked children
   re-establish QPs before first use (§4.1.2), and unbatched configurations
   pay one doorbell MMIO per message. *)
let tx_prework th (tx : Sock.chan_tx) =
  match Shm_chan.via tx.Sock.chan with
  | Shm_chan.Shm -> ()
  | Shm_chan.Rdma qp ->
    if tx.Sock.needs_reinit then begin
      Proc.sleep_ns th.ctx.cost.Cost.rdma_qp_create;
      tx.Sock.needs_reinit <- false
    end;
    if not th.ctx.config.batching then begin
      (* Unbatched: one doorbell MMIO per message on the CPU, one WQE per
         message on the NIC. *)
      Nic.set_batching qp false;
      Proc.sleep_ns 100
    end

(* Send one message over the socket's tx transport, blocking on the ring's
   credit flow control.  The per-message CPU cost lives in the channel. *)
let rec send_msg th (s : Sock.t) msg =
  let tx = Sock.tx_exn s in
  tx_prework th tx;
  match Shm_chan.try_send tx.Sock.chan msg with
  | Shm_chan.Sent -> ()
  | Shm_chan.Full ->
    (match Waitq.wait (Shm_chan.tx_waitq tx.Sock.chan) with _ -> ());
    send_msg th s msg

(* First [n] elements of [l] (all of [l] when shorter), plus the rest. *)
let split_budget n l =
  let rec go acc k rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when k = 0 -> (List.rev acc, rest)
    | x :: tl -> go (x :: acc) (k - 1) tl
  in
  go [] n l

(* Send a run of messages, using the channel's vectored enqueue so a
   multi-chunk send publishes the ring tail once per batch instead of once
   per message; blocks on credit flow control between batches.

   §4.5 adaptive batch sizing: each vectored enqueue is bounded by the tx
   direction's [Sds_proto.Batch_ctl] budget, shared with the real-domain
   backend.  The budget rests at [Batch_ctl.initial_budget], halves only
   on an observed ring-full (zero acceptance), and grows toward
   [Batch_ctl.max_budget] only while an overflow backlog signals
   pressure. *)
let rec send_msgs th (s : Sock.t) msgs =
  match msgs with
  | [] -> ()
  | _ ->
    let tx = Sock.tx_exn s in
    tx_prework th tx;
    let batch, overflow = split_budget (Sds_proto.Batch_ctl.budget tx.Sock.batch) msgs in
    let n = Shm_chan.try_send_batch tx.Sock.chan batch in
    let attempted = List.length batch in
    Sds_proto.Batch_ctl.observe tx.Sock.batch ~sent:n ~attempted
      ~pressure:(match overflow with [] -> false | _ :: _ -> true);
    if n = attempted then begin
      match overflow with
      | [] -> ()
      | _ -> send_msgs th s overflow
    end
    else begin
      let rest = List.filteri (fun i _ -> i >= n) msgs in
      (* Park only when an attempt made no progress at all.  A partial
         acceptance yields sim time (per-message bookkeeping), so the
         receiver's credit-return broadcast may already have fired —
         parking then would lose the wakeup.  Retrying is the credit
         re-check; a zero-progress attempt has no yield point between the
         check and the wait, so the broadcast cannot be missed. *)
      if n = 0 then ignore (Waitq.wait (Shm_chan.tx_waitq tx.Sock.chan));
      send_msgs th s rest
    end

(* Blocking wait for the next inbound message: poll, yield-rotate on the
   core, then drop to interrupt mode (§4.4).  On exit the core baton is
   released: a thread that stops polling (to run application code) must not
   stall the rotation for co-located pollers. *)
let rec next_msg th (s : Sock.t) =
  let r = next_msg_inner th s in
  Cpu.release th.cpu;
  r

and next_msg_inner th (s : Sock.t) =
  if not (Queue.is_empty s.Sock.incoming) then Some (Queue.pop s.Sock.incoming)
  else if s.Sock.fin_seen then
    (* Drain anything still sitting in the transport before reporting EOF:
       the ring has a copy on both sides (§4.5.4). *)
    if Sock.poll_rx s && not (Queue.is_empty s.Sock.incoming) then
      Some (Queue.pop s.Sock.incoming)
    else None
  else begin
    (* The polling budget runs through the shared §4.4 state machine
       ([Sds_notify.Policy]) — non-adaptive here, so the budget is exactly
       [yield_rounds] empty polls, as the paper's cost model fixes it. *)
    let pol =
      Sds_notify.Policy.create ~adaptive:false ~backoff_rounds:0
        ~budget:yield_rounds ()
    in
    Sds_notify.Policy.begin_wait pol;
    let rec poll_phase () =
      ignore (Sock.poll_rx s);
      if not (Queue.is_empty s.Sock.incoming) then begin
        Sds_notify.Policy.on_success pol;
        Some (Queue.pop s.Sock.incoming)
      end
      else if s.Sock.fin_seen then None
      else begin
        let u = Sds_notify.Policy.poll pol in
        if u > 0 then begin
          for _ = 1 to u do
            Cpu.yield_turn th.cpu
          done;
          poll_phase ()
        end
        else begin
          (* Interrupt mode: tell the sender side to wake us via the
             monitor.  [Policy.poll] has already flipped [pol] to
             [Interrupt]; [enter_interrupt] publishes the same switch on
             the channel's own policy, which the sender reads. *)
          Sds_notify.Policy.on_park pol;
          enter_interrupt th s;
          (match Waitq.wait s.Sock.rx_wq with _ -> ());
          Sds_notify.Policy.on_wake pol;
          leave_interrupt th s;
          (* The wakeup itself costs a process wakeup (Table 2). *)
          Proc.sleep_ns th.ctx.cost.Cost.process_wakeup;
          next_msg th s
        end
      end
    in
    poll_phase ()
  end

and enter_interrupt th (s : Sock.t) =
  Cpu.release th.cpu;
  match s.Sock.rx with
  | Some chan ->
    Shm_chan.set_mode chan Shm_chan.Interrupt;
    let monitor = th.ctx.monitor in
    Shm_chan.set_interrupt_hook chan (fun c ->
        (* Sender noticed interrupt mode: it pings the monitor, which wakes
           the receiver. *)
        Monitor.request monitor
          (Monitor.Wake
             {
               w_fn =
                 (fun () ->
                   Shm_chan.set_mode c Shm_chan.Polling;
                   Waitq.signal s.Sock.rx_wq);
             }))
  | None -> ()

and leave_interrupt _th (s : Sock.t) =
  match s.Sock.rx with
  | Some chan -> Shm_chan.set_mode chan Shm_chan.Polling
  | None -> ()

(* Consume control messages; returns true if [msg] was control. *)
let handle_control (s : Sock.t) msg =
  match msg.Msg.kind with
  | Msg.Fin ->
    s.Sock.fin_seen <- true;
    Waitq.signal s.Sock.rx_wq;
    true
  | Msg.Ack -> true
  | Msg.Data -> false

let signal kind = Msg.make ~kind (Msg.Inline Bytes.empty)

(* ---- connect / accept (Figure 6) ---- *)

let link_pairing (pairing : Monitor.pairing) =
  match (pairing.Monitor.c_sock, pairing.Monitor.s_sock) with
  | Some c, Some srv ->
    c.Sock.peer_sock <- Some srv;
    srv.Sock.peer_sock <- Some c
  | _ -> ()

let attach_client th fd (s : Sock.t) reply =
  match reply with
  | Monitor.Sds_queues (tx, rx, pairing) ->
    s.Sock.tx <- Some tx;
    s.Sock.rx <- Some rx;
    pairing.Monitor.c_sock <- Some s;
    link_pairing pairing;
    s.Sock.state <- Sock.Wait_server;
    (* Wait for the server's ACK on the new queue. *)
    let rec await () =
      match next_msg th s with
      | None -> fail Unix.ECONNREFUSED "connect"
      | Some msg -> (
        match msg.Msg.kind with
        | Msg.Ack -> ()
        | Msg.Fin ->
          s.Sock.fin_seen <- true;
          fail Unix.ECONNREFUSED "connect"
        | Msg.Data ->
          (* Data can never precede the ACK: the server sends ACK first. *)
          await ())
    in
    await ();
    Obs.Metrics.incr m_connects;
    s.Sock.state <- Sock.Established
  | Monitor.Fallback (kproc, kfd) ->
    (* Regular TCP peer: the kernel connection replaces the user socket. *)
    Obs.Metrics.incr m_fallbacks;
    Obs.Trace.emit Obs.Trace.Fallback;
    Fd_table.bind th.ctx.fds fd (K (kproc, kfd));
    s.Sock.state <- Sock.Established
  | Monitor.Refused _ -> fail Unix.ECONNREFUSED "connect"

let connect th fd ~dst ~port =
  let s = sock_exn th fd ~call:"connect" in
  (match s.Sock.state with
  | Sock.Closed | Sock.Bound -> ()
  | _ -> invalid_arg "libsd.connect: bad state");
  s.Sock.state <- Sock.Wait_dispatch;
  s.Sock.peer_host <- Host.id dst;
  s.Sock.peer_port <- port;
  let reply =
    Monitor.rpc th.ctx.monitor (fun reply ->
        Monitor.Syn { syn_dst = dst; syn_port = port; syn_src_pid = th.ctx.uid; syn_reply = reply })
  in
  attach_client th fd s reply

(* Build the server-side socket from a dispatched SYN entry. *)
let accept_entry th (entry : Monitor.syn_entry) ~port =
  let s = Sock.create th.ctx.host ~cost:th.ctx.cost ~tid:th.tid ~copy_mode:th.ctx.config.copy_policy () in
  s.Sock.tx <- Some entry.Monitor.s_tx;
  s.Sock.rx <- Some entry.Monitor.s_rx;
  s.Sock.local_port <- port;
  s.Sock.peer_host <- entry.Monitor.syn_client_host;
  s.Sock.peer_port <- entry.Monitor.syn_client_port;
  entry.Monitor.syn_pairing.Monitor.s_sock <- Some s;
  link_pairing entry.Monitor.syn_pairing;
  s.Sock.state <- Sock.Wait_client;
  (* ACK completes the handshake; data may follow immediately (§4.5.2). *)
  send_msg th s (signal Msg.Ack);
  s.Sock.state <- Sock.Established;
  Obs.Metrics.incr m_accepts;
  Fd_table.alloc th.ctx.fds (U s)

let accept th fd =
  let s = sock_exn th fd ~call:"accept" in
  (match s.Sock.state with
  | Sock.Listening -> ()
  | _ -> invalid_arg "libsd.accept: not listening");
  let port = s.Sock.local_port in
  let lt = register_listener th ~port in
  let rec next () =
    match Queue.take_opt lt.Monitor.lt_backlog with
    | Some entry -> accept_entry th entry ~port
    | None -> (
      (* Work stealing: an idle listener pulls from a sibling's backlog
         through the monitor (§4.5.2). *)
      match
        Monitor.rpc th.ctx.monitor (fun reply ->
            Monitor.Steal { st_port = port; st_for = th.tid; st_reply = reply })
      with
      | Some entry -> accept_entry th entry ~port
      | None ->
        (* Wake on a dispatch to our backlog, or retry the steal
           periodically: round-robin may park connections on a listener
           that never accepts (e.g. a master that only forks). *)
        (match Waitq.wait ~timeout_ns:100_000 lt.Monitor.lt_wq with _ -> ());
        next ())
  in
  next ()

(* ---- send / recv ---- *)

module Core = Sds_proto.Stream_core

(* This process's staging pool and allocation handle, created on first
   use. *)
let pool_handle ctx =
  match ctx.pool with
  | Some ph -> ph
  | None ->
    let pool = Sds_vm.Pagepool.create () in
    let ph = (pool, Sds_vm.Pagepool.handle pool) in
    ctx.pool <- Some ph;
    ph

(* One send through the shared record plan, the same over SHM and RDMA:
   descriptor records stage into the sending process's pool — an ownership
   handoff, no payload byte crosses the ring (§4.3, §4.6).  More than one
   record travels as one vectored batch (§4.2 adaptive batching). *)
let send_records th (s : Sock.t) buf ~off ~len =
  let msgs = ref [] and staged = ref 0 in
  let desc ~off ~len =
    let pool, h = pool_handle th.ctx in
    let entries = Array.make (Core.pages_for len) 0 in
    Core.stage pool h buf ~off ~len entries
    && begin
         staged := !staged + Array.length entries;
         msgs := Msg.make (Msg.Pool { pool; entries; len }) :: !msgs;
         true
       end
  in
  let inline ~off ~len = msgs := Msg.data (Bytes.sub buf off len) :: !msgs in
  let outcome =
    Core.send s.Sock.policy ~pool:(Option.map fst th.ctx.pool) ~off ~len ~desc ~inline
  in
  (* Sim cost of staging: one driver call to pin and export the pages plus
     per-page grant bookkeeping, instead of the memcpy. *)
  if !staged > 0 then Proc.sleep_ns (Cost.syscall th.ctx.cost + (!staged * 20));
  (match List.rev !msgs with
  | [] -> ()
  | [ ({ Msg.payload = Msg.Inline _; _ } as m) ] -> send_msg th s m
  | msgs -> send_msgs th s msgs);
  outcome

let send th fd buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "libsd.send";
  match entry th fd ~call:"send" with
  | K (kproc, kfd) -> Kernel.send kproc kfd buf ~off ~len
  | Ep _ -> invalid_arg "libsd.send: epoll fd"
  | U s ->
    if s.Sock.reset || s.Sock.fin_sent then fail Unix.EPIPE "send";
    (match s.Sock.state with
    | Sock.Established -> ()
    | _ -> fail Unix.ENOTCONN "send");
    Obs.Metrics.incr m_sends;
    Obs.Metrics.add m_send_bytes len;
    Obs.Metrics.observe h_send_size len;
    Token.with_held s.Sock.send_token ~tid:th.tid (fun () ->
        (match send_records th s buf ~off ~len with
        | Core.Zero_copy ->
          s.Sock.zerocopy_sends <- s.Sock.zerocopy_sends + 1;
          Obs.Metrics.incr m_zerocopy_sends
        | Core.Fell_back ->
          (* Pool exhausted: Libra fallback to the copy path. *)
          Obs.Metrics.incr m_pool_fallbacks;
          Obs.Trace.emit Obs.Trace.Fallback
        | Core.Copied -> ());
        s.Sock.bytes_sent <- s.Sock.bytes_sent + len);
    len

(* Land a data message into the app buffer through the socket's cursor;
   what [len] cannot hold stays pending for the next recv (stream
   semantics).  Pool pages go back to the sender's pool through its shared
   free stack: the receiver has no handle there.

   The consume-completion stamp then closes the message's span, and the
   stamps it carried (creation, publish, visibility, dequeue, decode)
   become the per-stage histogram observations.  Control messages never
   reach here ([handle_control] filters first), so span.* histograms
   describe data traffic only. *)
let consume th (s : Sock.t) msg ~dst ~off ~len =
  let remapped =
    match msg.Msg.payload with
    | Msg.Pool { len = plen; _ } -> len >= plen
    | Msg.Inline _ -> false
  in
  let n =
    match msg.Msg.payload with
    | Msg.Inline b -> Core.land_bytes s.Sock.cursor b ~pos:0 ~stop:(Bytes.length b) dst ~off ~len
    | Msg.Pool { pool; entries; len = plen } ->
      if remapped then begin
        (* Whole descriptor message fits: the ownership handoff is the
           remap — charge remap cost, land the payload, drop our reference. *)
        s.Sock.zerocopy_recvs <- s.Sock.zerocopy_recvs + 1;
        Obs.Metrics.incr m_zerocopy_recvs;
        Obs.Trace.emit_n Obs.Trace.Zerocopy_remap plen;
        Proc.sleep_ns (Cost.remap_cost th.ctx.cost plen)
      end;
      let n =
        Core.land_desc s.Sock.cursor Core.Global pool entries ~count:(Array.length entries) dst
          ~off ~len
      in
      (* A partial read degrades to a copy out of the pages. *)
      if not remapped then Proc.sleep_ns (Cost.copy_cost th.ctx.cost n);
      n
  in
  Sds_obs.Span.observe_stages ~seq:msg.Msg.seq ~send:msg.Msg.span_send ~pub:msg.Msg.span_pub
    ~vis:msg.Msg.span_vis ~deq:msg.Msg.span_deq ~parsed:msg.Msg.span_parse
    ~done_:(Sds_obs.Span.now ()) ~remapped;
  n

let received (s : Sock.t) n =
  s.Sock.bytes_received <- s.Sock.bytes_received + n;
  Obs.Metrics.incr m_recvs;
  Obs.Metrics.add m_recv_bytes n;
  n

(* Wait for the next data message, consuming control messages on the way
   (we already hold the recv token), and land it.  0 on EOF. *)
let rec recv_msg th (s : Sock.t) buf ~off ~len =
  match next_msg th s with
  | None -> if s.Sock.reset then fail Unix.ECONNRESET "recv" else 0
  | Some msg when handle_control s msg ->
    if s.Sock.reset then fail Unix.ECONNRESET "recv"
    else if Sock.is_eof s then 0
    else recv_msg th s buf ~off ~len
  | Some msg -> received s (consume th s msg ~dst:buf ~off ~len)

let recv th fd buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "libsd.recv";
  match entry th fd ~call:"recv" with
  | K (kproc, kfd) -> Kernel.recv kproc kfd buf ~off ~len
  | Ep _ -> invalid_arg "libsd.recv: epoll fd"
  | U s ->
    Token.with_held s.Sock.recv_token ~tid:th.tid (fun () ->
        (* Reset beats everything, including buffered data: ECONNRESET
           semantics, the same drop Linux performs. *)
        if s.Sock.reset then begin
          Core.drop s.Sock.cursor;
          Queue.clear s.Sock.incoming;
          fail Unix.ECONNRESET "recv"
        end;
        if Core.pending s.Sock.cursor then
          received s (Core.take s.Sock.cursor buf ~off ~len)
        else recv_msg th s buf ~off ~len)

(* ---- shutdown / close ---- *)

let shutdown_send th (s : Sock.t) =
  if not s.Sock.fin_sent then begin
    s.Sock.fin_sent <- true;
    match s.Sock.tx with
    | Some _ -> ( try send_msg th s (signal Msg.Fin) with _ -> ())
    | None -> ()
  end

let shutdown th fd how =
  match entry th fd ~call:"shutdown" with
  | K (kproc, kfd) -> (
    match Kernel.lookup kproc kfd with
    | Kernel.Tcp ep -> if how <> `Recv then Kernel.shutdown_send ep
    | _ -> ())
  | Ep _ -> invalid_arg "libsd.shutdown: epoll fd"
  | U s -> (
    match how with
    | `Send | `Both -> shutdown_send th s
    | `Recv -> s.Sock.fin_seen <- true)

let close th fd =
  match entry th fd ~call:"close" with
  | K (kproc, kfd) ->
    ignore (Fd_table.close th.ctx.fds fd);
    Kernel.close kproc kfd
  | Ep _ -> ignore (Fd_table.close th.ctx.fds fd)
  | U s ->
    ignore (Fd_table.close th.ctx.fds fd);
    s.Sock.refs <- s.Sock.refs - 1;
    if s.Sock.refs <= 0 then begin
      (match s.Sock.state with
      | Sock.Established -> shutdown_send th s
      | _ -> ());
      s.Sock.state <- Sock.Shut
    end

(* ---- fork / exec (§4.1.2) ---- *)

(* RDMA resources do not survive fork or exec: the socket's QP must be
   re-initialized before its next send. *)
let mark_reinit (s : Sock.t) =
  match s.Sock.tx with
  | Some tx -> (
    match Shm_chan.via tx.Sock.chan with
    | Shm_chan.Rdma _ -> tx.Sock.needs_reinit <- true
    | Shm_chan.Shm -> ())
  | None -> ()

let fork th =
  let ctx = th.ctx in
  (* Pairing secret so a malicious process cannot impersonate our child. *)
  let secret = Sds_sim.Rng.int ctx.host.Host.rng 1_000_000_000 in
  Monitor.register_fork_secret ctx.monitor secret;
  (* fork(2) itself: page-table copy etc. *)
  Proc.sleep_ns (Cost.syscall ctx.cost + 10_000);
  incr uid_counter;
  let child =
    {
      uid = !uid_counter;
      host = ctx.host;
      engine = ctx.engine;
      cost = ctx.cost;
      kproc = Kernel.fork ctx.kproc;
      monitor = ctx.monitor;
      config = ctx.config;
      (* The FD remapping table is heap memory: copy-on-write across fork.
         Socket metadata and buffers live in SHM: shared. *)
      fds = Fd_table.copy ctx.fds;
      pool = None;
      threads = 0;
      listener_regs = ctx.listener_regs;
      epoll_thread = None;
    }
  in
  (* Shared sockets gain a reference; the parent keeps the tokens, and RDMA
     resources must be re-initialized on first use by the child. *)
  Fd_table.iter child.fds (fun _ e ->
      match e with
      | U s ->
        s.Sock.refs <- s.Sock.refs + 1;
        Token.on_fork s.Sock.send_token ~parent_tid:th.tid;
        Token.on_fork s.Sock.recv_token ~parent_tid:th.tid;
        mark_reinit s
      | K _ | Ep _ -> ());
  (* Child announces itself to the monitor with the secret. *)
  let paired = Monitor.rpc ctx.monitor (fun reply -> Monitor.Fork_pair { fp_secret = secret; fp_reply = reply }) in
  assert paired;
  Obs.Metrics.incr m_forks;
  Obs.Trace.emit_n Obs.Trace.Fork child.uid;
  Log.info (fun m -> m "process %d forked child %d" ctx.uid child.uid);
  child

(* exec(): the address space is wiped, but the FD remapping table is copied
   into SHM just before and re-attached by the fresh libsd (§4.1.2). *)
let exec ctx =
  Proc.sleep_ns (Cost.syscall ctx.cost + 50_000);
  ctx.fds <- Fd_table.copy ctx.fds;
  Fd_table.iter ctx.fds (fun _ e ->
      match e with
      | U s -> mark_reinit s
      | K _ | Ep _ -> ())

(* ---- epoll ---- *)

let epoll_create th =
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  Fd_table.alloc th.ctx.fds
    (Ep { ep_watched = Hashtbl.create 8; ep_wq = Waitq.create (); ep_hooked = Hashtbl.create 8 })

let epoll_exn th fd ~call =
  match entry th fd ~call with
  | Ep e -> e
  | _ -> invalid_arg "libsd: not an epoll fd"

(* The per-process epoll thread (§4.4): a single fiber invokes the kernel's
   epoll_wait for ALL watched kernel FDs of this process and relays events
   to the user-space epoll instances, so application threads never make
   kernel event syscalls on the data path. *)
let ensure_epoll_thread ctx =
  match ctx.epoll_thread with
  | Some et -> et
  | None ->
    let kepfd = Kernel.epoll_create ctx.kproc in
    let et = { et_kepfd = kepfd; et_watchers = Hashtbl.create 8; et_rearm = Waitq.create () } in
    ctx.epoll_thread <- Some et;
    ignore
      (Proc.spawn ctx.engine ~name:(Fmt.str "epoll-thread-p%d" ctx.uid) (fun () ->
           let rec loop last =
             (* Blocks in the kernel while nothing is readable, so an idle
                process schedules no events at all. *)
             let ready = Kernel.epoll_wait ctx.kproc kepfd () in
             List.iter
               (fun kfd ->
                 match Hashtbl.find_opt et.et_watchers kfd with
                 | Some wqs -> List.iter Waitq.signal !wqs
                 | None -> ())
               ready;
             if ready = last then begin
               (* Level-triggered readiness the application has not drained
                  yet: wait for a genuinely new arrival before rescanning,
                  so an ignored FD cannot spin the thread. *)
               (match Waitq.wait et.et_rearm with _ -> ());
               loop []
             end
             else begin
               Proc.sleep_ns 2_000;
               loop ready
             end
           in
           loop []));
    et

let watch_kernel_fd ctx ~kfd ~wq =
  let et = ensure_epoll_thread ctx in
  match Hashtbl.find_opt et.et_watchers kfd with
  | Some wqs -> wqs := wq :: !wqs
  | None ->
    Hashtbl.replace et.et_watchers kfd (ref [ wq ]);
    Kernel.epoll_add ctx.kproc et.et_kepfd ~watch_pid:ctx.kproc.Kernel.pid ~fd:kfd;
    (* New arrivals re-arm the relay loop. *)
    (match Kernel.lookup ctx.kproc kfd with
    | Kernel.Tcp ep -> (
      match ep.Kernel.rx with
      | Some st -> Sds_kernel.Kstream.on_readable st (fun () -> Waitq.signal et.et_rearm)
      | None -> ())
    | Kernel.Pipe_r pe ->
      Sds_kernel.Kstream.on_readable pe.Kernel.pstream (fun () -> Waitq.signal et.et_rearm)
    | _ -> ())

let epoll_add th epfd fd =
  let e = epoll_exn th epfd ~call:"epoll_ctl" in
  Hashtbl.replace e.ep_watched fd ();
  if not (Hashtbl.mem e.ep_hooked fd) then begin
    Hashtbl.replace e.ep_hooked fd ();
    match entry th fd ~call:"epoll_ctl" with
    | U s ->
      Sock.add_deliver_hook s (fun () -> Waitq.signal e.ep_wq);
      (match s.Sock.rx with
      | Some chan -> Shm_chan.add_deliver_hook chan (fun () -> Waitq.signal e.ep_wq)
      | None -> ())
    | K (_, kfd) ->
      (* Kernel FDs are delegated to the per-process epoll thread. *)
      watch_kernel_fd th.ctx ~kfd ~wq:e.ep_wq
    | Ep _ -> invalid_arg "libsd.epoll_add: cannot watch an epoll fd"
  end

let epoll_del th epfd fd =
  let e = epoll_exn th epfd ~call:"epoll_ctl" in
  Hashtbl.remove e.ep_watched fd

let fd_readable th fd =
  match Fd_table.find th.ctx.fds fd with
  | Some (U s) -> (
    Sock.readable s
    ||
    (* Listening sockets: readiness = pending SYN in my backlog. *)
    match (s.Sock.state, Hashtbl.find_opt th.listeners s.Sock.local_port) with
    | Sock.Listening, Some lt -> not (Queue.is_empty lt.Monitor.lt_backlog)
    | _ -> false)
  | Some (K (kproc, kfd)) -> (
    match Kernel.lookup kproc kfd with
    | obj -> Kernel.obj_readable obj
    | exception _ -> false)
  | Some (Ep _) | None -> false

(* One readiness probe of [fd] for epoll_wait and poll: a user socket's
   transport is polled first so SHM arrivals become visible. *)
let poll_readable th fd =
  (match Fd_table.find th.ctx.fds fd with
  | Some (U s) -> ignore (Sock.poll_rx s)
  | _ -> ());
  fd_readable th fd

(* Level-triggered epoll_wait over mixed user/kernel FDs. *)
let epoll_wait th epfd ?timeout_ns () =
  let e = epoll_exn th epfd ~call:"epoll_wait" in
  Obs.Metrics.incr m_epoll_waits;
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  let scan () =
    Hashtbl.fold (fun fd () acc -> if poll_readable th fd then fd :: acc else acc) e.ep_watched []
  in
  let deadline = Option.map (fun d -> Engine.now th.ctx.engine + d) timeout_ns in
  (* Same shared §4.4 polling↔interrupt state machine as [next_msg]: poll
     the watched set for [yield_rounds] empty rounds, then park on the
     epoll waitqueue (the sim-side analogue of [Waiter.wait_any]). *)
  let pol =
    Sds_notify.Policy.create ~adaptive:false ~backoff_rounds:0
      ~budget:yield_rounds ()
  in
  Sds_notify.Policy.begin_wait pol;
  let rec loop () =
    match scan () with
    | _ :: _ as fds ->
      Sds_notify.Policy.on_success pol;
      List.sort Int.compare fds
    | [] -> (
      let now = Engine.now th.ctx.engine in
      match deadline with
      | Some d when now >= d -> []
      | _ ->
        let u = Sds_notify.Policy.poll pol in
        if u > 0 then begin
          for _ = 1 to u do
            Proc.sleep_ns th.ctx.cost.Cost.poll_empty_32;
            Cpu.yield_turn th.cpu
          done;
          loop ()
        end
        else begin
          Sds_notify.Policy.on_park pol;
          Cpu.release th.cpu;
          let timeout_ns = Option.map (fun d -> max 1 (d - now)) deadline in
          match Waitq.wait ?timeout_ns e.ep_wq with
          | Waitq.Timeout -> []
          | Waitq.Signaled ->
            Sds_notify.Policy.on_wake pol;
            Sds_notify.Policy.begin_wait pol;
            loop ()
        end)
  in
  let r = loop () in
  Cpu.release th.cpu;
  r

(* ---- stats ---- *)

let sock_stats th fd =
  let s = sock_exn th fd ~call:"getsockopt" in
  ( s.Sock.bytes_sent,
    s.Sock.bytes_received,
    s.Sock.zerocopy_sends,
    s.Sock.zerocopy_recvs,
    Token.takeovers s.Sock.send_token + Token.takeovers s.Sock.recv_token )

(* ---- container live migration (§4.1.3) ---- *)

(* Rebuild one established connection's transports for the socket's new
   locality: SHM queues when the endpoints now share a host, a fresh RDMA QP
   pair otherwise.  In-flight data survives because the socket queues are
   part of the migrated memory image, and old NIC deliveries still land in
   the same socket objects. *)
let rebuild_transports (s : Sock.t) (peer : Sock.t) =
  let cost = s.Sock.cost in
  let engine = s.Sock.host.Host.engine in
  let same_host = Host.same_host s.Sock.host peer.Sock.host in
  let s2p, p2s =
    if same_host then begin
      let s2p = Shm_chan.create engine ~cost () in
      let p2s = Shm_chan.create engine ~cost () in
      (s2p, p2s)
    end
    else begin
      (* New QP pair between the two hosts' NICs, one ring channel per
         direction. *)
      let nic_s = Host.nic s.Sock.host and nic_p = Host.nic peer.Sock.host in
      let cq_s = Nic.create_cq nic_s and cq_p = Nic.create_cq nic_p in
      let qp_s, qp_p =
        Nic.connect_qps nic_s nic_p ~scq_a:cq_s ~rcq_a:cq_s ~scq_b:cq_p ~rcq_b:cq_p
      in
      Nic.set_batching qp_s true;
      Nic.set_batching qp_p true;
      let s2p = Shm_chan.create_rdma engine ~cost ~qp:qp_s () in
      let p2s = Shm_chan.create_rdma engine ~cost ~qp:qp_p () in
      (s2p, p2s)
    end
  in
  s.Sock.tx <- Some (Sock.chan_tx s2p);
  peer.Sock.rx <- Some s2p;
  peer.Sock.tx <- Some (Sock.chan_tx p2s);
  s.Sock.rx <- Some p2s;
  if same_host then Proc.sleep_ns (2 * cost.Cost.monitor_processing)

(* Live-migrate this process's container to [to_host] (§4.1.3): quiesce and
   drain in-flight data into the socket queues (part of the memory image),
   re-register with the destination monitor, and re-establish every
   established connection's channels for the new locality.  Threads are
   restarted by the caller after migration, as with CRIU restore. *)
let migrate ctx ~to_host =
  (* Checkpoint/transfer/restore envelope. *)
  Proc.sleep_ns 100_000;
  (* Let the wire drain, then pull everything into the socket queues. *)
  Proc.sleep_ns (2 * ctx.cost.Cost.rdma_write_rtt);
  Fd_table.iter ctx.fds (fun _ e ->
      match e with
      | U s ->
        let rec drain () = if Sock.poll_rx s && not (Queue.is_empty s.Sock.incoming) then drain () in
        (try drain () with _ -> ());
        (match s.Sock.peer_sock with
        | Some peer ->
          let rec drain_peer () = if Sock.poll_rx peer then drain_peer () in
          (try drain_peer () with _ -> ())
        | None -> ())
      | K _ | Ep _ -> ());
  Log.info (fun m -> m "migrating process %d to host %d" ctx.uid (Host.id to_host));
  ctx.host <- to_host;
  ctx.monitor <- Monitor.for_host to_host;
  (* Re-establish channels per new locality. *)
  Fd_table.iter ctx.fds (fun _ e ->
      match e with
      | U s when s.Sock.state = Sock.Established -> (
        s.Sock.host <- to_host;
        match (s.Sock.peer_sock, s.Sock.tx) with
        | Some peer, Some _ ->
          rebuild_transports s peer;
          (* Receivers parked in interrupt mode on the old channels must
             re-poll the new ones. *)
          Waitq.broadcast s.Sock.rx_wq;
          Waitq.broadcast peer.Sock.rx_wq
        | _ -> ())
      | _ -> ())

(* ---- accessors used by tools, tests and the epoll thread ---- *)

let pool_of ctx = fst (pool_handle ctx)
let kernel_process ctx = ctx.kproc
let monitor_of th = th.ctx.monitor
let thread_kernel_process th = th.ctx.kproc

(* Expose a kernel FD (file, pipe end, ...) through the remapping table so
   epoll and close treat it uniformly with sockets. *)
let register_kernel_fd th kfd = Fd_table.alloc th.ctx.fds (K (th.ctx.kproc, kfd))

(* ---- non-blocking mode, dup, poll/select (compatibility surface) ---- *)

(* fcntl(F_SETFL, O_NONBLOCK) equivalent. *)
let set_nonblocking th fd flag =
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  match entry th fd ~call:"fcntl" with
  | U s -> s.Sock.nonblocking <- flag
  | K _ | Ep _ -> invalid_arg "libsd.set_nonblocking: not a user socket"

(* Non-blocking receive: EAGAIN instead of sleeping. *)
let try_recv th fd buf ~off ~len =
  match entry th fd ~call:"recv" with
  | U s when s.Sock.nonblocking ->
    Token.with_held s.Sock.recv_token ~tid:th.tid (fun () ->
        ignore (Sock.poll_rx s);
        if Sock.has_buffered s || Sock.is_eof s then recv th fd buf ~off ~len
        else fail Unix.EAGAIN "recv")
  | _ -> recv th fd buf ~off ~len

(* dup(2): a second descriptor for the same open object. *)
let dup th fd =
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  let e = entry th fd ~call:"dup" in
  (match e with
  | U s -> s.Sock.refs <- s.Sock.refs + 1
  | K _ | Ep _ -> ());
  Fd_table.alloc th.ctx.fds e

(* poll(2) over readability, without installing epoll hooks: scan the
   descriptors, yielding between rounds, until one is ready or the timeout
   passes.  Returns ready fds in ascending order. *)
let poll th fds ?timeout_ns () =
  Proc.sleep_ns th.ctx.cost.Cost.c_shim;
  let scan () = List.filter (poll_readable th) (List.sort_uniq Int.compare fds) in
  let deadline = Option.map (fun d -> Engine.now th.ctx.engine + d) timeout_ns in
  let rec loop () =
    match scan () with
    | _ :: _ as ready -> ready
    | [] -> (
      match deadline with
      | Some d when Engine.now th.ctx.engine >= d -> []
      | _ ->
        Proc.sleep_ns th.ctx.cost.Cost.poll_empty_32;
        Cpu.yield_turn th.cpu;
        loop ())
  in
  let r = loop () in
  Cpu.release th.cpu;
  r

(* select(2), readability only, expressed over [poll]. *)
let select th ~read ?timeout_ns () = poll th read ?timeout_ns ()

(* ---- failure semantics (§4.5.4) ---- *)

(* Abnormal process death: peers of every shared socket observe a hangup.
   RDMA has no clear failure semantics, but the ring buffer has a copy on
   both sides, so already-sent data stays readable; after the drain the
   peer sees EOF (and real libsd raises SIGHUP). *)
let simulate_crash ctx =
  Fd_table.iter ctx.fds (fun _ e ->
      match e with
      | U s -> (
        s.Sock.refs <- 0;
        s.Sock.state <- Sock.Shut;
        match s.Sock.peer_sock with
        | Some peer ->
          peer.Sock.fin_seen <- true;
          Waitq.broadcast peer.Sock.rx_wq;
          List.iter (fun f -> f ()) peer.Sock.deliver_hooks
        | None -> ())
      | K _ | Ep _ -> ())

(* The hard flavour (§4.3): no drain, no graceful EOF.  Peers observe a
   reset — blocked receivers wake with ECONNRESET, senders get EPIPE —
   and the monitor releases the dead pid's port binds so a restarted
   server can bind again. *)
let simulate_abort ctx =
  Fd_table.iter ctx.fds (fun _ e ->
      match e with
      | U s -> (
        s.Sock.refs <- 0;
        s.Sock.state <- Sock.Shut;
        match s.Sock.peer_sock with
        | Some peer -> Sock.mark_reset peer
        | None -> ())
      | K _ | Ep _ -> ());
  Monitor.request ctx.monitor (Monitor.Died { d_pid = ctx.uid })
