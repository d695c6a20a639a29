(* The per-socket ring channel (§4.2), in both transport flavours.

   One Spsc_ring carries the receiver's copy of the ring; the sender's copy
   is the same object in simulation (a single memory), with visibility
   delayed by the transport:

   - [Shm]: cache-coherence hardware is the synchronization; a message
     becomes visible one cache-line migration after the enqueue.
   - [Rdma qp]: the sender's enqueue is synchronized to the receiver's copy
     by a one-sided WRITE-with-immediate on [qp]; visibility happens when
     the NIC commits the write (which the NIC model orders strictly, even
     under loss and retransmission), exactly the "completion after data"
     guarantee §4.2 relies on.

   Inline payloads move through the ring for real; pool messages put only
   their page descriptors in-band.  Flow control is the ring's credit
   scheme: the sender spends ring credits per enqueue, and the receiver's
   batched half-ring credit return travels back over the same transport
   (one cache migration, or one RDMA write).

   Time accounting: the sender pays the per-message ring bookkeeping plus
   the app-to-ring copy for inline payloads; the receiver pays the
   ring-to-app copy on dequeue. *)

open Sds_sim
module Obs = Sds_obs.Obs

(* Channel-layer metrics: counters are sharded adds, the delivery histogram
   records sim-clock nanoseconds from enqueue to receiver dequeue. *)
let m_sends = Obs.Metrics.counter "shm.sends"
let m_send_bytes = Obs.Metrics.counter "shm.send_bytes"
let m_recvs = Obs.Metrics.counter "shm.recvs"
let m_recv_bytes = Obs.Metrics.counter "shm.recv_bytes"
let m_scratch_grows = Obs.Metrics.counter "shm.scratch_grows"
let h_delivery = Obs.Metrics.histogram "shm.delivery_ns"

(* The receiver's polling↔interrupt mode lives in an [Sds_notify.Policy] —
   the same state machine the real cross-domain waiter runs — created
   non-adaptive so the simulator's fixed polling budget stays exactly the
   paper's (and results stay deterministic). *)
type mode = Sds_notify.Policy.mode = Polling | Interrupt

type via =
  | Shm
  | Rdma of Nic.qp

type t = {
  engine : Engine.t;
  cost : Cost.t;
  via : via;
  ring : Sds_ring.Spsc_ring.t;
  mutable desc_scratch : int array;  (** reused descriptor dequeue target *)
  descs : Msg.t Queue.t;  (** messages visible to the receiver *)
  mutable visible : int;
  rx_waitq : Waitq.t;
  tx_waitq : Waitq.t;  (** signalled when credits return *)
  rx_policy : Sds_notify.Policy.t;  (** receiver mode state machine (§4.4) *)
  mutable on_interrupt_write : (t -> unit) option;
  mutable deliver_hooks : (unit -> unit) list;  (** fired on every delivery (epoll) *)
  mutable sent : int;
  mutable received : int;
  mutable scratch : Bytes.t;  (** reused dequeue target — no per-recv allocation *)
  (* Secret token guarding the queue: only holders may attach (§3). *)
  token : int;
}

let token_counter = ref 0

let make engine ~cost ~via ~ring_size =
  incr token_counter;
  {
    engine;
    cost;
    via;
    ring = Sds_ring.Spsc_ring.create ~size:ring_size ();
    desc_scratch = Array.make 64 0;
    descs = Queue.create ();
    visible = 0;
    rx_waitq = Waitq.create ();
    tx_waitq = Waitq.create ();
    rx_policy = Sds_notify.Policy.create ~adaptive:false ~backoff_rounds:0 ~budget:0 ();
    on_interrupt_write = None;
    deliver_hooks = [];
    sent = 0;
    received = 0;
    scratch = Bytes.create 256;
    token = !token_counter;
  }

(* Commit one message at the receiver: it becomes visible, waiters and
   epoll hooks fire, and interrupt-mode receivers get their monitor relay. *)
let commit t msg =
  (* Span stamp: the message is now visible to the receiver (one cache
     migration or a NIC commit after publication). *)
  msg.Msg.span_vis <- Sds_obs.Span.now ();
  Queue.push msg t.descs;
  t.visible <- t.visible + 1;
  Waitq.signal t.rx_waitq;
  List.iter (fun f -> f ()) t.deliver_hooks;
  match (Sds_notify.Policy.mode t.rx_policy, t.on_interrupt_write) with
  | Interrupt, Some hook -> hook t
  | (Polling | Interrupt), _ -> ()

let create engine ~cost ?(ring_size = 64 * 1024) () = make engine ~cost ~via:Shm ~ring_size

(* The inter-host flavour: enqueues are synchronized to the peer through
   [qp]; this installs the QP's remote sink. *)
let create_rdma engine ~cost ~qp ?(ring_size = 64 * 1024) () =
  let t = make engine ~cost ~via:(Rdma qp) ~ring_size in
  (* Writes fired on [qp] must commit into THIS channel at the remote end. *)
  Nic.on_commit qp (fun msg -> commit t msg);
  t

let token t = t.token
let via t = t.via
let rx_waitq t = t.rx_waitq
let tx_waitq t = t.tx_waitq
let set_mode t m = Sds_notify.Policy.set_mode t.rx_policy m
let mode t = Sds_notify.Policy.mode t.rx_policy
let rx_policy t = t.rx_policy
let set_interrupt_hook t f = t.on_interrupt_write <- Some f
let add_deliver_hook t f = t.deliver_hooks <- f :: t.deliver_hooks
let sent t = t.sent
let received t = t.received
let credits t = Sds_ring.Spsc_ring.credits t.ring

let pending t = t.visible

type send_result = Sent | Full

(* The bytes a message contributes in-band: its inline payload. *)
let ring_payload msg =
  match msg.Msg.payload with
  | Msg.Inline b -> b
  | Msg.Pool _ ->
    (* Pool payloads never serialize: they enqueue as descriptor records. *)
    assert false

(* Per-message bookkeeping once the enqueue has succeeded: timestamping,
   sender-side CPU time, and synchronization to the receiver's copy. *)
let after_enqueue t msg =
  msg.Msg.sent_at <- Engine.now t.engine;
  msg.Msg.span_pub <- Sds_obs.Span.now ();
  t.sent <- t.sent + 1;
  Obs.Metrics.incr m_sends;
  Obs.Metrics.add m_send_bytes (Msg.payload_len msg);
  Obs.Trace.emit_n Obs.Trace.Send (Msg.payload_len msg);
  (* Sender-side CPU: ring bookkeeping + inline copy into the ring. *)
  let copy =
    match msg.Msg.payload with
    | Msg.Inline b -> Cost.copy_cost t.cost (Bytes.length b)
    | Msg.Pool _ -> 0
  in
  Proc.sleep_ns (t.cost.Cost.shm_msg_overhead + copy);
  match t.via with
  | Shm ->
    (* Visibility after one cache-line migration. *)
    Engine.schedule t.engine ~delay:t.cost.Cost.cache_migration (fun () -> commit t msg)
  | Rdma qp ->
    (* One-sided write with immediate syncs the ring delta; the NIC sink
       commits it at the receiver in order. *)
    Nic.write_imm qp msg ~imm:t.token

(* Non-blocking send.  Charges sender-side time, spends ring credits, and
   synchronizes the enqueue to the receiver's copy.  Pool payloads enqueue
   their page descriptors out-of-band ([flag_desc]) — the ownership
   handoff; no payload byte is blitted. *)
let try_send t msg =
  match msg.Msg.payload with
  | Msg.Pool { entries; _ } ->
    if
      not
        (Sds_ring.Spsc_ring.try_enqueue_descs t.ring entries ~n:(Array.length entries))
    then Full
    else begin
      after_enqueue t msg;
      Sent
    end
  | Msg.Inline b ->
    if not (Sds_ring.Spsc_ring.try_enqueue t.ring b ~off:0 ~len:(Bytes.length b)) then Full
    else begin
      after_enqueue t msg;
      Sent
    end

let is_pool_msg m =
  match m.Msg.payload with Msg.Pool _ -> true | Msg.Inline _ -> false

(* Vectored send: enqueues the longest prefix of [msgs] the ring credits
   accept through a single batched ring operation (one tail publication, one
   credit spend — §4.2 adaptive batching), then performs the per-message
   bookkeeping for the accepted prefix.  Pool (descriptor) messages publish
   individually — their record format differs — so a mixed list degrades to
   runs of batched inline sends.  Returns how many were sent. *)
let rec try_send_batch t msgs =
  match msgs with
  | [] -> 0
  | m :: rest when is_pool_msg m -> begin
    match try_send t m with
    | Full -> 0
    | Sent -> 1 + try_send_batch t rest
  end
  | _ ->
    let rec span acc l =
      match l with
      | m :: rest when not (is_pool_msg m) -> span (m :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let inline, rest = span [] msgs in
    let srcs =
      Array.of_list (List.map (fun m -> (ring_payload m, 0, Msg.ring_len m)) inline)
    in
    let n = Sds_ring.Spsc_ring.enqueue_batch t.ring srcs ~pos:0 ~n:(Array.length srcs) in
    List.iteri (fun i m -> if i < n then after_enqueue t m) inline;
    match rest with
    | [] -> n
    | _ -> if n = Array.length srcs then n + try_send_batch t rest else n

(* Non-blocking receive.  Charges receiver-side time; posts batched credit
   returns back to the sender over the same transport. *)
let try_recv t =
  if t.visible = 0 then None
  else begin
    let msg = Queue.pop t.descs in
    msg.Msg.span_deq <- Sds_obs.Span.now ();
    t.visible <- t.visible - 1;
    (* Drain the ring record straight into the reusable scratch buffer: one
       ring-to-app copy, no per-recv allocation (the scratch only grows, to
       the largest in-band record seen on this channel). *)
    let peeked = Sds_ring.Spsc_ring.peek_packed t.ring in
    assert (peeked <> Sds_ring.Spsc_ring.no_msg) (* desc and ring move in lock step *);
    let len = Sds_ring.Spsc_ring.packed_len peeked in
    let got =
      if Sds_ring.Spsc_ring.is_desc_packed peeked then begin
        (* Descriptor record: pull the page descriptors out-of-band; the
           payload bytes never touch the ring or the scratch buffer. *)
        if 8 * Array.length t.desc_scratch < len then
          t.desc_scratch <- Array.make ((len + 7) / 8) 0;
        Sds_ring.Spsc_ring.try_dequeue_descs t.ring ~entries:t.desc_scratch
      end
      else begin
        (* Drain the ring record straight into the reusable scratch buffer:
           one ring-to-app copy, no per-recv allocation (the scratch only
           grows, to the largest in-band record seen on this channel). *)
        if Bytes.length t.scratch < len then begin
          t.scratch <- Bytes.create (max len (2 * Bytes.length t.scratch));
          Obs.Metrics.incr m_scratch_grows;
          Obs.Trace.emit_n Obs.Trace.Scratch_grow (Bytes.length t.scratch)
        end;
        Sds_ring.Spsc_ring.try_dequeue_packed t.ring ~dst:t.scratch ~dst_off:0
      end
    in
    assert (Sds_ring.Spsc_ring.packed_len got = Msg.ring_len msg);
    msg.Msg.span_parse <- Sds_obs.Span.now ();
    t.received <- t.received + 1;
    Obs.Metrics.incr m_recvs;
    Obs.Metrics.add m_recv_bytes (Msg.payload_len msg);
    Obs.Metrics.observe h_delivery (Engine.now t.engine - msg.Msg.sent_at);
    Obs.Trace.emit_n Obs.Trace.Recv (Msg.payload_len msg);
    let copy =
      match msg.Msg.payload with
      | Msg.Inline b -> Cost.copy_cost t.cost (Bytes.length b)
      | Msg.Pool _ -> 0
    in
    Proc.sleep_ns (t.cost.Cost.shm_msg_overhead + copy);
    let credit = Sds_ring.Spsc_ring.take_credit_return t.ring in
    if credit > 0 then begin
      let return_delay =
        match t.via with
        | Shm -> t.cost.Cost.cache_migration
        | Rdma _ -> t.cost.Cost.doorbell_dma_sd + t.cost.Cost.nic_wire
      in
      Engine.schedule t.engine ~delay:return_delay (fun () ->
          Sds_ring.Spsc_ring.return_credits t.ring credit;
          Waitq.broadcast t.tx_waitq)
    end;
    Some msg
  end
