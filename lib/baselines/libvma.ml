(* LibVMA baseline (§2.2, Table 3/4).

   A user-space TCP/IP stack over kernel-bypass packet I/O: per-packet
   TCP/IP processing and packet handling in user space, batched doorbells,
   per-FD locking, and — the property the paper highlights in Figure 9 —
   NIC queues shared by all threads of a process, protected by locks whose
   contention collapses throughput beyond one thread (measured in the paper
   as 1/4 with two threads and 1/10 with three or more).

   Intra-host connections fall back to the kernel stack (Table 3: LibVMA has
   no intra-host path of its own). *)

open Sds_sim
open Sds_transport
module Kernel = Sds_kernel.Kernel
module Core = Sds_proto.Stream_core

type stack = {
  host : Host.t;
  cost : Cost.t;
  mutable active_threads : int;  (** threads sharing the NIC queues *)
}

type conn = {
  vc_stack : stack;
  mutable qp : Nic.qp option;  (** None: kernel fallback *)
  mutable kconn : (Kernel.process * int) option;
  incoming : Msg.t Queue.t;
  rx_wq : Waitq.t;
  mutable peer : conn option;
  mutable closed : bool;
  mutable in_flight : int;
  cursor : Core.cursor;  (** partly read message *)
}

type listener = { vl_backlog : conn Queue.t; vl_wq : Waitq.t; vl_stack : stack }

let listeners : (int * int, listener) Hashtbl.t = Hashtbl.create 16
let stacks : (int, stack) Hashtbl.t = Hashtbl.create 8

let reset () =
  Hashtbl.reset listeners;
  Hashtbl.reset stacks

let stack_for host =
  match Hashtbl.find_opt stacks (Host.id host) with
  | Some s -> s
  | None ->
    let s = { host; cost = host.Host.cost; active_threads = 1 } in
    Hashtbl.replace stacks (Host.id host) s;
    s

let set_threads stack n = stack.active_threads <- max 1 n

(* The shared-NIC-queue lock: the paper measures throughput falling to 1/4
   with two threads and 1/10 with three or more.  With T threads each
   message pays a contention multiplier that reproduces those aggregates. *)
let contention_factor stack =
  match stack.active_threads with
  | 1 -> 1
  | 2 -> 8
  | _ -> 10 * stack.active_threads

let listen host ~port =
  let l = { vl_backlog = Queue.create (); vl_wq = Waitq.create (); vl_stack = stack_for host } in
  Hashtbl.replace listeners (Host.id host, port) l;
  l

let make_conn stack =
  { vc_stack = stack; qp = None; kconn = None; incoming = Queue.create (); rx_wq = Waitq.create ();
    peer = None; closed = false; in_flight = 0; cursor = Core.cursor () }

let deliver conn msg =
  Queue.push msg conn.incoming;
  Waitq.signal conn.rx_wq

let connect host ~dst ~port =
  let stack = stack_for host in
  let cost = stack.cost in
  if Host.same_host host dst then begin
    (* Kernel fallback for intra-host. *)
    match Hashtbl.find_opt listeners (Host.id dst, port) with
    | None -> failwith "libvma: connection refused"
    | Some l ->
      Proc.sleep_ns cost.Cost.vma_conn_setup_intra;
      let kernel = Kernel.for_host host in
      let kp = Kernel.spawn_process kernel () in
      (* LibVMA's intra-host path IS the kernel TCP stack (Table 3). *)
      let fd_a, fd_b =
        Kernel.unix_socketpair ~profile:(Sds_kernel.Kstream.tcp_intra_profile cost) kp
      in
      let c = make_conn stack and s = make_conn l.vl_stack in
      c.kconn <- Some (kp, fd_a);
      s.kconn <- Some (kp, fd_b);
      c.peer <- Some s;
      s.peer <- Some c;
      Queue.push s l.vl_backlog;
      Waitq.signal l.vl_wq;
      c
  end
  else begin
    match Hashtbl.find_opt listeners (Host.id dst, port) with
    | None -> failwith "libvma: connection refused"
    | Some l ->
      (* User-space TCP handshake over the NIC. *)
      Proc.sleep_ns cost.Cost.tcp_handshake;
      let c = make_conn stack and s = make_conn l.vl_stack in
      c.peer <- Some s;
      s.peer <- Some c;
      let nic_c = Host.nic host and nic_s = Host.nic dst in
      let cq_c = Nic.create_cq nic_c and cq_s = Nic.create_cq nic_s in
      let qc, qs = Nic.connect_qps ~charge_setup:false nic_c nic_s ~scq_a:cq_c ~rcq_a:cq_c ~scq_b:cq_s ~rcq_b:cq_s in
      Nic.set_remote_sink qs (fun msg ->
          s.in_flight <- s.in_flight - 1;
          deliver s msg);
      Nic.set_remote_sink qc (fun msg ->
          c.in_flight <- c.in_flight - 1;
          deliver c msg);
      c.qp <- Some qc;
      s.qp <- Some qs;
      Queue.push s l.vl_backlog;
      Waitq.signal l.vl_wq;
      c
  end

let rec accept l =
  match Queue.take_opt l.vl_backlog with
  | Some c -> c
  | None ->
    (match Waitq.wait l.vl_wq with _ -> ());
    accept l

let mtu = 1448

(* Per-packet sender CPU: FD lock, user-space TCP/IP, half the buffer
   management, plus the copy — all serialized behind the shared NIC queue
   lock, so the whole path stretches by the contention factor. *)
let sender_cost stack len =
  let c = stack.cost in
  (c.Cost.fd_lock_vma + c.Cost.vma_transport + (c.Cost.vma_buffer_mgmt / 2)
  + Cost.copy_cost c len)
  * contention_factor stack

let receiver_cost stack len =
  let c = stack.cost in
  c.Cost.fd_lock_vma + c.Cost.vma_packet_proc + (c.Cost.vma_buffer_mgmt / 2) + Cost.copy_cost c len

let rec send conn buf ~off ~len =
  if conn.closed then failwith "libvma: send on closed connection";
  match conn.kconn with
  | Some (kp, fd) -> Kernel.send kp fd buf ~off ~len
  | None ->
    if len = 0 then 0
    else begin
      let stack = conn.vc_stack in
      let chunk = min len mtu in
      Proc.sleep_ns (sender_cost stack chunk);
      (match conn.qp, conn.peer with
      | Some qp, Some peer ->
        peer.in_flight <- peer.in_flight + 1;
        Nic.send_2sided qp (Msg.data (Bytes.sub buf off chunk))
      | _ -> failwith "libvma: not connected");
      if chunk < len then chunk + send conn buf ~off:(off + chunk) ~len:(len - chunk) else chunk
    end

let rec recv conn buf ~off ~len =
  match conn.kconn with
  | Some (kp, fd) -> Kernel.recv kp fd buf ~off ~len
  | None -> (
    if Core.pending conn.cursor then Core.take conn.cursor buf ~off ~len
    else
      match Queue.take_opt conn.incoming with
      | Some msg ->
        let b = Msg.to_bytes msg in
        Proc.sleep_ns (receiver_cost conn.vc_stack (Bytes.length b));
        Core.land_bytes conn.cursor b ~pos:0 ~stop:(Bytes.length b) buf ~off ~len
      | None ->
        if conn.closed && conn.in_flight = 0 then 0
        else begin
          (match Waitq.wait conn.rx_wq with _ -> ());
          recv conn buf ~off ~len
        end)

let close conn =
  conn.closed <- true;
  (match conn.peer with
  | Some p ->
    p.closed <- true;
    Waitq.broadcast p.rx_wq
  | None -> ());
  (match conn.kconn with Some (kp, fd) -> Kernel.close kp fd | None -> ());
  match conn.qp with Some qp -> Nic.destroy_qp qp | None -> ()
