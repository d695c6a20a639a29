(* RSocket baseline (§2.2, Table 3/4).

   Socket-to-RDMA translation with two-sided verbs: every send allocates an
   internal buffer and copies the payload on BOTH sides, every operation
   takes the per-FD lock, and intra-host traffic hairpins through the NIC
   (PCIe round trip) instead of using shared memory.  Connection setup runs
   the slow rsocket handshake plus QP creation.  No epoll, no usable fork —
   modelled as exceptions, matching the compatibility matrix. *)

open Sds_sim
open Sds_transport
module Core = Sds_proto.Stream_core

exception Not_supported of string

type conn = {
  host : Host.t;
  cost : Cost.t;
  peer_host : Host.t;
  mutable qp : Nic.qp option;  (** None for intra-host hairpin *)
  incoming : Msg.t Queue.t;
  rx_wq : Waitq.t;
  mutable peer : conn option;
  mutable closed : bool;
  mutable in_flight : int;  (** sends not yet delivered, for graceful close *)
  cursor : Core.cursor;  (** partly read message *)
}

type listener = { l_backlog : conn Queue.t; l_wq : Waitq.t; l_host : Host.t }

(* Global (stack-private) port registry keyed by host id * port. *)
let listeners : (int * int, listener) Hashtbl.t = Hashtbl.create 16

(* RSocket's internal buffer manager is shared by all threads of a host and
   serializes allocations — the reason its aggregate throughput peaks around
   24-33 M msg/s in the paper's Figure 9 regardless of core count. *)
let allocators : (int, int ref) Hashtbl.t = Hashtbl.create 8
let allocator_grain_ns = 30

let reset () =
  Hashtbl.reset listeners;
  Hashtbl.reset allocators

let allocator_for host =
  match Hashtbl.find_opt allocators (Host.id host) with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace allocators (Host.id host) r;
    r

(* Serialize on the shared allocator: returns the queueing delay. *)
let allocator_delay host =
  let free_at = allocator_for host in
  let now = Engine.now host.Host.engine in
  let start = max now !free_at in
  free_at := start + allocator_grain_ns;
  start + allocator_grain_ns - now

(* Two-sided receive path: the NIC (or hairpin) delivers into [incoming]. *)
let deliver conn msg =
  Queue.push msg conn.incoming;
  Waitq.signal conn.rx_wq

let listen host ~port =
  let l = { l_backlog = Queue.create (); l_wq = Waitq.create (); l_host = host } in
  Hashtbl.replace listeners (Host.id host, port) l;
  l

let make_conn host peer_host =
  {
    host;
    cost = host.Host.cost;
    peer_host;
    qp = None;
    incoming = Queue.create ();
    rx_wq = Waitq.create ();
    peer = None;
    closed = false;
    in_flight = 0;
    cursor = Core.cursor ();
  }

let connect host ~dst ~port =
  match Hashtbl.find_opt listeners (Host.id dst, port) with
  | None -> failwith "rsocket: connection refused"
  | Some l ->
    let cost = host.Host.cost in
    let intra = Host.same_host host dst in
    (* rsocket handshake + QP creation (Table 4 per-connection). *)
    Proc.sleep_ns
      (if intra then cost.Cost.rsocket_conn_setup_intra
       else cost.Cost.tcp_handshake_rsocket);
    let c = make_conn host dst and s = make_conn dst host in
    c.peer <- Some s;
    s.peer <- Some c;
    if not intra then begin
      let nic_c = Host.nic host and nic_s = Host.nic dst in
      let cq_c = Nic.create_cq nic_c and cq_s = Nic.create_cq nic_s in
      let qc, qs = Nic.connect_qps nic_c nic_s ~scq_a:cq_c ~rcq_a:cq_c ~scq_b:cq_s ~rcq_b:cq_s in
      (* A message sent on one QP lands through the peer QP's sink: sends on
         [qc] are delivered to the server conn and vice versa. *)
      Nic.set_remote_sink qs (fun msg ->
          s.in_flight <- s.in_flight - 1;
          deliver s msg);
      Nic.set_remote_sink qc (fun msg ->
          c.in_flight <- c.in_flight - 1;
          deliver c msg);
      c.qp <- Some qc;
      s.qp <- Some qs
    end;
    Queue.push s l.l_backlog;
    Waitq.signal l.l_wq;
    c

let rec accept l =
  match Queue.take_opt l.l_backlog with
  | Some c -> c
  | None ->
    (match Waitq.wait l.l_wq with _ -> ());
    accept l

(* Per-side CPU charge: FD lock + buffer allocate/manage + copy. *)
let side_cost cost len =
  cost.Cost.fd_lock_rsocket + (cost.Cost.rsocket_buffer_mgmt / 2) + Cost.copy_cost cost len

let mtu_chunk = 8 * 1024

let rec send conn buf ~off ~len =
  if conn.closed then raise (Unix.Unix_error (Unix.EPIPE, "send", ""));
  if len = 0 then 0
  else begin
    let chunk = min len mtu_chunk in
    let cost = conn.cost in
    Proc.sleep_ns (side_cost cost chunk + allocator_delay conn.host);
    let msg = Msg.data (Bytes.sub buf off chunk) in
    let peer = match conn.peer with Some p -> p | None -> failwith "rsocket: no peer" in
    (match conn.qp with
    | Some qp ->
      peer.in_flight <- peer.in_flight + 1;
      Nic.send_2sided qp msg
    | None ->
      (* Intra-host: PCIe hairpin through the NIC. *)
      peer.in_flight <- peer.in_flight + 1;
      Nic.hairpin (Host.nic conn.host) msg ~deliver:(fun m ->
          peer.in_flight <- peer.in_flight - 1;
          deliver peer m));
    if chunk < len then chunk + send conn buf ~off:(off + chunk) ~len:(len - chunk) else chunk
  end

let rec recv conn buf ~off ~len =
  if Core.pending conn.cursor then Core.take conn.cursor buf ~off ~len
  else
    match Queue.take_opt conn.incoming with
    | Some msg ->
      let b = Msg.to_bytes msg in
      Proc.sleep_ns (side_cost conn.cost (Bytes.length b));
      Core.land_bytes conn.cursor b ~pos:0 ~stop:(Bytes.length b) buf ~off ~len
    | None ->
      if conn.closed && conn.in_flight = 0 then 0
      else begin
        (match Waitq.wait conn.rx_wq with _ -> ());
        recv conn buf ~off ~len
      end

let close conn =
  conn.closed <- true;
  (match conn.peer with
  | Some p ->
    p.closed <- true;
    Waitq.broadcast p.rx_wq
  | None -> ());
  match conn.qp with
  | Some qp -> Nic.destroy_qp qp
  | None -> ()

(* The compatibility gaps the paper's Table 3 records. *)
let epoll () = raise (Not_supported "rsocket: epoll not supported")
let fork () = raise (Not_supported "rsocket: fork not supported")
