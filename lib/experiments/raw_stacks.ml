(* "Raw" reference stacks for the figures' dashed lines: bare RDMA write
   verbs and a bare SHM queue, with no socket semantics on top.  These bound
   what any socket system could achieve (Figure 8's RDMA line, Table 2's
   lockless-queue row). *)

open Sds_sim
open Sds_transport
module Core = Sds_proto.Stream_core

(* ---- raw one-sided RDMA write ---- *)

module Raw_rdma : sig
  include Sds_apps.Sock_api.S with type endpoint = Host.t

  val reset : unit -> unit
end = struct
  let name = "RDMA"

  type endpoint = Host.t

  type conn = {
    host : Host.t;
    mutable qp : Nic.qp option;
    incoming : Msg.t Queue.t;
    rx_wq : Waitq.t;
    cursor : Core.cursor;  (** partly read message *)
  }

  type listener = { backlog : conn Queue.t; l_wq : Waitq.t; l_host : Host.t }

  let listeners : (int * int, listener) Hashtbl.t = Hashtbl.create 8

  let reset () = Hashtbl.reset listeners
  let make_endpoint host ~core:_ = host

  let listen host ~port =
    let l = { backlog = Queue.create (); l_wq = Waitq.create (); l_host = host } in
    Hashtbl.replace listeners (Host.id host, port) l;
    l

  let make_conn host =
    { host; qp = None; incoming = Queue.create (); rx_wq = Waitq.create ();
      cursor = Core.cursor () }

  let deliver c msg =
    Queue.push msg c.incoming;
    Waitq.signal c.rx_wq

  let connect host ~dst ~port =
    match Hashtbl.find_opt listeners (Host.id dst, port) with
    | None -> failwith "raw-rdma: refused"
    | Some l ->
      let c = make_conn host and s = make_conn dst in
      let nic_c = Host.nic host and nic_s = Host.nic dst in
      let cq_c = Nic.create_cq nic_c and cq_s = Nic.create_cq nic_s in
      let qc, qs = Nic.connect_qps nic_c nic_s ~scq_a:cq_c ~rcq_a:cq_c ~scq_b:cq_s ~rcq_b:cq_s in
      Nic.set_remote_sink qc (fun m -> deliver c m);
      Nic.set_remote_sink qs (fun m -> deliver s m);
      c.qp <- Some qc;
      s.qp <- Some qs;
      Queue.push s l.backlog;
      Waitq.signal l.l_wq;
      c

  let rec accept _ l =
    match Queue.take_opt l.backlog with
    | Some c -> c
    | None ->
      (match Waitq.wait l.l_wq with _ -> ());
      accept l.l_host l

  (* A raw write posts the WQE (one doorbell MMIO) and returns; no locks, no
     buffer management, no socket bookkeeping. *)
  let send _ c buf ~off ~len =
    (match c.qp with
    | Some qp ->
      Nic.wait_send_capacity qp;
      Proc.sleep_ns 30 (* WQE construction + doorbell write *);
      Nic.write_imm qp (Msg.data (Bytes.sub buf off len)) ~imm:0
    | None -> failwith "raw-rdma: not connected");
    len

  let rec recv _ c buf ~off ~len =
    if Core.pending c.cursor then Core.take c.cursor buf ~off ~len
    else
      match Queue.take_opt c.incoming with
      | Some msg ->
        Proc.sleep_ns 30 (* CQ poll + completion handling *);
        let b = Msg.to_bytes msg in
        Core.land_bytes c.cursor b ~pos:0 ~stop:(Bytes.length b) buf ~off ~len
      | None ->
        (match Waitq.wait c.rx_wq with _ -> ());
        recv c.host c buf ~off ~len

  let close _ c = match c.qp with Some qp -> Nic.destroy_qp qp | None -> ()
end

(* ---- raw lockless SHM queue ---- *)

module Raw_shm : sig
  include Sds_apps.Sock_api.S with type endpoint = Host.t

  val reset : unit -> unit
end = struct
  let name = "SHM queue"

  type endpoint = Host.t

  type conn = { tx : Shm_chan.t; rx : Shm_chan.t; cursor : Core.cursor }
  type listener = { backlog : conn Queue.t; l_wq : Waitq.t }

  let listeners : (int * int, listener) Hashtbl.t = Hashtbl.create 8

  let reset () = Hashtbl.reset listeners
  let make_endpoint host ~core:_ = host

  let listen host ~port =
    let l = { backlog = Queue.create (); l_wq = Waitq.create () } in
    Hashtbl.replace listeners (Host.id host, port) l;
    l

  let connect host ~dst ~port =
    match Hashtbl.find_opt listeners (Host.id dst, port) with
    | None -> failwith "raw-shm: refused"
    | Some l ->
      let a2b = Shm_chan.create host.Host.engine ~cost:host.Host.cost () in
      let b2a = Shm_chan.create host.Host.engine ~cost:host.Host.cost () in
      Queue.push { tx = b2a; rx = a2b; cursor = Core.cursor () } l.backlog;
      Waitq.signal l.l_wq;
      { tx = a2b; rx = b2a; cursor = Core.cursor () }

  let rec accept host l =
    match Queue.take_opt l.backlog with
    | Some c -> c
    | None ->
      (match Waitq.wait l.l_wq with _ -> ());
      accept host l

  let rec send host c buf ~off ~len =
    match Shm_chan.try_send c.tx (Msg.data (Bytes.sub buf off len)) with
    | Shm_chan.Sent -> len
    | Shm_chan.Full ->
      (match Waitq.wait (Shm_chan.tx_waitq c.tx) with _ -> ());
      send host c buf ~off ~len

  let rec recv host c buf ~off ~len =
    if Core.pending c.cursor then Core.take c.cursor buf ~off ~len
    else
      match Shm_chan.try_recv c.rx with
      | Some msg ->
        let b = Msg.to_bytes msg in
        Core.land_bytes c.cursor b ~pos:0 ~stop:(Bytes.length b) buf ~off ~len
      | None ->
        (match Waitq.wait (Shm_chan.rx_waitq c.rx) with _ -> ());
        recv host c buf ~off ~len

  let close _ _ = ()
end
