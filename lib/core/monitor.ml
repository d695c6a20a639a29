(* The per-host trusted monitor daemon (§3, §4.5).

   A single simulated thread that polls control messages from every local
   libsd instance (SHM queues) and from remote monitors (an RDMA queue per
   peer host, lazily established with the raw-socket capability handshake).
   It allocates addresses and ports, enforces access control, dispatches new
   connections to per-listener-thread backlogs round-robin, serves work
   stealing, and helps set up peer-to-peer data queues.  The data plane never
   touches it. *)

open Sds_sim
open Sds_transport
module Obs = Sds_obs.Obs

(* Control-plane metrics: the monitor is off the data path, so plain sharded
   counters are free here. *)
let m_requests = Obs.Metrics.counter "monitor.requests"
let m_binds = Obs.Metrics.counter "monitor.binds"
let m_listens = Obs.Metrics.counter "monitor.listens"
let m_wakes = Obs.Metrics.counter "monitor.wakes"

(* Dispatch-policy metrics, shared by name with the real-domain dispatcher
   ([Sds_rt.Rt_monitor]): both backends run the same [Dispatch_core]
   decisions, so their deliveries land in the same counters. *)
let m_dispatch_rr = Obs.Metrics.counter "monitor.dispatch.rr"
let m_dispatch_steals = Obs.Metrics.counter "monitor.dispatch.steals"
let h_dispatch_backlog = Obs.Metrics.histogram "monitor.dispatch.backlog"

(* Both endpoint sockets of a connection, filled in as each side attaches;
   used to pair peers for container live migration. *)
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

type listener_group = { port : int; mutable threads : listener_thread list; mutable rr : int }

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

type t = {
  host : Host.t;
  engine : Engine.t;
  cost : Cost.t;
  ctl : request Queue.t;
  ctl_wq : Waitq.t;
  listeners : (int, listener_group) Hashtbl.t;
  bound_ports : (int, int) Hashtbl.t;  (** port -> owning pid *)
  mutable next_ephemeral : int;
  linked : (int, unit) Hashtbl.t;  (** peer hosts whose monitor link is up *)
  mutable acl : src_host:int -> port:int -> bool;
  fork_secrets : (int, unit) Hashtbl.t;
  kernel_proc : Sds_kernel.Kernel.process;  (** owns fallback listeners *)
  mutable handled : int;
  mutable proc : Proc.t option;
}

let ext_key : t Sds_het.Hmap.key = Sds_het.Hmap.create_key ~name:"sds_monitor" ()

let log = Logs.Src.create "sds.monitor" ~doc:"SocksDirect monitor daemon"

module Log = (val Logs.src_log log : Logs.LOG)

let rec main_loop t () =
  match Queue.take_opt t.ctl with
  | None ->
    (* The monitor queue is always in polling mode (§4.2); in simulation we
       block on the waitq, which costs nothing extra. *)
    (match Waitq.wait t.ctl_wq with _ -> ());
    main_loop t ()
  | Some req ->
    Proc.sleep_ns t.cost.Cost.monitor_processing;
    Obs.Metrics.incr m_requests;
    handle t req;
    t.handled <- t.handled + 1;
    main_loop t ()

and handle t req =
  match req with
  | Bind { b_port; b_pid; b_reply } ->
    let port = if b_port = 0 then ephemeral t else b_port in
    if Hashtbl.mem t.bound_ports port then b_reply (Error "address in use")
    else begin
      Hashtbl.replace t.bound_ports port b_pid;
      Obs.Metrics.incr m_binds;
      b_reply (Ok port)
    end
  | Listen { l_port; l_thread; l_reply } ->
    let group =
      match Hashtbl.find_opt t.listeners l_port with
      | Some g -> g
      | None ->
        (* Mirror the listener in the kernel so regular TCP peers can still
           connect (fallback path, §4.5.3). *)
        let kfd = Sds_kernel.Kernel.socket t.kernel_proc in
        (try Sds_kernel.Kernel.listen t.kernel_proc kfd ~port:l_port ()
         with Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
        let g = { port = l_port; threads = []; rr = 0 } in
        Hashtbl.replace t.listeners l_port g;
        g
    in
    if not (List.exists (fun lt -> lt.lt_uid = l_thread.lt_uid) group.threads) then begin
      group.threads <- group.threads @ [ l_thread ];
      Log.info (fun m ->
          m "h%d: listener thread %d on port %d (%d listeners)" (Host.id t.host) l_thread.lt_uid
            l_port (List.length group.threads))
    end;
    Obs.Metrics.incr m_listens;
    l_reply (Ok ())
  | Syn { syn_dst; syn_port; syn_src_pid; syn_reply } ->
    Log.debug (fun m ->
        m "h%d: SYN from pid %d to host %d port %d" (Host.id t.host) syn_src_pid
          (Host.id syn_dst) syn_port);
    handle_syn t ~dst:syn_dst ~port:syn_port ~src_pid:syn_src_pid ~reply:syn_reply
  | Steal { st_port; st_for; st_reply } -> (
    match Hashtbl.find_opt t.listeners st_port with
    | None -> st_reply None
    | Some g ->
      (* Steal from the longest backlog of a sibling listener (§4.5.2);
         victim selection is the shared [Dispatch_core] policy. *)
      let threads = Array.of_list g.threads in
      let self =
        let found = ref (-1) in
        Array.iteri (fun i lt -> if lt.lt_uid = st_for then found := i) threads;
        !found
      in
      let victim =
        Sds_proto.Dispatch_core.steal_victim ~n:(Array.length threads)
          ~self ~length:(fun i -> Queue.length threads.(i).lt_backlog)
      in
      (match victim with
      | None -> st_reply None
      | Some i ->
        let lt = threads.(i) in
        Obs.Metrics.incr m_dispatch_steals;
        Obs.Trace.emit_n Obs.Trace.Steal st_for;
        Log.debug (fun m -> m "h%d: thread %d steals from thread %d" (Host.id t.host) st_for lt.lt_uid);
        st_reply (Queue.take_opt lt.lt_backlog)))
  | Fork_pair { fp_secret; fp_reply } ->
    if Hashtbl.mem t.fork_secrets fp_secret then begin
      Hashtbl.remove t.fork_secrets fp_secret;
      fp_reply true
    end
    else fp_reply false
  | Wake { w_fn } ->
    Obs.Metrics.incr m_wakes;
    Obs.Trace.emit Obs.Trace.Wake;
    w_fn ()
  | Died { d_pid } ->
    (* Crash cleanup (§4.3): the dead process can never Close its binds,
       so the monitor releases them — a restarted server binds the same
       port without EADDRINUSE. *)
    let stale =
      Hashtbl.fold (fun port pid acc -> if pid = d_pid then port :: acc else acc)
        t.bound_ports []
    in
    List.iter (Hashtbl.remove t.bound_ports) stale;
    Log.info (fun m ->
        m "h%d: pid %d died, released %d port(s)" (Host.id t.host) d_pid (List.length stale))

(* Dispatch a SYN to a listener thread round-robin, skipping full
   backlogs (§4.5.2); the pick is the shared [Dispatch_core] policy. *)
and dispatch group entry =
  match group.threads with
  | [] -> Error "no listener"
  | threads ->
    let arr = Array.of_list threads in
    let n = Array.length arr in
    (match
       Sds_proto.Dispatch_core.pick ~n ~rr:group.rr
         ~length:(fun i -> Queue.length arr.(i).lt_backlog)
         ~capacity:(fun i -> arr.(i).lt_max)
     with
    | None -> Error "backlog full"
    | Some i ->
      let lt = arr.(i) in
      group.rr <- (i + 1) mod n;
      Obs.Metrics.observe h_dispatch_backlog (Queue.length lt.lt_backlog);
      Queue.push entry lt.lt_backlog;
      Obs.Metrics.incr m_dispatch_rr;
      Obs.Trace.emit_n Obs.Trace.Accept group.port;
      Waitq.signal lt.lt_wq;
      Ok ())

and ephemeral t =
  let rec next () =
    let p = t.next_ephemeral in
    t.next_ephemeral <- (if p >= 60999 then 32768 else p + 1);
    if Hashtbl.mem t.bound_ports p then next () else p
  in
  next ()

(* One ring channel per direction: the server's entry and the client's
   reply share both. *)
and queues t ~c2s ~s2c =
  let pairing = { c_sock = None; s_sock = None } in
  let entry =
    { s_tx = Sock.chan_tx s2c; s_rx = c2s; syn_client_host = Host.id t.host; syn_client_port = 0;
      syn_pairing = pairing }
  in
  (entry, Sds_queues (Sock.chan_tx c2s, s2c, pairing))

(* Intra-host: one SHM ring channel per direction, shared by both
   endpoints. *)
and intra_host_queues t =
  let c2s = Shm_chan.create t.engine ~cost:t.cost () in
  let s2c = Shm_chan.create t.engine ~cost:t.cost () in
  queues t ~c2s ~s2c

(* Inter-host: an RDMA QP pair carries one ring channel per direction — the
   §4.2 "two copies of the ring buffer" synchronized by one-sided writes.
   Writes fired on qp_c commit into the server-side channel and vice
   versa. *)
and inter_host_queues t (remote : t) =
  let nic_c = Host.nic t.host and nic_s = Host.nic remote.host in
  let cq_c = Nic.create_cq nic_c and cq_s = Nic.create_cq nic_s in
  let qp_c, qp_s = Nic.connect_qps nic_c nic_s ~scq_a:cq_c ~rcq_a:cq_c ~scq_b:cq_s ~rcq_b:cq_s in
  Nic.set_batching qp_c true;
  Nic.set_batching qp_s true;
  (* Channel c2s: client enqueues, synced through qp_c; the RDMA sink of
     qp_c's peer side commits at the server.  create_rdma installs it. *)
  let c2s = Shm_chan.create_rdma t.engine ~cost:t.cost ~qp:qp_c () in
  let s2c = Shm_chan.create_rdma remote.engine ~cost:remote.cost ~qp:qp_s () in
  queues t ~c2s ~s2c

and handle_syn t ~dst ~port ~src_pid ~reply =
  ignore src_pid;
  if Host.same_host t.host dst then begin
    match Hashtbl.find_opt t.listeners port with
    | None -> reply (Refused "connection refused")
    | Some group ->
      if not (t.acl ~src_host:(Host.id t.host) ~port) then reply (Refused "access denied")
      else begin
        let entry, client = intra_host_queues t in
        match dispatch group entry with
        | Ok () -> reply client
        | Error e -> reply (Refused e)
      end
  end
  else begin
    (* Remote host: capability detection, then monitor-to-monitor SYN. *)
    match find_ext_monitor dst with
    | Some remote when dst.Host.sds_capable && dst.Host.rdma_capable && t.host.Host.rdma_capable ->
      ensure_link t remote;
      let one_way = t.cost.Cost.doorbell_dma_sd + t.cost.Cost.nic_wire in
      Engine.schedule t.engine ~delay:one_way (fun () ->
          post remote
            (Wake
               {
                 w_fn =
                   (fun () ->
                     match Hashtbl.find_opt remote.listeners port with
                     | None -> Engine.schedule remote.engine ~delay:one_way (fun () -> reply (Refused "connection refused"))
                     | Some group ->
                       if not (remote.acl ~src_host:(Host.id t.host) ~port) then
                         Engine.schedule remote.engine ~delay:one_way (fun () -> reply (Refused "access denied"))
                       else begin
                         let entry, client = inter_host_queues t remote in
                         match dispatch group entry with
                         | Ok () -> Engine.schedule remote.engine ~delay:one_way (fun () -> reply client)
                         | Error e ->
                           Engine.schedule remote.engine ~delay:one_way (fun () -> reply (Refused e))
                       end);
               }))
    | _ ->
      (* Peer runs no SocksDirect monitor (or no RDMA): fall back to a
         kernel TCP connection, handed to libsd as a kernel FD. *)
      let kproc = t.kernel_proc in
      let kfd = Sds_kernel.Kernel.socket kproc in
      (try
         Sds_kernel.Kernel.connect kproc kfd ~dst ~port;
         reply (Fallback (kproc, kfd))
       with Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> reply (Refused "connection refused"))
  end

(* The first contact with a peer host costs the raw-socket handshake with
   the special TCP option plus the monitor-to-monitor QP (§4.5.3). *)
and ensure_link t remote =
  let peer = Host.id remote.host in
  if not (Hashtbl.mem t.linked peer) then begin
    Hashtbl.replace t.linked peer ();
    Log.info (fun m ->
        m "h%d: first contact with h%d - raw-socket capability handshake + monitor QP"
          (Host.id t.host) peer);
    Proc.sleep_ns (t.cost.Cost.tcp_handshake + t.cost.Cost.rdma_qp_create)
  end

and post t req =
  Queue.push req t.ctl;
  Waitq.signal t.ctl_wq

and find_ext_monitor host : t option = Host.find_ext host ext_key

let request t req = post t req

(* Synchronous request helper for calling procs: posts and blocks until the
   reply closure fires.  The one-way control message costs one SHM hop. *)
let rpc t make_req =
  let box = ref None in
  let wq = Waitq.create () in
  Proc.sleep_ns t.cost.Cost.shm_msg_overhead;
  post t
    (make_req (fun v ->
         box := Some v;
         Waitq.signal wq));
  let rec await () =
    match !box with
    | Some v -> v
    | None ->
      (match Waitq.wait wq with _ -> ());
      await ()
  in
  await ()

let create host =
  let kernel = Sds_kernel.Kernel.for_host host in
  let t =
    {
      host;
      engine = host.Host.engine;
      cost = host.Host.cost;
      ctl = Queue.create ();
      ctl_wq = Waitq.create ();
      listeners = Hashtbl.create 16;
      bound_ports = Hashtbl.create 16;
      next_ephemeral = 32768;
      linked = Hashtbl.create 4;
      acl = (fun ~src_host:_ ~port:_ -> true);
      fork_secrets = Hashtbl.create 4;
      kernel_proc = Sds_kernel.Kernel.spawn_process kernel ();
      handled = 0;
      proc = None;
    }
  in
  let p = Proc.spawn host.Host.engine ~name:(Fmt.str "monitor-h%d" (Host.id host)) (main_loop t) in
  t.proc <- Some p;
  t

(* The monitor for a host, started on first use. *)
let for_host host = Host.get_ext_or host ext_key ~create

let set_acl t f = t.acl <- f
let handled t = t.handled
let register_fork_secret t secret = Hashtbl.replace t.fork_secrets secret ()
let host t = t.host
let cost t = t.cost
