(* The simulated per-host Linux kernel.

   Owns the process table, the kernel FD namespace (one table per process,
   copy-on-write across fork), the TCP port namespace with listener backlogs,
   pipes/Unix-domain sockets, and epoll instances.  This is the baseline
   stack the paper measures against, and also the substrate libsd falls back
   to for non-socket FDs and non-SocksDirect peers.

   The TCP state machine is the standard one (RFC 793 subset): LISTEN /
   SYN_SENT / SYN_RCVD / ESTABLISHED / FIN_WAIT_1 / FIN_WAIT_2 / CLOSE_WAIT /
   LAST_ACK / CLOSING / TIME_WAIT / CLOSED, driven by connect, accept,
   shutdown and close. *)

open Sds_sim
open Sds_transport

type tcp_state =
  | Closed
  | Listen
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Last_ack
  | Closing
  | Time_wait

let string_of_state = function
  | Closed -> "CLOSED"
  | Listen -> "LISTEN"
  | Syn_sent -> "SYN_SENT"
  | Syn_rcvd -> "SYN_RCVD"
  | Established -> "ESTABLISHED"
  | Fin_wait_1 -> "FIN_WAIT_1"
  | Fin_wait_2 -> "FIN_WAIT_2"
  | Close_wait -> "CLOSE_WAIT"
  | Last_ack -> "LAST_ACK"
  | Closing -> "CLOSING"
  | Time_wait -> "TIME_WAIT"

(* Errors are raised as a real kernel returns them: [Unix.Unix_error] with
   the errno and the call's name. *)
let fail errno call = raise (Unix.Unix_error (errno, call, ""))

type t = {
  host : Host.t;
  engine : Engine.t;
  cost : Cost.t;
  mutable next_pid : int;
  listeners : (int, listener) Hashtbl.t;
  mutable next_ephemeral : int;
  mutable conn_setups : int;
  mutable fd_allocs : int;
}

and process = {
  pid : int;
  kernel : t;
  mutable fds : kobj Fd_table.t;
  mutable parent : process option;
  mutable forked_children : int;
}

and kobj =
  | Tcp of tcp_ep
  | Tcp_listener of listener
  | Pipe_r of pipe_end
  | Pipe_w of pipe_end
  | Epoll of epoll
  | Plain_file of string  (** stand-in for regular files/devices *)

and pipe_end = {
  pstream : Kstream.t;
  mutable p_refs : int;  (** FD references across fork *)
}

and tcp_ep = {
  ep_id : int;
  ep_kernel : t;
  mutable state : tcp_state;
  mutable rx : Kstream.t option;
  mutable tx : Kstream.t option;
  mutable local_port : int;
  mutable remote : (int * int) option;  (** peer host id, peer port *)
  mutable peer : tcp_ep option;
  mutable refs : int;  (** FD-table references (fork sharing) *)
}

and listener = {
  l_kernel : t;
  l_port : int;
  backlog : tcp_ep Queue.t;
  accept_wq : Waitq.t;
  max_backlog : int;
  mutable l_refs : int;
}

and epoll = {
  e_kernel : t;
  watched : (int, process * int) Hashtbl.t;  (** key: watch id = pid shifted + fd *)
  e_wq : Waitq.t;
}

let ext_key : t Sds_het.Hmap.key = Sds_het.Hmap.create_key ~name:"sds_kernel" ()

let create host =
  {
    host;
    engine = host.Host.engine;
    cost = host.Host.cost;
    next_pid = 1;
    listeners = Hashtbl.create 16;
    next_ephemeral = 32768;
    conn_setups = 0;
    fd_allocs = 0;
  }

(* The kernel instance for a host, created on first use. *)
let for_host host = Host.get_ext_or host ext_key ~create

let host t = t.host
let conn_setups t = t.conn_setups

let spawn_process t ?parent () =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  { pid; kernel = t; fds = Fd_table.create (); parent; forked_children = 0 }

(* Fork: the FD table is copied (copy-on-write semantics: entries shared,
   table private) and every shared object gains a reference. *)
let fork proc =
  let child = spawn_process proc.kernel ~parent:proc () in
  proc.forked_children <- proc.forked_children + 1;
  child.fds <- Fd_table.copy proc.fds;
  Fd_table.iter child.fds (fun _ obj ->
      match obj with
      | Tcp ep -> ep.refs <- ep.refs + 1
      | Tcp_listener l -> l.l_refs <- l.l_refs + 1
      | Pipe_r pe | Pipe_w pe -> pe.p_refs <- pe.p_refs + 1
      | Epoll _ | Plain_file _ -> ());
  child

let find proc fd ~call =
  match Fd_table.find proc.fds fd with
  | Some obj -> obj
  | None -> fail Unix.EBADF call

let lookup proc fd = find proc fd ~call:"lookup"

let alloc_fd proc obj =
  proc.kernel.fd_allocs <- proc.kernel.fd_allocs + 1;
  Fd_table.alloc proc.fds obj

(* ---- TCP ---- *)

let ep_counter = ref 0

let make_ep t =
  incr ep_counter;
  { ep_id = !ep_counter; ep_kernel = t; state = Closed; rx = None; tx = None;
    local_port = 0; remote = None; peer = None; refs = 1 }

(* socket(): allocate FD + inode (Table 2: 1.6 us). *)
let socket proc =
  Proc.sleep_ns proc.kernel.cost.Cost.open_socket_fd;
  alloc_fd proc (Tcp (make_ep proc.kernel))

let listen proc fd ~port ?(backlog = 128) () =
  let t = proc.kernel in
  Proc.sleep_ns (Cost.syscall t.cost);
  match find proc fd ~call:"listen" with
  | Tcp ep ->
    if Hashtbl.mem t.listeners port then fail Unix.EADDRINUSE "listen";
    if ep.state <> Closed then invalid_arg "Kernel.listen: bad state";
    ep.state <- Listen;
    ep.local_port <- port;
    let l = { l_kernel = t; l_port = port; backlog = Queue.create (); accept_wq = Waitq.create (); max_backlog = backlog; l_refs = 1 } in
    Hashtbl.replace t.listeners port l;
    Fd_table.bind proc.fds fd (Tcp_listener l)
  | _ -> fail Unix.ENOTSOCK "listen"

let ephemeral_port t =
  let p = t.next_ephemeral in
  t.next_ephemeral <- (if p >= 60999 then 32768 else p + 1);
  p

(* Establish the two unidirectional streams of a connection. *)
let wire_up client server ~intra =
  let t = client.ep_kernel in
  let profile = if intra then Kstream.tcp_intra_profile t.cost else Kstream.tcp_inter_profile t.cost in
  let c2s = Kstream.create t.engine ~profile in
  let s2c = Kstream.create t.engine ~profile in
  client.tx <- Some c2s;
  client.rx <- Some s2c;
  server.tx <- Some s2c;
  server.rx <- Some c2s;
  client.peer <- Some server;
  server.peer <- Some client

(* connect(): three-way handshake against a listener on [dst].  Blocks the
   caller for the handshake RTT; refused immediately when no listener or the
   backlog is full. *)
let connect proc fd ~dst ~port =
  let t = proc.kernel in
  match find proc fd ~call:"connect" with
  | Tcp ep ->
    if ep.state <> Closed then invalid_arg "Kernel.connect: bad state";
    let dst_kernel = for_host dst in
    let intra = Host.same_host t.host dst in
    ep.state <- Syn_sent;
    ep.local_port <- ephemeral_port t;
    Proc.sleep_ns (if intra then t.cost.Cost.linux_conn_setup else t.cost.Cost.tcp_handshake);
    (match Hashtbl.find_opt dst_kernel.listeners port with
    | None ->
      ep.state <- Closed;
      fail Unix.ECONNREFUSED "connect"
    | Some l ->
      if Queue.length l.backlog >= l.max_backlog then begin
        ep.state <- Closed;
        fail Unix.ECONNREFUSED "connect"
      end;
      t.conn_setups <- t.conn_setups + 1;
      let server_ep = make_ep dst_kernel in
      server_ep.state <- Syn_rcvd;
      server_ep.local_port <- port;
      server_ep.remote <- Some (Host.id t.host, ep.local_port);
      ep.remote <- Some (Host.id dst, port);
      wire_up ep server_ep ~intra;
      ep.state <- Established;
      server_ep.state <- Established;
      Queue.push server_ep l.backlog;
      Waitq.signal l.accept_wq)
  | _ -> fail Unix.ENOTSOCK "connect"

(* accept(): blocking dequeue from the backlog; allocates the new FD. *)
let accept proc fd =
  let t = proc.kernel in
  Proc.sleep_ns (Cost.syscall t.cost + t.cost.Cost.spinlock);
  match find proc fd ~call:"accept" with
  | Tcp_listener l ->
    let rec next () =
      match Queue.take_opt l.backlog with
      | Some ep -> alloc_fd proc (Tcp ep)
      | None ->
        (match Waitq.wait l.accept_wq with _ -> ());
        next ()
    in
    next ()
  | _ -> fail Unix.ENOTSOCK "accept"

let established ep = ep.state = Established

let tx_exn ep =
  match ep.tx with Some s -> s | None -> invalid_arg "Kernel: not connected"

let rx_exn ep =
  match ep.rx with Some s -> s | None -> invalid_arg "Kernel: not connected"

(* send(): blocking stream write. *)
let send proc fd src ~off ~len =
  match find proc fd ~call:"send" with
  | Tcp ep ->
    (match ep.state with
    | Established | Close_wait -> Kstream.write (tx_exn ep) src ~off ~len
    | _ -> fail Unix.EPIPE "send")
  | Pipe_w pe -> Kstream.write pe.pstream src ~off ~len
  | _ -> fail Unix.ENOTSOCK "send"

(* recv(): blocking stream read; 0 = orderly EOF. *)
let recv proc fd dst ~off ~len =
  match find proc fd ~call:"recv" with
  | Tcp ep ->
    (match ep.state with
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait -> Kstream.read (rx_exn ep) dst ~off ~len
    | _ -> 0)
  | Pipe_r pe -> Kstream.read pe.pstream dst ~off ~len
  | _ -> fail Unix.ENOTSOCK "recv"

let shutdown_send ep =
  (match ep.tx with Some s -> Kstream.close_write s | None -> ());
  (match ep.state with
  | Established -> ep.state <- Fin_wait_1
  | Close_wait -> ep.state <- Last_ack
  | _ -> ());
  (* Peer transitions on receiving our FIN. *)
  match ep.peer with
  | Some peer ->
    (match peer.state with
    | Established -> peer.state <- Close_wait
    | Fin_wait_1 -> peer.state <- Closing
    | Fin_wait_2 -> peer.state <- Time_wait
    | _ -> ());
    (* Our own FIN-ACK progress. *)
    (match ep.state with
    | Fin_wait_1 when peer.state = Close_wait -> ep.state <- Fin_wait_2
    | Last_ack -> ep.state <- Closed
    | Closing -> ep.state <- Time_wait
    | _ -> ())
  | None -> ()

let close_ep ep =
  ep.refs <- ep.refs - 1;
  if ep.refs <= 0 then begin
    shutdown_send ep;
    (match ep.rx with Some s -> Kstream.close_read s | None -> ());
    match ep.state with
    | Time_wait | Closed | Fin_wait_1 | Fin_wait_2 | Closing -> ()
    | _ -> ep.state <- if ep.state = Close_wait then Last_ack else Closed
  end

let close proc fd =
  let t = proc.kernel in
  Proc.sleep_ns (Cost.syscall t.cost);
  let obj = find proc fd ~call:"close" in
  ignore (Fd_table.close proc.fds fd);
  match obj with
  | Tcp ep -> close_ep ep
  | Tcp_listener l ->
    l.l_refs <- l.l_refs - 1;
    if l.l_refs <= 0 then Hashtbl.remove t.listeners l.l_port
  | Pipe_r pe ->
    pe.p_refs <- pe.p_refs - 1;
    if pe.p_refs <= 0 then Kstream.close_read pe.pstream
  | Pipe_w pe ->
    pe.p_refs <- pe.p_refs - 1;
    if pe.p_refs <= 0 then Kstream.close_write pe.pstream
  | Epoll _ | Plain_file _ -> ()

let tcp_state proc fd =
  match find proc fd ~call:"getsockopt" with
  | Tcp ep -> ep.state
  | Tcp_listener _ -> Listen
  | _ -> fail Unix.ENOTSOCK "getsockopt"

(* ---- plain files ---- *)

(* open(2) on a regular file: a kernel FD with no socket semantics; libsd
   forwards operations on it straight to the kernel. *)
let open_file proc path =
  Proc.sleep_ns (Cost.syscall proc.kernel.cost);
  alloc_fd proc (Plain_file path)

(* ---- pipes ---- *)

let pipe proc =
  let t = proc.kernel in
  Proc.sleep_ns (Cost.syscall t.cost);
  let s = Kstream.create t.engine ~profile:(Kstream.pipe_profile t.cost) in
  let r = alloc_fd proc (Pipe_r { pstream = s; p_refs = 1 }) in
  let w = alloc_fd proc (Pipe_w { pstream = s; p_refs = 1 }) in
  (r, w)

let unix_socketpair ?profile proc =
  let t = proc.kernel in
  let profile = match profile with Some p -> p | None -> Kstream.unix_profile t.cost in
  Proc.sleep_ns (Cost.syscall t.cost);
  let a2b = Kstream.create t.engine ~profile in
  let b2a = Kstream.create t.engine ~profile in
  let mk ep_rx ep_tx =
    let ep = make_ep t in
    ep.state <- Established;
    ep.rx <- Some ep_rx;
    ep.tx <- Some ep_tx;
    ep
  in
  let a = mk b2a a2b and b = mk a2b b2a in
  a.peer <- Some b;
  b.peer <- Some a;
  (alloc_fd proc (Tcp a), alloc_fd proc (Tcp b))

(* ---- epoll ---- *)

let epoll_create proc =
  let t = proc.kernel in
  Proc.sleep_ns (Cost.syscall t.cost);
  alloc_fd proc (Epoll { e_kernel = t; watched = Hashtbl.create 16; e_wq = Waitq.create () })

let as_epoll proc fd =
  match lookup proc fd with
  | Epoll e -> e
  | _ -> invalid_arg "Kernel: not an epoll fd"

let obj_readable = function
  | Tcp ep ->
    (match ep.rx with
    | Some s -> Kstream.readable_now s
    | None -> ep.state <> Established && ep.state <> Closed && ep.state <> Syn_sent)
  | Tcp_listener l -> not (Queue.is_empty l.backlog)
  | Pipe_r pe -> Kstream.readable_now pe.pstream
  | Pipe_w _ | Epoll _ | Plain_file _ -> false

let epoll_add proc epfd ~watch_pid ~fd =
  let e = as_epoll proc epfd in
  Proc.sleep_ns (Cost.syscall e.e_kernel.cost);
  let owner = if watch_pid = proc.pid then proc else proc (* same-process watches only *) in
  Hashtbl.replace e.watched ((owner.pid * 1_000_000) + fd) (owner, fd);
  (* Edge notification: readable events poke the epoll waitq. *)
  (match lookup owner fd with
  | Tcp ep -> (match ep.rx with Some s -> Kstream.on_readable s (fun () -> Waitq.signal e.e_wq) | None -> ())
  | Tcp_listener l ->
    (* accept readiness: piggyback on the backlog waitq by polling *)
    ignore l
  | Pipe_r pe -> Kstream.on_readable pe.pstream (fun () -> Waitq.signal e.e_wq)
  | _ -> ())

let epoll_del proc epfd ~fd =
  let e = as_epoll proc epfd in
  Hashtbl.remove e.watched ((proc.pid * 1_000_000) + fd)

(* Level-triggered wait: returns ready (pid, fd) pairs. *)
let epoll_wait proc epfd ?timeout_ns () =
  let e = as_epoll proc epfd in
  Proc.sleep_ns (Cost.syscall e.e_kernel.cost);
  let ready () =
    Hashtbl.fold
      (fun _ (owner, fd) acc ->
        match Fd_table.find owner.fds fd with
        | Some obj when obj_readable obj -> fd :: acc
        | _ -> acc)
      e.watched []
  in
  let rec loop deadline =
    match ready () with
    | _ :: _ as fds -> List.sort Int.compare fds
    | [] ->
      let now = Engine.now e.e_kernel.engine in
      (match deadline with
      | Some d when now >= d -> []
      | _ ->
        let timeout_ns = Option.map (fun d -> max 1 (d - now)) deadline in
        (match Waitq.wait ?timeout_ns e.e_wq with
        | Waitq.Timeout -> []
        | Waitq.Signaled ->
          Proc.sleep_ns e.e_kernel.cost.Cost.process_wakeup;
          loop deadline))
  in
  let deadline = Option.map (fun d -> Engine.now e.e_kernel.engine + d) timeout_ns in
  loop deadline
