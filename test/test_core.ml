(* Tests for the SocksDirect core: tokens, connection setup over SHM and
   RDMA, stream semantics, fork, exec, zero copy, TCP fallback, work
   stealing, epoll, shutdown/close, access control, connection states. *)

module L = Socksdirect.Libsd
module Sock = Socksdirect.Sock
module Monitor = Socksdirect.Monitor
module Token = Socksdirect.Token
open Helpers

let recv_exact th fd n =
  let b = Bytes.create n in
  let rec fill off =
    if off = n then b
    else
      let got = L.recv th fd b ~off ~len:(n - off) in
      if got = 0 then failwith "unexpected EOF" else fill (off + got)
  in
  fill 0

let send_all th fd b = ignore (L.send th fd b ~off:0 ~len:(Bytes.length b))

(* Server that echoes [rounds] messages of [size] bytes on one accepted
   connection. *)
let echo_server w host ~port ~rounds ~size =
  let ready = ref false in
  ignore
    (spawn w "echo-server" (fun () ->
         let ctx = L.init host in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port;
         L.listen th lfd;
         ready := true;
         let cfd = L.accept th lfd in
         for _ = 1 to rounds do
           let m = recv_exact th cfd size in
           send_all th cfd m
         done));
  ready

let test_intra_pingpong () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:80 ~rounds:10 ~size:8 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:80;
      for i = 1 to 10 do
        let msg = Bytes.of_string (Printf.sprintf "ping%04d" i) in
        send_all th fd msg;
        let back = recv_exact th fd 8 in
        check_bytes "echo" msg back
      done;
      L.close th fd)

let test_inter_pingpong () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = echo_server w h2 ~port:80 ~rounds:10 ~size:8 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:80;
      for i = 1 to 10 do
        let msg = Bytes.of_string (Printf.sprintf "PING%04d" i) in
        send_all th fd msg;
        let back = recv_exact th fd 8 in
        check_bytes "echo" msg back
      done)

(* ---- stream semantics ---- *)

let test_stream_reassembly () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "stream-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:81;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         send_all th fd (Bytes.of_string "abcdefghijklmnop")));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:81;
      (* One large send consumed by several small recvs. *)
      let b3 = recv_exact th fd 3 in
      check_bytes "part 1" (Bytes.of_string "abc") b3;
      let b5 = recv_exact th fd 5 in
      check_bytes "part 2" (Bytes.of_string "defgh") b5;
      let b8 = recv_exact th fd 8 in
      check_bytes "part 3" (Bytes.of_string "ijklmnop") b8)

let test_large_message_chunking () =
  (* Below the zero-copy threshold but above one inline chunk: data must
     arrive intact through the chunked path. *)
  let w = make_world () in
  let h = add_host w in
  let size = 15_000 in
  let payload = Bytes.init size (fun i -> Char.chr (i * 31 mod 256)) in
  let ready = ref false in
  ignore
    (spawn w "chunk-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:82;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd size in
         send_all th fd m));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:82;
      send_all th fd payload;
      let back = recv_exact th fd size in
      check_bytes "chunked payload intact" payload back)

(* ---- zero copy ---- *)

let zerocopy_roundtrip ~intra () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = if intra then h1 else add_host w in
  let size = 256 * 1024 in
  let payload = Bytes.init size (fun i -> Char.chr (i * 7 mod 256)) in
  let server_stats = ref (0, 0, 0, 0, 0) in
  let ready = ref false in
  ignore
    (spawn w "zc-server" (fun () ->
         let ctx = L.init h2 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:83;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd size in
         send_all th fd m;
         server_stats := L.sock_stats th fd));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:83;
      send_all th fd payload;
      let back = recv_exact th fd size in
      check_bytes "zero-copy payload intact" payload back;
      let _, _, zc_sends, zc_recvs, _ = L.sock_stats th fd in
      Alcotest.(check bool) "client used zero-copy send" true (zc_sends > 0);
      Alcotest.(check bool) "client used zero-copy recv" true (zc_recvs > 0));
  let _, _, s_sends, s_recvs, _ = !server_stats in
  Alcotest.(check bool) "server used zero copy" true (s_sends > 0 && s_recvs > 0)

let zerocopy_page_return ~intra () =
  (* After a zero-copy exchange drains, every page must be back in the
     sending process's pool: the pool may not leak. *)
  let w = make_world () in
  let h = add_host w in
  let h2 = if intra then h else add_host w in
  let size = 64 * 1024 in
  let rounds = 50 in
  let sender_pool = ref None in
  let ready = ref false in
  ignore
    (spawn w "pr-server" (fun () ->
         let ctx = L.init h2 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:84;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         for _ = 1 to rounds do
           ignore (recv_exact th fd size)
         done));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:84;
      let payload = Bytes.make size 'z' in
      for _ = 1 to rounds do
        send_all th fd payload
      done;
      Sds_sim.Proc.sleep_ns 5_000_000;
      let _, _, zc_sends, _, _ = L.sock_stats th fd in
      Alcotest.(check int) "every send took the descriptor path" rounds zc_sends;
      sender_pool := Some (L.pool_of ctx));
  match !sender_pool with
  | None -> Alcotest.fail "client never finished"
  | Some pool ->
    (* 50 rounds x 16 pages: without the release on receive, 800 pages
       would be gone. *)
    Alcotest.(check int) "every page back in the sender's pool"
      (Sds_vm.Pagepool.pages pool) (Sds_vm.Pagepool.free_pages pool)

(* A short read of a descriptor record copies the unread remainder out of
   the pages and releases all of them within the call: the sender's pool
   is whole again after the first 4 KiB [recv] of a 16-page record, and
   the remainder still arrives intact. *)
let test_short_read_holds_no_page () =
  let w = make_world () in
  let h = add_host w in
  let size = 64 * 1024 and chunk = 4096 in
  let payload = Bytes.init size (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
  let sender_pool = ref None and sent = ref false and ready = ref false in
  let free_after_first = ref (-1) and zc_sends = ref 0 in
  let got = Buffer.create size in
  ignore
    (spawn w "short-read-server" (fun () ->
         let th = L.create_thread (L.init h) ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:86;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         wait_for sent;
         let dst = Bytes.create chunk in
         let n = L.recv th fd dst ~off:0 ~len:chunk in
         Buffer.add_subbytes got dst 0 n;
         (match !sender_pool with
         | Some pool -> free_after_first := Sds_vm.Pagepool.free_pages pool
         | None -> ());
         while Buffer.length got < size do
           let n = L.recv th fd dst ~off:0 ~len:chunk in
           if n = 0 then failwith "unexpected EOF";
           Buffer.add_subbytes got dst 0 n
         done));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:86;
      sender_pool := Some (L.pool_of ctx);
      send_all th fd payload;
      let _, _, zc, _, _ = L.sock_stats th fd in
      zc_sends := zc;
      sent := true;
      while Buffer.length got < size do
        Sds_sim.Proc.sleep_ns 10_000
      done);
  Alcotest.(check int) "the send went by descriptor" 1 !zc_sends;
  (match !sender_pool with
  | None -> Alcotest.fail "client never connected"
  | Some pool ->
    Alcotest.(check int) "no page held after the first short read"
      (Sds_vm.Pagepool.pages pool) !free_after_first);
  check_bytes "every byte arrives intact" payload (Buffer.to_bytes got)

(* ---- fork ---- *)

let test_fork_socket_handoff () =
  (* The master-worker pattern §2.2 says breaks on LibVMA/RSocket: parent
     accepts, forks, the CHILD serves the connection, while the parent keeps
     accepting on the listener. *)
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "master" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:85;
         L.listen th lfd;
         ready := true;
         let conn = L.accept th lfd in
         let child_ctx = L.fork th in
         ignore
           (spawn w "worker-child" (fun () ->
                let cth = L.create_thread child_ctx ~core:2 () in
                let m = recv_exact cth conn 5 in
                check_bytes "child sees request" (Bytes.of_string "hello") m;
                send_all cth conn (Bytes.of_string "child")));
         (* The parent keeps accepting on the listener. *)
         let conn2 = L.accept th lfd in
         let m = recv_exact th conn2 5 in
         check_bytes "parent serves second conn" (Bytes.of_string "again") m;
         send_all th conn2 (Bytes.of_string "paren")));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:85;
      send_all th fd (Bytes.of_string "hello");
      check_bytes "served by child" (Bytes.of_string "child") (recv_exact th fd 5);
      let fd2 = L.socket th in
      L.connect th fd2 ~dst:h ~port:85;
      send_all th fd2 (Bytes.of_string "again");
      check_bytes "served by parent" (Bytes.of_string "paren") (recv_exact th fd2 5))

let test_fork_fd_table_cow () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd_shared = L.socket th in
      let child_ctx = L.fork th in
      let cth = L.create_thread child_ctx ~core:1 () in
      (* New FDs after fork are private: both processes reuse the same
         number independently (copy-on-write FD table). *)
      let fd_parent = L.socket th in
      let fd_child = L.socket cth in
      Alcotest.(check int) "same fd number allocated in both" fd_parent fd_child;
      (* Closing the inherited fd in the child must not kill the parent's. *)
      L.close cth fd_shared;
      match L.lookup th fd_shared with
      | L.U s -> Alcotest.(check bool) "socket alive for parent" true (s.Sock.refs >= 1)
      | _ -> Alcotest.fail "expected user socket")

let test_fork_inter_host_reinit () =
  (* A child using an inherited inter-host socket must pay QP
     re-establishment once, then work normally (§4.1.2). *)
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = echo_server w h2 ~port:86 ~rounds:2 ~size:4 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:86;
      send_all th fd (Bytes.of_string "one!");
      ignore (recv_exact th fd 4);
      let child_ctx = L.fork th in
      let cth = L.create_thread child_ctx ~core:2 () in
      let t0 = Sds_sim.Engine.now w.engine in
      send_all cth fd (Bytes.of_string "two!");
      check_bytes "child echo" (Bytes.of_string "two!") (recv_exact cth fd 4);
      let elapsed = Sds_sim.Engine.now w.engine - t0 in
      Alcotest.(check bool) "child paid QP re-init" true
        (elapsed >= Sds_sim.Cost.default.Sds_sim.Cost.rdma_qp_create))

let test_exec_preserves_sockets () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:87 ~rounds:1 ~size:4 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:87;
      (* exec(): memory wiped, FD remapping table recovered from SHM. *)
      L.exec ctx;
      send_all th fd (Bytes.of_string "exec");
      check_bytes "socket survives exec" (Bytes.of_string "exec") (recv_exact th fd 4))

(* ---- tokens ---- *)

let test_token_fast_path_and_takeover () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "tk-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:2 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:88;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         for _ = 1 to 20 do
           ignore (recv_exact th fd 4)
         done));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th1 = L.create_thread ctx ~core:0 () in
      let th2 = L.create_thread ctx ~core:1 () in
      let fd = L.socket th1 in
      L.connect th1 fd ~dst:h ~port:88;
      (* Same-thread sends: no take-overs (the common case). *)
      for _ = 1 to 10 do
        send_all th1 fd (Bytes.of_string "aaaa")
      done;
      let _, _, _, _, takeovers = L.sock_stats th1 fd in
      Alcotest.(check int) "fast path: no takeovers" 0 takeovers;
      (* Alternating threads: each switch is one take-over. *)
      for i = 1 to 10 do
        let th = if i land 1 = 0 then th1 else th2 in
        send_all th fd (Bytes.of_string "bbbb")
      done;
      let _, _, _, _, takeovers = L.sock_stats th1 fd in
      Alcotest.(check bool) "alternating threads pay takeovers" true (takeovers >= 9))

let test_token_mutual_exclusion () =
  let w = make_world () in
  ignore (add_host w);
  let cost = Sds_sim.Cost.default in
  let tok = Token.create ~cost ~holder:1 in
  let order = ref [] in
  for i = 2 to 4 do
    ignore
      (spawn w (Fmt.str "tok%d" i) (fun () ->
           Token.with_held tok ~tid:i (fun () ->
               order := i :: !order;
               Sds_sim.Proc.sleep_ns 100)))
  done;
  run w (fun () -> Sds_sim.Proc.sleep_ns 100_000);
  Alcotest.(check int) "all three held the token" 3 (List.length !order);
  Alcotest.(check bool) "takeovers counted" true (Token.takeovers tok >= 3)

(* ---- connection management ---- *)

let test_connect_refused () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      check_errno "no listener" Unix.ECONNREFUSED (fun () -> L.connect th fd ~dst:h ~port:4444))

let test_access_control () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:89 ~rounds:1 ~size:1 in
  run w (fun () ->
      wait_for ready;
      Monitor.set_acl (Monitor.for_host h) (fun ~src_host:_ ~port -> port <> 89);
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      check_errno "ACL denies" Unix.ECONNREFUSED (fun () -> L.connect th fd ~dst:h ~port:89))

let test_bind_port_conflict () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let a = L.socket th in
      L.bind th a ~port:90;
      let b = L.socket th in
      check_errno "EADDRINUSE" Unix.EADDRINUSE (fun () -> L.bind th b ~port:90))

let test_state_machine_fig6 () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:91 ~rounds:1 ~size:1 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      (match L.lookup th fd with
      | L.U s ->
        Alcotest.(check string) "fresh socket closed" "Closed" (Sock.string_of_state s.Sock.state)
      | _ -> Alcotest.fail "expected socket");
      L.bind th fd ~port:0;
      (match L.lookup th fd with
      | L.U s -> Alcotest.(check string) "bound" "Bound" (Sock.string_of_state s.Sock.state)
      | _ -> ());
      L.connect th fd ~dst:h ~port:91;
      match L.lookup th fd with
      | L.U s ->
        Alcotest.(check string) "established" "Established" (Sock.string_of_state s.Sock.state)
      | _ -> ())

let test_shutdown_eof () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  let server_saw_eof = ref false in
  ignore
    (spawn w "eof-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:92;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd 4 in
         check_bytes "data before FIN" (Bytes.of_string "data") m;
         let b = Bytes.create 1 in
         server_saw_eof := L.recv th fd b ~off:0 ~len:1 = 0));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:92;
      send_all th fd (Bytes.of_string "data");
      L.shutdown th fd `Send;
      check_errno "send after shutdown" Unix.EPIPE (fun () ->
          L.send th fd (Bytes.of_string "x") ~off:0 ~len:1);
      Sds_sim.Proc.sleep_ns 1_000_000);
  Alcotest.(check bool) "server got clean EOF after data" true !server_saw_eof

(* ---- dispatch & work stealing ---- *)

let test_round_robin_dispatch_and_stealing () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref 0 in
  let served = Array.make 2 0 in
  (* Two listener threads in one process accepting on the same port —
     Table 3's "multiple applications listen on a port". *)
  ignore
    (spawn w "ws-server" (fun () ->
         let ctx = L.init h in
         for t = 0 to 1 do
           ignore
             (spawn w (Fmt.str "listener%d" t) (fun () ->
                  let th = L.create_thread ctx ~core:(1 + t) () in
                  let lfd = L.socket th in
                  (try L.bind th lfd ~port:93 with _ -> ());
                  (match L.lookup th lfd with
                  | L.U s ->
                    if s.Sock.state = Sock.Closed then s.Sock.local_port <- 93;
                    s.Sock.state <- Sock.Bound
                  | _ -> ());
                  L.listen th lfd;
                  incr ready;
                  for _ = 1 to 3 do
                    let fd = L.accept th lfd in
                    served.(t) <- served.(t) + 1;
                    send_all th fd (Bytes.of_string "!")
                  done))
         done));
  run w (fun () ->
      while !ready < 2 do
        Sds_sim.Proc.sleep_ns 1_000
      done;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      for _ = 1 to 6 do
        let fd = L.socket th in
        L.connect th fd ~dst:h ~port:93;
        ignore (recv_exact th fd 1);
        L.close th fd
      done);
  Alcotest.(check int) "all six served" 6 (served.(0) + served.(1));
  Alcotest.(check bool) "both listeners served some (round-robin or stealing)" true
    (served.(0) > 0 && served.(1) > 0)

(* ---- TCP fallback ---- *)

let test_fallback_to_kernel_tcp () =
  let w = make_world () in
  let h1 = add_host w in
  (* Peer host runs no SocksDirect monitor. *)
  let h2 = add_host w in
  h2.Sds_transport.Host.sds_capable <- false;
  let ready = ref false in
  ignore
    (spawn w "legacy-server" (fun () ->
         let kernel = Sds_kernel.Kernel.for_host h2 in
         let kproc = Sds_kernel.Kernel.spawn_process kernel () in
         let lfd = Sds_kernel.Kernel.socket kproc in
         Sds_kernel.Kernel.listen kproc lfd ~port:94 ();
         ready := true;
         let fd = Sds_kernel.Kernel.accept kproc lfd in
         let b = Bytes.create 6 in
         let rec fill off =
           if off < 6 then fill (off + Sds_kernel.Kernel.recv kproc fd b ~off ~len:(6 - off))
         in
         fill 0;
         ignore (Sds_kernel.Kernel.send kproc fd b ~off:0 ~len:6)));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      (* libsd detects the peer is not SocksDirect-capable and falls back. *)
      L.connect th fd ~dst:h2 ~port:94;
      (match L.lookup th fd with
      | L.K _ -> ()
      | _ -> Alcotest.fail "expected kernel fallback fd");
      send_all th fd (Bytes.of_string "legacy");
      check_bytes "works over kernel TCP" (Bytes.of_string "legacy") (recv_exact th fd 6))

(* ---- epoll ---- *)

let test_epoll_user_sockets () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "ep-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:95;
         L.listen th lfd;
         ready := true;
         let a = L.accept th lfd in
         let b = L.accept th lfd in
         Sds_sim.Proc.sleep_ns 10_000;
         send_all th b (Bytes.of_string "B");
         Sds_sim.Proc.sleep_ns 10_000;
         send_all th a (Bytes.of_string "A")));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fa = L.socket th in
      L.connect th fa ~dst:h ~port:95;
      let fb = L.socket th in
      L.connect th fb ~dst:h ~port:95;
      let ep = L.epoll_create th in
      L.epoll_add th ep fa;
      L.epoll_add th ep fb;
      let ready1 = L.epoll_wait th ep () in
      Alcotest.(check (list int)) "B readable first" [ fb ] ready1;
      check_bytes "read B" (Bytes.of_string "B") (recv_exact th fb 1);
      let ready2 = L.epoll_wait th ep () in
      Alcotest.(check (list int)) "then A" [ fa ] ready2;
      check_bytes "read A" (Bytes.of_string "A") (recv_exact th fa 1);
      let ready3 = L.epoll_wait th ep ~timeout_ns:5_000 () in
      Alcotest.(check (list int)) "timeout empty" [] ready3)

let test_epoll_mixed_kernel_and_user () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:96 ~rounds:1 ~size:1 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let ufd = L.socket th in
      L.connect th ufd ~dst:h ~port:96;
      (* ...plus a kernel pipe registered in the same epoll (the dual
         namespace §4.4 multiplexes). *)
      let kproc = L.kernel_process ctx in
      let r, wr = Sds_kernel.Kernel.pipe kproc in
      let rfd = L.register_kernel_fd th r in
      let ep = L.epoll_create th in
      L.epoll_add th ep ufd;
      L.epoll_add th ep rfd;
      ignore (Sds_kernel.Kernel.send kproc wr (Bytes.of_string "k") ~off:0 ~len:1);
      Sds_sim.Proc.sleep_ns 1_000;
      let ready1 = L.epoll_wait th ep () in
      Alcotest.(check (list int)) "kernel fd ready" [ rfd ] ready1;
      (* Consume the pipe byte: epoll is level-triggered. *)
      let d = Bytes.create 1 in
      ignore (L.recv th rfd d ~off:0 ~len:1);
      send_all th ufd (Bytes.of_string "u");
      let ready2 = L.epoll_wait th ep () in
      Alcotest.(check bool) "user socket surfaces too" true (List.mem ufd ready2))

(* ---- interrupt mode (§4.4) ---- *)

let test_interrupt_mode_sleep_and_wake () =
  (* A receiver with no traffic exhausts its polling budget, switches the
     queue to interrupt mode and sleeps; a late sender must wake it through
     the monitor relay, costing a process wakeup. *)
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  let server_got = ref false in
  let waited = ref 0 in
  ignore
    (spawn w "int-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:97;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let b = Bytes.create 4 in
         let t0 = Sds_sim.Engine.now w.engine in
         (* Nothing arrives for a long time: the server must sleep, not
            burn the horizon polling. *)
         let n = L.recv th fd b ~off:0 ~len:4 in
         waited := Sds_sim.Engine.now w.engine - t0;
         server_got := n = 4));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:97;
      (* Quiet period far beyond the polling budget. *)
      Sds_sim.Proc.sleep_ns 5_000_000;
      send_all th fd (Bytes.of_string "wake"));
  Alcotest.(check bool) "message received after sleep" true !server_got;
  Alcotest.(check bool) "receiver really waited" true (!waited >= 5_000_000);
  (* The wakeup path costs at least a process wakeup beyond the wait. *)
  Alcotest.(check bool) "wakeup cost paid" true
    (!waited >= 5_000_000 + Sds_sim.Cost.default.Sds_sim.Cost.process_wakeup)

(* ---- container live migration (§4.1.3) ---- *)

let test_live_migration_no_data_loss () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  ignore
    (spawn w "mig-server" (fun () ->
         let ctx = L.init h1 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:98;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let b = Bytes.create 8 in
         for _ = 1 to 20 do
           let got = ref 0 in
           while !got < 8 do
             got := !got + L.recv th fd b ~off:!got ~len:(8 - !got)
           done;
           ignore (L.send th fd b ~off:0 ~len:8)
         done));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:2 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h1 ~port:98;
      let roundtrip th i =
        let msg = Bytes.of_string (Printf.sprintf "mig%05d" i) in
        send_all th fd msg;
        check_bytes "echo across migration" msg (recv_exact th fd 8)
      in
      for i = 1 to 10 do
        roundtrip th i
      done;
      (* Migrate the client container to the other host mid-connection. *)
      L.migrate ctx ~to_host:h2;
      let th2 = L.create_thread ctx ~core:2 () in
      let t0 = Sds_sim.Engine.now w.engine in
      roundtrip th2 11;
      let rtt_remote = Sds_sim.Engine.now w.engine - t0 in
      for i = 12 to 20 do
        roundtrip th2 i
      done;
      (* The connection is now inter-host: latency reflects RDMA. *)
      Alcotest.(check bool) "post-migration RTT is inter-host" true (rtt_remote > 1_000))

(* ---- FD semantics through libsd ---- *)

let test_libsd_fd_lowest () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let a = L.socket th in
      let b = L.socket th in
      let c = L.socket th in
      Alcotest.(check (list int)) "sequential" [ a; a + 1; a + 2 ] [ a; b; c ];
      L.close th b;
      let d = L.socket th in
      Alcotest.(check int) "lowest free reused" b d)

(* ---- nonblocking / dup / poll / select ---- *)

let test_nonblocking_recv () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:110 ~rounds:1 ~size:4 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:110;
      L.set_nonblocking th fd true;
      let b = Bytes.create 4 in
      (* Nothing sent yet: EAGAIN. *)
      check_errno "would block" Unix.EAGAIN (fun () -> L.try_recv th fd b ~off:0 ~len:4);
      send_all th fd (Bytes.of_string "ping");
      Sds_sim.Proc.sleep_ns 10_000;
      let n = L.try_recv th fd b ~off:0 ~len:4 in
      Alcotest.(check int) "echo available" 4 n;
      check_bytes "content" (Bytes.of_string "ping") b)

let test_dup_shares_socket () =
  let w = make_world () in
  let h = add_host w in
  let ready = echo_server w h ~port:111 ~rounds:2 ~size:4 in
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:111;
      let fd2 = L.dup th fd in
      Alcotest.(check bool) "new descriptor" true (fd2 <> fd);
      (* Both descriptors reach the same connection. *)
      send_all th fd (Bytes.of_string "one!");
      check_bytes "via original" (Bytes.of_string "one!") (recv_exact th fd 4);
      send_all th fd2 (Bytes.of_string "two!");
      check_bytes "via dup" (Bytes.of_string "two!") (recv_exact th fd2 4);
      (* Closing one leaves the other usable. *)
      L.close th fd;
      match L.lookup th fd2 with
      | L.U s -> Alcotest.(check bool) "socket alive" true (s.Sock.refs >= 1)
      | _ -> Alcotest.fail "expected socket")

let test_poll_and_select () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "poll-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:112;
         L.listen th lfd;
         ready := true;
         let a = L.accept th lfd in
         let b = L.accept th lfd in
         Sds_sim.Proc.sleep_ns 20_000;
         send_all th a (Bytes.of_string "A");
         ignore b));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fa = L.socket th in
      L.connect th fa ~dst:h ~port:112;
      let fb = L.socket th in
      L.connect th fb ~dst:h ~port:112;
      (* Timeout with nothing ready... *)
      let r0 = L.poll th [ fa; fb ] ~timeout_ns:1_000 () in
      Alcotest.(check (list int)) "poll timeout" [] r0;
      (* ...then only A becomes readable. *)
      let r1 = L.select th ~read:[ fa; fb ] () in
      Alcotest.(check (list int)) "select finds A" [ fa ] r1)

let test_crash_gives_peer_eof () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  let peer_result = ref (-1) in
  let peer_last = ref Bytes.empty in
  ignore
    (spawn w "crash-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:113;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         (* First the data sent before the crash must arrive... *)
         peer_last := recv_exact th fd 5;
         (* ...then EOF (SIGHUP-equivalent). *)
         let b = Bytes.create 1 in
         peer_result := L.recv th fd b ~off:0 ~len:1));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:113;
      send_all th fd (Bytes.of_string "final");
      Sds_sim.Proc.sleep_ns 1_000;
      L.simulate_crash ctx;
      Sds_sim.Proc.sleep_ns 1_000_000);
  check_bytes "pre-crash data preserved" (Bytes.of_string "final") !peer_last;
  Alcotest.(check int) "peer sees EOF after crash" 0 !peer_result

(* ---- one error surface ---- *)

(* An application holds SocksDirect fds and TCP-fallback kernel fds and
   handles a dead send with one [Unix.Unix_error (EPIPE, _, _)] handler,
   whichever kind the fd is: after its own shutdown, after a SocksDirect
   peer's abort, and after a legacy peer's close. *)
let test_one_epipe_handler () =
  let w = make_world () in
  let h1 = add_host w in
  let legacy = add_host w in
  legacy.Sds_transport.Host.sds_capable <- false;
  let ready = ref 0 and go = ref false and gone = ref 0 in
  ignore
    (spawn w "sd-peer" (fun () ->
         let ctx = L.init h1 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:120;
         L.listen th lfd;
         incr ready;
         ignore (L.accept th lfd);
         ignore (L.accept th lfd);
         wait_for go;
         L.simulate_abort ctx;
         incr gone));
  ignore
    (spawn w "legacy-peer" (fun () ->
         let kproc = Sds_kernel.Kernel.spawn_process (Sds_kernel.Kernel.for_host legacy) () in
         let lfd = Sds_kernel.Kernel.socket kproc in
         Sds_kernel.Kernel.listen kproc lfd ~port:121 ();
         incr ready;
         ignore (Sds_kernel.Kernel.accept kproc lfd);
         let fd = Sds_kernel.Kernel.accept kproc lfd in
         wait_for go;
         Sds_kernel.Kernel.close kproc fd;
         incr gone));
  run w (fun () ->
      while !ready < 2 do
        Sds_sim.Proc.sleep_ns 1_000
      done;
      let th = L.create_thread (L.init h1) ~core:0 () in
      let conn ~dst ~port =
        let fd = L.socket th in
        L.connect th fd ~dst ~port;
        fd
      in
      let sd_shut = conn ~dst:h1 ~port:120 and sd_aborted = conn ~dst:h1 ~port:120 in
      let k_shut = conn ~dst:legacy ~port:121 and k_closed = conn ~dst:legacy ~port:121 in
      (match (L.lookup th sd_shut, L.lookup th k_shut) with
      | L.U _, L.K _ -> ()
      | _ -> Alcotest.fail "expected one SocksDirect and one kernel fallback fd");
      L.shutdown th sd_shut `Send;
      L.shutdown th k_shut `Send;
      go := true;
      while !gone < 2 do
        Sds_sim.Proc.sleep_ns 1_000
      done;
      let epipe fd =
        match L.send th fd (Bytes.of_string "x") ~off:0 ~len:1 with
        | _ -> false
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> true
      in
      Alcotest.(check bool) "SocksDirect fd after its shutdown" true (epipe sd_shut);
      Alcotest.(check bool) "SocksDirect fd after the peer's abort" true (epipe sd_aborted);
      Alcotest.(check bool) "kernel fd after its shutdown" true (epipe k_shut);
      Alcotest.(check bool) "kernel fd after the peer's close" true (epipe k_closed))

let suite =
  [
    Alcotest.test_case "intra-host ping-pong over SHM" `Quick test_intra_pingpong;
    Alcotest.test_case "inter-host ping-pong over RDMA" `Quick test_inter_pingpong;
    Alcotest.test_case "byte-stream reassembly" `Quick test_stream_reassembly;
    Alcotest.test_case "large message chunking" `Quick test_large_message_chunking;
    Alcotest.test_case "zero copy intra-host" `Quick (zerocopy_roundtrip ~intra:true);
    Alcotest.test_case "zero copy inter-host" `Quick (zerocopy_roundtrip ~intra:false);
    Alcotest.test_case "zero copy returns pages" `Quick (zerocopy_page_return ~intra:true);
    Alcotest.test_case "fork: socket handoff to child" `Quick test_fork_socket_handoff;
    Alcotest.test_case "fork: FD table copy-on-write" `Quick test_fork_fd_table_cow;
    Alcotest.test_case "fork: inter-host QP re-init" `Quick test_fork_inter_host_reinit;
    Alcotest.test_case "exec preserves sockets" `Quick test_exec_preserves_sockets;
    Alcotest.test_case "token fast path vs takeover" `Quick test_token_fast_path_and_takeover;
    Alcotest.test_case "token mutual exclusion" `Quick test_token_mutual_exclusion;
    Alcotest.test_case "connect refused" `Quick test_connect_refused;
    Alcotest.test_case "monitor access control" `Quick test_access_control;
    Alcotest.test_case "bind port conflict" `Quick test_bind_port_conflict;
    Alcotest.test_case "figure 6 connection states" `Quick test_state_machine_fig6;
    Alcotest.test_case "shutdown delivers EOF after data" `Quick test_shutdown_eof;
    Alcotest.test_case "multi-listener dispatch + stealing" `Quick
      test_round_robin_dispatch_and_stealing;
    Alcotest.test_case "fallback to kernel TCP peer" `Quick test_fallback_to_kernel_tcp;
    Alcotest.test_case "epoll over user sockets" `Quick test_epoll_user_sockets;
    Alcotest.test_case "epoll mixes kernel and user fds" `Quick test_epoll_mixed_kernel_and_user;
    Alcotest.test_case "libsd lowest-fd semantics" `Quick test_libsd_fd_lowest;
    Alcotest.test_case "interrupt mode sleep + wakeup" `Quick test_interrupt_mode_sleep_and_wake;
    Alcotest.test_case "live migration, no data loss" `Quick test_live_migration_no_data_loss;
    Alcotest.test_case "nonblocking recv (EAGAIN)" `Quick test_nonblocking_recv;
    Alcotest.test_case "dup shares the connection" `Quick test_dup_shares_socket;
    Alcotest.test_case "poll and select" `Quick test_poll_and_select;
    Alcotest.test_case "crash gives peer EOF after drain" `Quick test_crash_gives_peer_eof;
    Alcotest.test_case "zero copy returns pages over RDMA" `Quick
      (zerocopy_page_return ~intra:false);
    Alcotest.test_case "short read holds no page" `Quick test_short_read_holds_no_page;
    Alcotest.test_case "one EPIPE handler for every fd kind" `Quick test_one_epipe_handler;
  ]
