(* Tests for the simulated kernel: FD table semantics, byte streams, the TCP
   state machine, pipes, Unix socketpairs, epoll, fork. *)

open Sds_sim
module K = Sds_kernel.Kernel
module Fd = Sds_kernel.Fd_table
module Ks = Sds_kernel.Kstream
open Helpers

(* ---- fd table ---- *)

let test_fd_lowest_first () =
  let t = Fd.create () in
  Alcotest.(check int) "first fd is 3" 3 (Fd.alloc t "a");
  Alcotest.(check int) "then 4" 4 (Fd.alloc t "b");
  Alcotest.(check int) "then 5" 5 (Fd.alloc t "c");
  ignore (Fd.close t 4);
  ignore (Fd.close t 3);
  (* Linux semantics: the LOWEST free descriptor is reused first. *)
  Alcotest.(check int) "reuse 3 first" 3 (Fd.alloc t "d");
  Alcotest.(check int) "then 4" 4 (Fd.alloc t "e")

let test_fd_find_close () =
  let t = Fd.create () in
  let fd = Fd.alloc t 42 in
  Alcotest.(check (option int)) "find" (Some 42) (Fd.find t fd);
  Alcotest.(check bool) "close" true (Fd.close t fd);
  Alcotest.(check bool) "double close" false (Fd.close t fd);
  Alcotest.(check (option int)) "gone" None (Fd.find t fd)

let test_fd_bind_specific () =
  let t = Fd.create () in
  Fd.bind t 10 "ten";
  Alcotest.(check (option string)) "bound" (Some "ten") (Fd.find t 10);
  (* Holes below a bound descriptor are allocated before fresh ones. *)
  let fd = Fd.alloc t "low" in
  Alcotest.(check bool) "fills hole below 10" true (fd < 10)

let test_fd_copy_independent () =
  let t = Fd.create () in
  let a = Fd.alloc t "x" in
  let c = Fd.copy t in
  ignore (Fd.close c a);
  Alcotest.(check (option string)) "parent unaffected" (Some "x") (Fd.find t a);
  Alcotest.(check (option string)) "child closed" None (Fd.find c a)

(* Property: allocation always returns the smallest non-live descriptor —
   checked against a naive model. *)
let prop_fd_lowest =
  QCheck.Test.make ~name:"fd table always allocates lowest free fd" ~count:200
    QCheck.(list (option (int_range 0 30)))
    (fun ops ->
      let t = Fd.create () in
      let live = Hashtbl.create 16 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | None ->
            let fd = Fd.alloc t () in
            (* model: smallest fd >= 3 not live *)
            let rec smallest i = if Hashtbl.mem live i then smallest (i + 1) else i in
            if fd <> smallest 3 then ok := false;
            Hashtbl.replace live fd ()
          | Some i ->
            let fd = 3 + i in
            if Hashtbl.mem live fd then begin
              ignore (Fd.close t fd);
              Hashtbl.remove live fd
            end)
        ops;
      !ok)

(* ---- kstream ---- *)

let test_kstream_roundtrip () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  run w (fun () ->
      let msg = Bytes.of_string "through-the-pipe" in
      ignore (Ks.write s msg ~off:0 ~len:16);
      let dst = Bytes.create 16 in
      let n = Ks.read s dst ~off:0 ~len:16 in
      Alcotest.(check int) "full read" 16 n;
      Alcotest.(check string) "content" "through-the-pipe" (Bytes.to_string dst))

let test_kstream_partial_reads () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  run w (fun () ->
      ignore (Ks.write s (Bytes.of_string "abcdefgh") ~off:0 ~len:8);
      let d = Bytes.create 3 in
      ignore (Ks.read s d ~off:0 ~len:3);
      Alcotest.(check string) "first part" "abc" (Bytes.to_string d);
      ignore (Ks.read s d ~off:0 ~len:3);
      Alcotest.(check string) "second part" "def" (Bytes.to_string d);
      let n = Ks.read s d ~off:0 ~len:3 in
      Alcotest.(check int) "remainder" 2 n;
      Alcotest.(check string) "tail" "gh" (Bytes.sub_string d 0 2))

let test_kstream_interleaved_order () =
  (* Regression: partially consumed chunks must not reorder bytes. *)
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  run w (fun () ->
      ignore (Ks.write s (Bytes.of_string "11111") ~off:0 ~len:5);
      ignore (Ks.write s (Bytes.of_string "22222") ~off:0 ~len:5);
      let d = Bytes.create 3 in
      ignore (Ks.read s d ~off:0 ~len:3);
      Alcotest.(check string) "a" "111" (Bytes.to_string d);
      let big = Bytes.create 7 in
      let n = Ks.read s big ~off:0 ~len:7 in
      Alcotest.(check int) "rest" 7 n;
      Alcotest.(check string) "ordered across chunks" "1122222" (Bytes.to_string big))

let test_kstream_eof_after_drain () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  run w (fun () ->
      ignore (Ks.write s (Bytes.of_string "last") ~off:0 ~len:4);
      Ks.close_write s;
      let d = Bytes.create 8 in
      (* Data written before close must be readable; EOF only after. *)
      let n = Ks.read s d ~off:0 ~len:8 in
      Alcotest.(check int) "drains data first" 4 n;
      Alcotest.(check int) "then EOF" 0 (Ks.read s d ~off:0 ~len:8))

let test_kstream_broken_pipe () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  run w (fun () ->
      Ks.close_read s;
      check_errno "EPIPE" Unix.EPIPE (fun () -> Ks.write s (Bytes.of_string "x") ~off:0 ~len:1))

let test_kstream_blocking_write_backpressure () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  let write_done = ref false in
  ignore
    (spawn w "writer" (fun () ->
         (* 3x capacity: must block until the reader drains. *)
         let big = Bytes.make (192 * 1024) 'w' in
         ignore (Ks.write s big ~off:0 ~len:(Bytes.length big));
         write_done := true));
  run w (fun () ->
      Proc.sleep_ns 100_000;
      Alcotest.(check bool) "writer blocked on full buffer" false !write_done;
      let d = Bytes.create 65536 in
      let total = ref 0 in
      while !total < 192 * 1024 do
        total := !total + Ks.read s d ~off:0 ~len:65536
      done;
      Alcotest.(check int) "all bytes through" (192 * 1024) !total);
  Alcotest.(check bool) "writer completed" true !write_done

let test_kstream_wakeup_accounting () =
  let w = make_world () in
  ignore (add_host w);
  let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
  ignore
    (spawn w "late-writer" (fun () ->
         Proc.sleep_ns 50_000;
         ignore (Ks.write s (Bytes.of_string "z") ~off:0 ~len:1)));
  run w (fun () ->
      let d = Bytes.create 1 in
      let t0 = Engine.now w.engine in
      ignore (Ks.read s d ~off:0 ~len:1);
      let waited = Engine.now w.engine - t0 in
      Alcotest.(check bool) "reader paid the wakeup" true
        (waited >= 50_000 + w.cost.Cost.process_wakeup));
  Alcotest.(check int) "one wakeup recorded" 1 (Ks.wakeups s)

(* Property: any interleaving of writes and partial reads preserves the
   byte stream exactly (checked against a growing reference buffer). *)
let prop_kstream_stream_semantics =
  QCheck.Test.make ~name:"kstream preserves the byte stream under any segmentation" ~count:60
    QCheck.(list (pair (string_of_size (Gen.int_range 1 200)) (int_range 1 256)))
    (fun ops ->
      let w = make_world () in
      ignore (add_host w);
      let s = Ks.create w.engine ~profile:(Ks.pipe_profile w.cost) in
      let expected = Buffer.create 256 in
      let received = Buffer.create 256 in
      let ok = ref true in
      run w (fun () ->
          (* Write everything (with reads interleaved so the buffer never
             overflows its capacity). *)
          List.iter
            (fun (payload, read_len) ->
              Buffer.add_string expected payload;
              ignore (Ks.write s (Bytes.of_string payload) ~off:0 ~len:(String.length payload));
              Sds_sim.Proc.sleep_ns 1_000;
              let d = Bytes.create read_len in
              match Ks.try_read s d ~off:0 ~len:read_len with
              | `Read n -> Buffer.add_subbytes received d 0 n
              | `Eof -> ok := false
              | `Would_block -> ())
            ops;
          (* Drain the remainder. *)
          Ks.close_write s;
          let d = Bytes.create 4096 in
          let rec drain () =
            let n = Ks.read s d ~off:0 ~len:4096 in
            if n > 0 then begin
              Buffer.add_subbytes received d 0 n;
              drain ()
            end
          in
          drain ());
      !ok && Buffer.contents received = Buffer.contents expected)

(* ---- TCP ---- *)

let test_tcp_connect_accept_echo () =
  let w = make_world () in
  let h = add_host w in
  let kernel = K.for_host h in
  let server = K.spawn_process kernel () in
  let client = K.spawn_process kernel () in
  let ready = ref false in
  ignore
    (spawn w "k-server" (fun () ->
         let lfd = K.socket server in
         K.listen server lfd ~port:80 ();
         ready := true;
         let fd = K.accept server lfd in
         Alcotest.(check string) "established" "ESTABLISHED" (K.string_of_state (K.tcp_state server fd));
         let b = Bytes.create 16 in
         let n = K.recv server fd b ~off:0 ~len:16 in
         ignore (K.send server fd b ~off:0 ~len:n)));
  run w (fun () ->
      wait_for ready;
      let fd = K.socket client in
      K.connect client fd ~dst:h ~port:80;
      Alcotest.(check string) "client established" "ESTABLISHED"
        (K.string_of_state (K.tcp_state client fd));
      ignore (K.send client fd (Bytes.of_string "kernel-echo") ~off:0 ~len:11);
      let b = Bytes.create 11 in
      let got = ref 0 in
      while !got < 11 do
        got := !got + K.recv client fd b ~off:!got ~len:(11 - !got)
      done;
      Alcotest.(check string) "echoed" "kernel-echo" (Bytes.to_string b))

let test_tcp_refused_no_listener () =
  let w = make_world () in
  let h = add_host w in
  let client = K.spawn_process (K.for_host h) () in
  run w (fun () ->
      let fd = K.socket client in
      check_errno "refused" Unix.ECONNREFUSED (fun () -> K.connect client fd ~dst:h ~port:9999))

let test_tcp_backlog_full () =
  let w = make_world () in
  let h = add_host w in
  let kernel = K.for_host h in
  let server = K.spawn_process kernel () in
  let client = K.spawn_process kernel () in
  run w (fun () ->
      let lfd = K.socket server in
      K.listen server lfd ~port:81 ~backlog:2 ();
      let c1 = K.socket client in
      K.connect client c1 ~dst:h ~port:81;
      let c2 = K.socket client in
      K.connect client c2 ~dst:h ~port:81;
      let c3 = K.socket client in
      check_errno "backlog overflow refused" Unix.ECONNREFUSED (fun () ->
          K.connect client c3 ~dst:h ~port:81))

let test_tcp_states_on_shutdown () =
  let w = make_world () in
  let h = add_host w in
  let kernel = K.for_host h in
  let server = K.spawn_process kernel () in
  let client = K.spawn_process kernel () in
  let ready = ref false in
  let server_fd = ref (-1) in
  ignore
    (spawn w "fsm-server" (fun () ->
         let lfd = K.socket server in
         K.listen server lfd ~port:82 ();
         ready := true;
         server_fd := K.accept server lfd));
  run w (fun () ->
      wait_for ready;
      let fd = K.socket client in
      K.connect client fd ~dst:h ~port:82;
      Proc.sleep_ns 1_000;
      (* Client initiates close: FIN_WAIT on client, CLOSE_WAIT on server. *)
      (match K.lookup client fd with
      | K.Tcp ep ->
        K.shutdown_send ep;
        Alcotest.(check string) "client FIN_WAIT" "FIN_WAIT_2"
          (K.string_of_state (K.tcp_state client fd))
      | _ -> Alcotest.fail "not tcp");
      Alcotest.(check string) "server CLOSE_WAIT" "CLOSE_WAIT"
        (K.string_of_state (K.tcp_state server !server_fd));
      (* Server closes its side: both ends reach a terminal state. *)
      (match K.lookup server !server_fd with
      | K.Tcp ep -> K.shutdown_send ep
      | _ -> Alcotest.fail "not tcp");
      Alcotest.(check string) "client TIME_WAIT" "TIME_WAIT"
        (K.string_of_state (K.tcp_state client fd));
      Alcotest.(check string) "server CLOSED" "CLOSED"
        (K.string_of_state (K.tcp_state server !server_fd)))

let test_tcp_port_in_use () =
  let w = make_world () in
  let h = add_host w in
  let p = K.spawn_process (K.for_host h) () in
  run w (fun () ->
      let a = K.socket p in
      K.listen p a ~port:83 ();
      let b = K.socket p in
      check_errno "EADDRINUSE" Unix.EADDRINUSE (fun () -> K.listen p b ~port:83 ()))

(* ---- pipes / fork / epoll ---- *)

let test_pipe_through_fork () =
  let w = make_world () in
  let h = add_host w in
  let parent = K.spawn_process (K.for_host h) () in
  run w (fun () ->
      let r, wr = K.pipe parent in
      let child = K.fork parent in
      (* The child inherits both descriptors and can use them. *)
      ignore (K.send child wr (Bytes.of_string "from-child") ~off:0 ~len:10);
      let b = Bytes.create 10 in
      let n = K.recv parent r b ~off:0 ~len:10 in
      Alcotest.(check int) "len" 10 n;
      Alcotest.(check string) "content" "from-child" (Bytes.to_string b);
      (* Closing in the child must not close the parent's descriptor. *)
      K.close child wr;
      ignore (K.send parent wr (Bytes.of_string "x") ~off:0 ~len:1))

let test_unix_socketpair () =
  let w = make_world () in
  let h = add_host w in
  let p = K.spawn_process (K.for_host h) () in
  run w (fun () ->
      let a, b = K.unix_socketpair p in
      ignore (K.send p a (Bytes.of_string "ping") ~off:0 ~len:4);
      let d = Bytes.create 4 in
      ignore (K.recv p b d ~off:0 ~len:4);
      Alcotest.(check string) "a->b" "ping" (Bytes.to_string d);
      ignore (K.send p b (Bytes.of_string "pong") ~off:0 ~len:4);
      ignore (K.recv p a d ~off:0 ~len:4);
      Alcotest.(check string) "b->a" "pong" (Bytes.to_string d))

let test_epoll_readiness () =
  let w = make_world () in
  let h = add_host w in
  let p = K.spawn_process (K.for_host h) () in
  run w (fun () ->
      let r, wr = K.pipe p in
      let ep = K.epoll_create p in
      K.epoll_add p ep ~watch_pid:p.K.pid ~fd:r;
      let ready = K.epoll_wait p ep ~timeout_ns:1_000 () in
      Alcotest.(check (list int)) "nothing ready" [] ready;
      ignore (K.send p wr (Bytes.of_string "!") ~off:0 ~len:1);
      Proc.sleep_ns 1_000;
      let ready = K.epoll_wait p ep () in
      Alcotest.(check (list int)) "pipe readable" [ r ] ready;
      K.epoll_del p ep ~fd:r;
      let ready = K.epoll_wait p ep ~timeout_ns:1_000 () in
      Alcotest.(check (list int)) "deregistered" [] ready)

let test_epoll_wakes_blocked_waiter () =
  let w = make_world () in
  let h = add_host w in
  let p = K.spawn_process (K.for_host h) () in
  let woke = ref false in
  run w (fun () ->
      let r, wr = K.pipe p in
      let ep = K.epoll_create p in
      K.epoll_add p ep ~watch_pid:p.K.pid ~fd:r;
      ignore
        (spawn w "writer" (fun () ->
             Proc.sleep_ns 20_000;
             ignore (K.send p wr (Bytes.of_string "@") ~off:0 ~len:1)));
      let ready = K.epoll_wait p ep () in
      Alcotest.(check (list int)) "woken with fd" [ r ] ready;
      woke := true);
  Alcotest.(check bool) "returned" true !woke

let suite =
  [
    Alcotest.test_case "fd lowest-first allocation" `Quick test_fd_lowest_first;
    Alcotest.test_case "fd find/close" `Quick test_fd_find_close;
    Alcotest.test_case "fd bind specific" `Quick test_fd_bind_specific;
    Alcotest.test_case "fd copy independence" `Quick test_fd_copy_independent;
    QCheck_alcotest.to_alcotest prop_fd_lowest;
    Alcotest.test_case "kstream roundtrip" `Quick test_kstream_roundtrip;
    Alcotest.test_case "kstream partial reads" `Quick test_kstream_partial_reads;
    Alcotest.test_case "kstream chunk order" `Quick test_kstream_interleaved_order;
    Alcotest.test_case "kstream EOF after drain" `Quick test_kstream_eof_after_drain;
    Alcotest.test_case "kstream broken pipe" `Quick test_kstream_broken_pipe;
    Alcotest.test_case "kstream write backpressure" `Quick test_kstream_blocking_write_backpressure;
    Alcotest.test_case "kstream wakeup accounting" `Quick test_kstream_wakeup_accounting;
    QCheck_alcotest.to_alcotest prop_kstream_stream_semantics;
    Alcotest.test_case "tcp connect/accept/echo" `Quick test_tcp_connect_accept_echo;
    Alcotest.test_case "tcp connection refused" `Quick test_tcp_refused_no_listener;
    Alcotest.test_case "tcp backlog overflow" `Quick test_tcp_backlog_full;
    Alcotest.test_case "tcp shutdown state machine" `Quick test_tcp_states_on_shutdown;
    Alcotest.test_case "tcp port in use" `Quick test_tcp_port_in_use;
    Alcotest.test_case "pipe shared across fork" `Quick test_pipe_through_fork;
    Alcotest.test_case "unix socketpair" `Quick test_unix_socketpair;
    Alcotest.test_case "epoll readiness" `Quick test_epoll_readiness;
    Alcotest.test_case "epoll wakes blocked waiter" `Quick test_epoll_wakes_blocked_waiter;
  ]
