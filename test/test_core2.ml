(* Second core suite: duplex traffic, odd sizes through the zero-copy
   boundary, ephemeral ports, error paths, and a property test pushing
   random traffic shapes through the full SocksDirect stack. *)

module L = Socksdirect.Libsd
module Sock = Socksdirect.Sock
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

let test_full_duplex () =
  (* Both directions stream simultaneously; contents must not cross. *)
  let w = make_world () in
  let h = add_host w in
  let rounds = 50 in
  let ready = ref false in
  let server_ok = ref false in
  ignore
    (spawn w "fd-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:120;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         (* Writer proc for the server->client direction. *)
         ignore
           (spawn w "fd-server-writer" (fun () ->
                let th2 = L.create_thread ctx ~core:2 () in
                for i = 1 to rounds do
                  send_all th2 fd (Bytes.of_string (Printf.sprintf "S%07d" i))
                done));
         let ok = ref true in
         for i = 1 to rounds do
           let m = recv_exact th fd 8 in
           if Bytes.to_string m <> Printf.sprintf "C%07d" i then ok := false
         done;
         server_ok := !ok));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:120;
      (* Client writer runs concurrently with the client reader below. *)
      ignore
        (spawn w "fd-client-writer" (fun () ->
             let th2 = L.create_thread ctx ~core:3 () in
             for i = 1 to rounds do
               send_all th2 fd (Bytes.of_string (Printf.sprintf "C%07d" i))
             done));
      for i = 1 to rounds do
        let m = recv_exact th fd 8 in
        check_bytes "server stream ordered" (Bytes.of_string (Printf.sprintf "S%07d" i)) m
      done;
      Sds_sim.Proc.sleep_ns 1_000_000);
  Alcotest.(check bool) "client stream ordered at server" true !server_ok

let odd_size_roundtrip ~intra size () =
  (* Sizes straddling the zero-copy threshold and page boundaries. *)
  let w = make_world () in
  let h1 = add_host w in
  let h2 = if intra then h1 else add_host w in
  let payload = Bytes.init size (fun i -> Char.chr ((i * 131) land 0xff)) in
  let ready = ref false in
  ignore
    (spawn w "odd-server" (fun () ->
         let ctx = L.init h2 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:121;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd size in
         send_all th fd m));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:121;
      send_all th fd payload;
      check_bytes "odd-size payload intact" payload (recv_exact th fd size))

let test_ephemeral_bind () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let a = L.socket th in
      L.bind th a ~port:0;
      let b = L.socket th in
      L.bind th b ~port:0;
      match (L.lookup th a, L.lookup th b) with
      | L.U sa, L.U sb ->
        Alcotest.(check bool) "ephemeral ports assigned" true
          (sa.Sock.local_port >= 32768 && sb.Sock.local_port >= 32768);
        Alcotest.(check bool) "distinct" true (sa.Sock.local_port <> sb.Sock.local_port)
      | _ -> Alcotest.fail "expected sockets")

let test_send_before_connect () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      check_errno "ENOTCONN" Unix.ENOTCONN (fun () -> L.send th fd (Bytes.of_string "x") ~off:0 ~len:1))

let test_bad_fd () =
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      check_errno "EBADF" Unix.EBADF (fun () -> L.recv th 99 (Bytes.create 1) ~off:0 ~len:1))

let test_zero_length_send_recv () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "z-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:122;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd 2 in
         send_all th fd m));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:122;
      Alcotest.(check int) "send of 0 bytes" 0 (L.send th fd Bytes.empty ~off:0 ~len:0);
      send_all th fd (Bytes.of_string "ok");
      check_bytes "still works" (Bytes.of_string "ok") (recv_exact th fd 2))

let test_many_connections_one_thread () =
  (* One client thread multiplexing 20 concurrent connections. *)
  let w = make_world () in
  let h = add_host w in
  let n = 20 in
  let ready = ref false in
  ignore
    (spawn w "many-server" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:123;
         L.listen th lfd;
         ready := true;
         for _ = 1 to n do
           let fd = L.accept th lfd in
           ignore
             (spawn w "many-worker" (fun () ->
                  let th2 = L.create_thread ctx ~core:2 () in
                  let m = recv_exact th2 fd 4 in
                  send_all th2 fd m))
         done));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fds = Array.init n (fun _ -> L.socket th) in
      Array.iter (fun fd -> L.connect th fd ~dst:h ~port:123) fds;
      Array.iteri
        (fun i fd -> send_all th fd (Bytes.of_string (Printf.sprintf "%04d" i)))
        fds;
      Array.iteri
        (fun i fd ->
          check_bytes "per-connection isolation" (Bytes.of_string (Printf.sprintf "%04d" i))
            (recv_exact th fd 4))
        fds)

(* Property: any sequence of message sizes streams through SocksDirect
   byte-exactly (inline, chunked, and zero-copy paths mixed). *)
let prop_stream_integrity =
  QCheck.Test.make ~name:"random traffic streams byte-exactly through SocksDirect" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 8) (int_range 1 40_000))
    (fun sizes ->
      let total = List.fold_left ( + ) 0 sizes in
      let w = make_world () in
      let h = add_host w in
      let sent_digest = ref "" and received_digest = ref "" in
      let ready = ref false in
      ignore
        (spawn w "prop-server" (fun () ->
             let ctx = L.init h in
             let th = L.create_thread ctx ~core:1 () in
             let lfd = L.socket th in
             L.bind th lfd ~port:124;
             L.listen th lfd;
             ready := true;
             let fd = L.accept th lfd in
             let buf = Bytes.create total in
             let got = ref 0 in
             while !got < total do
               let n = L.recv th fd buf ~off:!got ~len:(total - !got) in
               if n = 0 then failwith "eof";
               got := !got + n
             done;
             received_digest := Digest.to_hex (Digest.bytes buf)));
      run w (fun () ->
          wait_for ready;
          let ctx = L.init h in
          let th = L.create_thread ctx ~core:0 () in
          let fd = L.socket th in
          L.connect th fd ~dst:h ~port:124;
          let all = Buffer.create total in
          let rng = Sds_sim.Rng.create ~seed:(total + List.length sizes) in
          List.iter
            (fun size ->
              let payload = Sds_sim.Rng.bytes rng size in
              Buffer.add_bytes all payload;
              send_all th fd payload)
            sizes;
          sent_digest := Digest.to_hex (Digest.string (Buffer.contents all));
          Sds_sim.Proc.sleep_ns 10_000_000);
      !sent_digest = !received_digest)

(* ---- RDMA ring flow control (§4.2) ---- *)

let test_rdma_ring_backpressure () =
  (* A sender whose inter-host peer stops consuming must block on ring
     credits after ~one ring (64 KiB) of data — not buffer unboundedly. *)
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  let consumed = ref false in
  ignore
    (spawn w "bp-server" (fun () ->
         let ctx = L.init h2 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:140;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         (* Sleep long before consuming anything. *)
         Sds_sim.Proc.sleep_ns 5_000_000;
         consumed := true;
         let buf = Bytes.create 65536 in
         let total = ref 0 in
         while !total < 200 * 1024 do
           let n = L.recv th fd buf ~off:0 ~len:65536 in
           total := !total + n
         done));
  let sent_before_block = ref 0 in
  let finished = ref false in
  ignore
    (spawn w "bp-client" (fun () ->
         wait_for ready;
         let ctx = L.init h1 in
         let th = L.create_thread ctx ~core:0 () in
         let fd = L.socket th in
         L.connect th fd ~dst:h2 ~port:140;
         let chunk = Bytes.make 4096 'b' in
         for _ = 1 to 50 do
           ignore (L.send th fd chunk ~off:0 ~len:4096);
           if not !consumed then incr sent_before_block
         done;
         finished := true));
  run w (fun () -> Sds_sim.Proc.sleep_ns 50_000_000);
  Alcotest.(check bool) "sender eventually completed" true !finished;
  (* 50 x 4 KiB = 200 KiB >> 64 KiB ring: the sender cannot have pushed it
     all before the receiver started consuming. *)
  Alcotest.(check bool) "blocked near ring capacity" true (!sent_before_block < 20)

let test_interrupt_wakeup_inter_host () =
  (* The §4.4 interrupt-mode sleep/wake works across hosts too: the wakeup
     rides the RDMA channel's interrupt hook through the receiver's
     monitor. *)
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  let waited = ref 0 in
  let got = ref false in
  ignore
    (spawn w "iw-server" (fun () ->
         let ctx = L.init h2 in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:141;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let b = Bytes.create 4 in
         let t0 = Sds_sim.Engine.now w.engine in
         (* Nothing arrives for far longer than the polling budget: the
            server must sleep and be woken by the late sender. *)
         let n = L.recv th fd b ~off:0 ~len:4 in
         waited := Sds_sim.Engine.now w.engine - t0;
         got := n = 4));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h1 in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:141;
      Sds_sim.Proc.sleep_ns 5_000_000;
      send_all th fd (Bytes.of_string "wake");
      Sds_sim.Proc.sleep_ns 1_000_000);
  Alcotest.(check bool) "woken and received" true !got;
  Alcotest.(check bool) "really slept first" true (!waited >= 5_000_000)

(* ---- isolation (§3) ---- *)

let test_fd_namespace_isolation () =
  (* Process B cannot address process A's socket: FD remapping tables are
     per process, so A's descriptor number means nothing in B. *)
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let ctx_a = L.init h in
      let th_a = L.create_thread ctx_a ~core:0 () in
      let fd_a = L.socket th_a in
      let ctx_b = L.init h in
      let th_b = L.create_thread ctx_b ~core:1 () in
      check_errno "foreign fd is EBADF" Unix.EBADF (fun () ->
          L.recv th_b fd_a (Bytes.create 1) ~off:0 ~len:1))

let test_fork_secret_rejects_impostor () =
  (* A process that did not receive the pairing secret cannot register as
     someone's child with the monitor (§4.1.2). *)
  let w = make_world () in
  let h = add_host w in
  run w (fun () ->
      let _ctx = L.init h in
      let monitor = Socksdirect.Monitor.for_host h in
      let paired =
        Socksdirect.Monitor.rpc monitor (fun reply ->
            Socksdirect.Monitor.Fork_pair { fp_secret = 123456789; fp_reply = reply })
      in
      Alcotest.(check bool) "impostor rejected" false paired)

(* ---- §4.6 + Libra: selective copying over per-process page pools ---- *)

module Obs = Sds_obs.Obs
module Copy_policy = Sds_proto.Copy_policy

(* Echo roundtrip of [size] bytes under [config], intra-host (SHM) or
   inter-host (RDMA); [prepare] runs on each process right after init.
   Returns the deltas of (zerocopy sends, pool fallbacks) across the
   exchange. *)
let pool_roundtrip ?(prepare = ignore) ~intra ~config ~size () =
  let w = make_world () in
  let h = add_host w in
  let h2 = if intra then h else add_host w in
  let payload = Bytes.init size (fun i -> Char.chr ((i * 197) land 0xff)) in
  let ready = ref false in
  let zc0 = Obs.Metrics.counter_value "libsd.zerocopy_sends" in
  let fb0 = Obs.Metrics.counter_value "libsd.pool_fallbacks" in
  ignore
    (spawn w "pool-server" (fun () ->
         let ctx = L.init ~config h2 in
         prepare ctx;
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:131;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let m = recv_exact th fd size in
         send_all th fd m));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init ~config h in
      prepare ctx;
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h2 ~port:131;
      send_all th fd payload;
      check_bytes "payload intact through the pool path" payload (recv_exact th fd size));
  ( Obs.Metrics.counter_value "libsd.zerocopy_sends" - zc0,
    Obs.Metrics.counter_value "libsd.pool_fallbacks" - fb0 )

let test_copy_policy_never_copy ~intra () =
  let config = { L.default_config with copy_policy = Copy_policy.Never_copy } in
  let zc, _ = pool_roundtrip ~intra ~config ~size:(64 * 1024) () in
  Alcotest.(check bool) "descriptor handoff used on both legs" true (zc >= 2)

let test_copy_policy_always_copy ~intra () =
  let config = { L.default_config with copy_policy = Copy_policy.Always_copy } in
  let zc, _ = pool_roundtrip ~intra ~config ~size:(64 * 1024) () in
  Alcotest.(check int) "no zero-copy sends under Always_copy" 0 zc

let test_copy_policy_adaptive_large ~intra () =
  (* 64 KiB is over every adaptive threshold bound: must go zero-copy. *)
  let config = { L.default_config with copy_policy = Copy_policy.Adaptive } in
  let zc, _ = pool_roundtrip ~intra ~config ~size:(64 * 1024) () in
  Alcotest.(check bool) "adaptive picks the descriptor path at 64 KiB" true (zc >= 2)

let test_copy_policy_4k_stays_copy () =
  (* A 4 KiB stream sits below the 16 KiB crossover: the re-derivation must
     see its byte volume at 4 KiB, not round it up toward the cut. *)
  let p = Copy_policy.create ~mode:Copy_policy.Adaptive () in
  for i = 1 to 512 do
    if Copy_policy.decide p ~pool:None ~len:4096 then
      Alcotest.failf "decision %d remapped a 4 KiB send" i
  done;
  Alcotest.(check int) "threshold stays at the base" Copy_policy.base_threshold
    (Copy_policy.threshold p)

let test_copy_policy_small_skips_pressure () =
  (* A payload under one page always copies, so a full pool must not move
     the threshold on its account. *)
  let module Pp = Sds_vm.Pagepool in
  let pool = Pp.create ~pages:16 () in
  let h = Pp.handle pool in
  let held = List.init 13 (fun _ -> Pp.alloc h) in
  Alcotest.(check bool) "pool above high water" true (Pp.occupancy pool > Copy_policy.high_water);
  let p = Copy_policy.create ~mode:Copy_policy.Adaptive () in
  for i = 1 to 512 do
    if Copy_policy.decide p ~pool:(Some pool) ~len:64 then
      Alcotest.failf "decision %d remapped a 64 B send" i
  done;
  Alcotest.(check int) "threshold stays at the base" Copy_policy.base_threshold
    (Copy_policy.threshold p);
  List.iter (Pp.release h) held

let test_copy_policy_relaxes_after_pressure () =
  (* Pool pressure doubles the threshold above the 16 KiB base; once a
     whole adapt period passes without pressure it must come back down,
     or a 16 KiB stream would copy for the rest of the connection. *)
  let module Pp = Sds_vm.Pagepool in
  let pool = Pp.create ~pages:16 () in
  let h = Pp.handle pool in
  let held = List.init 13 (fun _ -> Pp.alloc h) in
  let p = Copy_policy.create ~mode:Copy_policy.Adaptive () in
  ignore (Copy_policy.decide p ~pool:(Some pool) ~len:16384);
  ignore (Copy_policy.decide p ~pool:(Some pool) ~len:16384);
  Alcotest.(check bool) "pressure raised the threshold" true
    (Copy_policy.threshold p > Copy_policy.base_threshold);
  List.iter (Pp.release h) held;
  for _ = 1 to 4 * 256 do
    ignore (Copy_policy.decide p ~pool:(Some pool) ~len:16384)
  done;
  Alcotest.(check bool) "threshold back at or below the base" true
    (Copy_policy.threshold p <= Copy_policy.base_threshold);
  Alcotest.(check bool) "16 KiB sends remap again" true
    (Copy_policy.decide p ~pool:(Some pool) ~len:16384)

let test_pool_exhaustion_falls_back_to_copy ~intra () =
  (* Hoard every page of each process's own pool: descriptor sends must
     fail allocation, count a fallback, and deliver intact via the copy
     path. *)
  let module Pp = Sds_vm.Pagepool in
  let hoards = ref [] in
  let hoard ctx =
    let pool = L.pool_of ctx in
    let h = Pp.handle pool in
    let rec drain acc =
      let p = Pp.alloc h in
      if p = Pp.no_page then acc else drain (p :: acc)
    in
    hoards := (h, drain []) :: !hoards
  in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (h, pages) -> List.iter (Pp.release h) pages) !hoards)
    (fun () ->
      let config = { L.default_config with copy_policy = Copy_policy.Never_copy } in
      let zc, fb = pool_roundtrip ~prepare:hoard ~intra ~config ~size:(64 * 1024) () in
      Alcotest.(check int) "pools were hoarded" 2 (List.length !hoards);
      Alcotest.(check int) "no zero-copy send went through" 0 zc;
      Alcotest.(check bool) "fallbacks counted" true (fb >= 2))

let test_queue_tokens_distinct () =
  (* Every SHM queue carries a distinct secret token (§3). *)
  let w = make_world () in
  ignore (add_host w);
  let c1 = Sds_transport.Shm_chan.create w.engine ~cost:w.cost () in
  let c2 = Sds_transport.Shm_chan.create w.engine ~cost:w.cost () in
  Alcotest.(check bool) "tokens differ" true
    (Sds_transport.Shm_chan.token c1 <> Sds_transport.Shm_chan.token c2)

let suite =
  [
    Alcotest.test_case "full duplex streams" `Quick test_full_duplex;
    Alcotest.test_case "odd size 16383 intra" `Quick (odd_size_roundtrip ~intra:true 16383);
    Alcotest.test_case "odd size 16384 intra (zc threshold)" `Quick (odd_size_roundtrip ~intra:true 16384);
    Alcotest.test_case "odd size 16385 inter" `Quick (odd_size_roundtrip ~intra:false 16385);
    Alcotest.test_case "odd size 100000 inter (non-aligned zc)" `Quick
      (odd_size_roundtrip ~intra:false 100_000);
    Alcotest.test_case "ephemeral bind" `Quick test_ephemeral_bind;
    Alcotest.test_case "send before connect" `Quick test_send_before_connect;
    Alcotest.test_case "bad fd" `Quick test_bad_fd;
    Alcotest.test_case "zero-length send" `Quick test_zero_length_send_recv;
    Alcotest.test_case "20 connections, one thread" `Quick test_many_connections_one_thread;
    QCheck_alcotest.to_alcotest prop_stream_integrity;
    Alcotest.test_case "rdma ring backpressure" `Quick test_rdma_ring_backpressure;
    Alcotest.test_case "interrupt wakeup inter-host" `Quick test_interrupt_wakeup_inter_host;
    Alcotest.test_case "fd namespace isolation" `Quick test_fd_namespace_isolation;
    Alcotest.test_case "fork secret rejects impostor" `Quick test_fork_secret_rejects_impostor;
    Alcotest.test_case "queue tokens distinct" `Quick test_queue_tokens_distinct;
    Alcotest.test_case "copy policy: never-copy goes zero-copy" `Quick
      (test_copy_policy_never_copy ~intra:true);
    Alcotest.test_case "copy policy: always-copy stays inline" `Quick
      (test_copy_policy_always_copy ~intra:true);
    Alcotest.test_case "copy policy: adaptive remaps 64 KiB" `Quick
      (test_copy_policy_adaptive_large ~intra:true);
    Alcotest.test_case "copy policy: 4 KiB stream stays on copy" `Quick
      test_copy_policy_4k_stays_copy;
    Alcotest.test_case "pool exhaustion falls back to copy" `Quick
      (test_pool_exhaustion_falls_back_to_copy ~intra:true);
    Alcotest.test_case "rdma copy policy: never-copy goes zero-copy" `Quick
      (test_copy_policy_never_copy ~intra:false);
    Alcotest.test_case "rdma copy policy: always-copy stays inline" `Quick
      (test_copy_policy_always_copy ~intra:false);
    Alcotest.test_case "rdma copy policy: adaptive remaps 64 KiB" `Quick
      (test_copy_policy_adaptive_large ~intra:false);
    Alcotest.test_case "rdma pool exhaustion falls back to copy" `Quick
      (test_pool_exhaustion_falls_back_to_copy ~intra:false);
    Alcotest.test_case "copy policy: small payloads skip the pressure read" `Quick
      test_copy_policy_small_skips_pressure;
    Alcotest.test_case "copy policy: the threshold relaxes once pressure ends" `Quick
      test_copy_policy_relaxes_after_pressure;
  ]
