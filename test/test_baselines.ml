(* Tests for the baseline stacks (RSocket / LibVMA models) and the Table 3
   feature matrix. *)

module R = Sds_baselines.Rsocket
module V = Sds_baselines.Libvma
module F = Sds_baselines.Features
open Helpers

let test_rsocket_echo_inter () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  ignore
    (spawn w "rs-server" (fun () ->
         let l = R.listen h2 ~port:100 in
         ready := true;
         let c = R.accept l in
         let b = Bytes.create 8 in
         let n = R.recv c b ~off:0 ~len:8 in
         ignore (R.send c b ~off:0 ~len:n)));
  run w (fun () ->
      wait_for ready;
      let c = R.connect h1 ~dst:h2 ~port:100 in
      ignore (R.send c (Bytes.of_string "rsocket!") ~off:0 ~len:8);
      let b = Bytes.create 8 in
      let got = ref 0 in
      while !got < 8 do
        got := !got + R.recv c b ~off:!got ~len:(8 - !got)
      done;
      Alcotest.(check string) "echo" "rsocket!" (Bytes.to_string b))

let test_rsocket_intra_uses_hairpin () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  let rtt = ref 0 in
  ignore
    (spawn w "rs-hp-server" (fun () ->
         let l = R.listen h ~port:101 in
         ready := true;
         let c = R.accept l in
         let b = Bytes.create 4 in
         let n = R.recv c b ~off:0 ~len:4 in
         ignore (R.send c b ~off:0 ~len:n)));
  run w (fun () ->
      wait_for ready;
      let c = R.connect h ~dst:h ~port:101 in
      let t0 = Sds_sim.Engine.now w.engine in
      ignore (R.send c (Bytes.of_string "ping") ~off:0 ~len:4);
      let b = Bytes.create 4 in
      let got = ref 0 in
      while !got < 4 do
        got := !got + R.recv c b ~off:!got ~len:(4 - !got)
      done;
      rtt := Sds_sim.Engine.now w.engine - t0);
  (* Intra-host traffic goes through the NIC: RTT must include at least one
     full hairpin (the whole point of SocksDirect's SHM path). *)
  Alcotest.(check bool) "hairpin latency paid" true (!rtt >= Sds_sim.Cost.default.Sds_sim.Cost.nic_hairpin)

let test_rsocket_no_epoll_no_fork () =
  Alcotest.check_raises "epoll unsupported" (R.Not_supported "rsocket: epoll not supported")
    (fun () -> R.epoll ());
  Alcotest.check_raises "fork unsupported" (R.Not_supported "rsocket: fork not supported")
    (fun () -> R.fork ())

(* A send on a closed rsocket fails as a kernel socket's does: EPIPE. *)
let test_rsocket_send_after_close () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  ignore
    (spawn w "rs-closed-server" (fun () ->
         let l = R.listen h2 ~port:103 in
         ready := true;
         ignore (R.accept l)));
  run w (fun () ->
      wait_for ready;
      let c = R.connect h1 ~dst:h2 ~port:103 in
      R.close c;
      check_errno "send after close" Unix.EPIPE (fun () ->
          R.send c (Bytes.of_string "late") ~off:0 ~len:4))

let test_libvma_echo_inter () =
  let w = make_world () in
  let h1 = add_host w in
  let h2 = add_host w in
  let ready = ref false in
  ignore
    (spawn w "vma-server" (fun () ->
         let l = V.listen h2 ~port:102 in
         ready := true;
         let c = V.accept l in
         let b = Bytes.create 6 in
         let got = ref 0 in
         while !got < 6 do
           got := !got + V.recv c b ~off:!got ~len:(6 - !got)
         done;
         ignore (V.send c b ~off:0 ~len:6)));
  run w (fun () ->
      wait_for ready;
      let c = V.connect h1 ~dst:h2 ~port:102 in
      ignore (V.send c (Bytes.of_string "libvma") ~off:0 ~len:6);
      let b = Bytes.create 6 in
      let got = ref 0 in
      while !got < 6 do
        got := !got + V.recv c b ~off:!got ~len:(6 - !got)
      done;
      Alcotest.(check string) "echo" "libvma" (Bytes.to_string b))

let test_libvma_intra_kernel_fallback () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false in
  ignore
    (spawn w "vma-intra-server" (fun () ->
         let l = V.listen h ~port:103 in
         ready := true;
         let c = V.accept l in
         let b = Bytes.create 2 in
         let got = ref 0 in
         while !got < 2 do
           got := !got + V.recv c b ~off:!got ~len:(2 - !got)
         done;
         ignore (V.send c b ~off:0 ~len:2)));
  run w (fun () ->
      wait_for ready;
      let c = V.connect h ~dst:h ~port:103 in
      ignore (V.send c (Bytes.of_string "ok") ~off:0 ~len:2);
      let b = Bytes.create 2 in
      let got = ref 0 in
      while !got < 2 do
        got := !got + V.recv c b ~off:!got ~len:(2 - !got)
      done;
      Alcotest.(check string) "intra fallback works" "ok" (Bytes.to_string b))

let test_libvma_contention_model () =
  let w = make_world () in
  let h = add_host w in
  let stack = V.stack_for h in
  Alcotest.(check int) "one thread: no penalty" 1
    (V.sender_cost stack 8 / V.sender_cost stack 8);
  let single = V.sender_cost stack 8 in
  V.set_threads stack 2;
  let two = V.sender_cost stack 8 in
  V.set_threads stack 4;
  let four = V.sender_cost stack 8 in
  Alcotest.(check bool) "two threads much slower per op" true (two > 4 * single);
  Alcotest.(check bool) "four threads worse still" true (four > two)

let test_features_matrix () =
  (* Spot-check the claims the executable models must agree with. *)
  let get name = match F.find name with Some s -> s | None -> Alcotest.fail ("missing " ^ name) in
  let sd = get "SocksDirect" in
  Alcotest.(check string) "SD epoll" "yes" (F.string_of_support sd.F.epoll);
  Alcotest.(check string) "SD fork" "yes" (F.string_of_support sd.F.full_fork);
  Alcotest.(check string) "SD acl by daemon" "Daemon" sd.F.access_control;
  let rs = get "RSocket/SDP" in
  Alcotest.(check string) "RSocket no epoll" "-" (F.string_of_support rs.F.epoll);
  Alcotest.(check string) "RSocket no fork" "-" (F.string_of_support rs.F.full_fork);
  let vma = get "LibVMA" in
  Alcotest.(check string) "LibVMA no fork" "-" (F.string_of_support vma.F.full_fork);
  Alcotest.(check int) "ten systems" 10 (List.length F.systems)

let suite =
  [
    Alcotest.test_case "rsocket inter-host echo" `Quick test_rsocket_echo_inter;
    Alcotest.test_case "rsocket intra-host pays hairpin" `Quick test_rsocket_intra_uses_hairpin;
    Alcotest.test_case "rsocket lacks epoll and fork" `Quick test_rsocket_no_epoll_no_fork;
    Alcotest.test_case "libvma inter-host echo" `Quick test_libvma_echo_inter;
    Alcotest.test_case "libvma intra-host kernel fallback" `Quick test_libvma_intra_kernel_fallback;
    Alcotest.test_case "libvma lock contention model" `Quick test_libvma_contention_model;
    Alcotest.test_case "table 3 feature matrix" `Quick test_features_matrix;
    Alcotest.test_case "rsocket send after close is EPIPE" `Quick test_rsocket_send_after_close;
  ]
