(* Smoke tests over the experiment harness: each checked relation is one of
   the paper's headline claims, asserted on small configurations so the
   whole suite stays fast. *)

module C = Sds_experiments.Common
module Sapi = Sds_apps.Sock_api

let pingpong_us (module Api : Sapi.S) ~intra =
  let w = C.make_world () in
  let h1 = C.add_host w in
  let h2 = if intra then h1 else C.add_host w in
  let s = C.pingpong (module Api) w ~client_host:h1 ~server_host:h2 ~size:8 ~rounds:60 ~warmup:10 in
  s.Sds_sim.Stats.mean_v /. 1e3

let tput (module Api : Sapi.S) ~intra ~pairs =
  let w = C.make_world () in
  let h1 = C.add_host w in
  let h2 = if intra then h1 else C.add_host w in
  C.stream_tput (module Api) w ~client_host:h1 ~server_host:h2 ~size:8 ~pairs
    ~warmup_ns:500_000 ~window_ns:2_000_000

let test_headline_latency () =
  let sd = pingpong_us (module Sapi.Sds) ~intra:true in
  let lx = pingpong_us (module Sapi.Linux) ~intra:true in
  (* "17~35x better latency than Linux socket" (intra-host). *)
  Alcotest.(check bool) "SD intra RTT well under 1 us" true (sd < 1.0);
  Alcotest.(check bool) "at least 17x better than Linux" true (lx /. sd >= 17.0)

let test_inter_close_to_rdma () =
  let sd = pingpong_us (module Sapi.Sds) ~intra:false in
  let rdma = pingpong_us (module Sds_experiments.Raw_stacks.Raw_rdma) ~intra:false in
  (* "almost the same as raw RDMA write": within 15%. *)
  Alcotest.(check bool) "SD inter RTT close to raw RDMA" true (sd < rdma *. 1.15)

let test_headline_throughput () =
  let sd = tput (module Sapi.Sds) ~intra:true ~pairs:1 in
  let lx = tput (module Sapi.Linux) ~intra:true ~pairs:1 in
  (* "7~20x better message throughput". *)
  Alcotest.(check bool) "SD >= 15 M msg/s intra" true (sd >= 15e6);
  Alcotest.(check bool) "at least 7x Linux" true (sd /. lx >= 7.0)

let test_multicore_scaling () =
  let one = tput (module Sapi.Sds) ~intra:true ~pairs:1 in
  let four = tput (module Sapi.Sds) ~intra:true ~pairs:4 in
  (* "throughput is scalable with number of CPU cores". *)
  Alcotest.(check bool) "4 pairs ~ 4x one pair" true (four >= 3.5 *. one)

let test_libvma_collapse () =
  let one = tput (module Sapi.Libvma) ~intra:false ~pairs:1 in
  let w = C.make_world () in
  let h1 = C.add_host w in
  let h2 = C.add_host w in
  Sds_baselines.Libvma.set_threads (Sds_baselines.Libvma.stack_for h1) 3;
  let three =
    C.stream_tput (module Sapi.Libvma) w ~client_host:h1 ~server_host:h2 ~size:8 ~pairs:3
      ~warmup_ns:500_000 ~window_ns:2_000_000
  in
  (* Figure 9: 1/10 of single-thread throughput with three or more threads. *)
  Alcotest.(check bool) "aggregate collapses below single-thread" true (three < one)

let test_zero_copy_crossover () =
  (* Figure 7a at >= 16 KiB: zero copy beats the copying configuration. *)
  let big (module Api : Sapi.S) =
    let w = C.make_world () in
    let h = C.add_host w in
    C.stream_tput (module Api) w ~client_host:h ~server_host:h ~size:65536 ~pairs:1
      ~warmup_ns:1_000_000 ~window_ns:5_000_000
  in
  let zc = big (module Sapi.Sds) in
  let nozc = big (module Sapi.Sds_unopt) in
  Alcotest.(check bool) "zero copy wins at 64 KiB" true (zc > 2.0 *. nozc)

let test_batching_gain () =
  let b = tput (module Sapi.Sds) ~intra:false ~pairs:1 in
  let ub = tput (module Sapi.Sds_unopt) ~intra:false ~pairs:1 in
  (* Figure 8a: batched inter-host small messages beat unbatched. *)
  Alcotest.(check bool) "batching gains on 8 B messages" true (b > 1.5 *. ub)

let test_qp_cache_degradation () =
  let few = Sds_experiments.Qpscale.point ~qps:16 in
  let many = Sds_experiments.Qpscale.point ~qps:8192 in
  Alcotest.(check bool) "latency grows past the QP cache" true (many > few *. 1.2)

let test_runs_independent () =
  (* Each simulated world owns its processes' page pools, so a point must
     not depend on what ran before it in the same OS process: not on
     itself, and not on an inter-host 1 MiB point that leaves descriptors
     in flight when its world is dropped. *)
  let module F = Sds_experiments.Fig78 in
  let point () = F.tput_point (module Sapi.Sds) ~intra:true ~size:32768 in
  let first = point () in
  Alcotest.(check (float 0.)) "second run equals the first" first (point ());
  ignore (F.tput_point (module Sapi.Sds) ~intra:false ~size:1048576);
  Alcotest.(check (float 0.)) "after an inter-host 1 MiB point" first (point ())

let suite =
  [
    Alcotest.test_case "headline: 17-35x latency vs Linux" `Slow test_headline_latency;
    Alcotest.test_case "headline: inter-host ~ raw RDMA" `Slow test_inter_close_to_rdma;
    Alcotest.test_case "headline: 7-20x throughput vs Linux" `Slow test_headline_throughput;
    Alcotest.test_case "multicore scaling" `Slow test_multicore_scaling;
    Alcotest.test_case "libvma multi-thread collapse" `Slow test_libvma_collapse;
    Alcotest.test_case "zero-copy crossover at 16KiB+" `Slow test_zero_copy_crossover;
    Alcotest.test_case "adaptive batching gain" `Slow test_batching_gain;
    Alcotest.test_case "qp cache degradation" `Slow test_qp_cache_degradation;
    Alcotest.test_case "runs do not affect each other" `Slow test_runs_independent;
  ]
