(* Tables 1-4 of the paper.

   Table 1 is the overhead inventory (static mapping, with pointers to the
   mechanism in this repo).  Table 2 mixes measured micro-benchmarks run in
   the simulator with the calibrated constants they derive from.  Table 3 is
   the feature matrix.  Table 4 prints the per-op / per-packet / per-kbyte /
   per-connection breakdown, plus measured end-to-end totals. *)

open Sds_sim
open Common
module K = Sds_kernel.Kernel

let cost = Cost.default

(* ---- Table 1 ---- *)

let table1_rows =
  [
    ("per op", "Kernel crossing (syscall)", "user-space library (libsd.ml)");
    ("per op", "Socket FD locks", "token-based sharing (token.ml)");
    ("per packet", "Transport protocol (TCP/IP)", "RDMA / SHM (nic.ml, shm_chan.ml)");
    ("per packet", "Buffer management", "per-socket ring buffer (spsc_ring.ml)");
    ("per packet", "I/O multiplexing", "RDMA / SHM queues (nic.ml)");
    ("per packet", "Interrupt handling", "event notification (libsd.ml §4.4)");
    ("per packet", "Process wakeup", "event notification (libsd.ml §4.4)");
    ("per byte", "Payload copy", "page-descriptor handoff (libsd.ml, pagepool.ml)");
    ("per conn", "Kernel FD allocation", "FD remapping table (fd_table.ml)");
    ("per conn", "Locks in TCB management", "distributed to libsd (libsd.ml)");
    ("per conn", "New connection dispatch", "monitor daemon (monitor.ml)");
  ]

let run_table1 () =
  header "Table 1: overheads in Linux socket and our solutions";
  tsv_row [ "type"; "overhead"; "solution (module)" ];
  List.iter (fun (a, b, c) -> tsv_row [ a; b; c ]) table1_rows

(* ---- Table 2 ---- *)

(* Ping-pong over kernel pipes (both directions pipes). *)
let pipe_rtt () =
  let w = make_world () in
  let h = add_host w in
  let kernel = K.for_host h in
  let kproc = K.spawn_process kernel () in
  let stats = Stats.create () in
  let done_ = ref false in
  ignore
    (Proc.spawn w.engine ~name:"pipe-pp" (fun () ->
         let r1, w1 = K.pipe kproc in
         let r2, w2 = K.pipe kproc in
         ignore
           (Proc.spawn w.engine ~name:"pipe-echo" (fun () ->
                let b = Bytes.create 8 in
                for _ = 1 to 120 do
                  let n = K.recv kproc r1 b ~off:0 ~len:8 in
                  assert (n = 8);
                  ignore (K.send kproc w2 b ~off:0 ~len:8)
                done));
         let b = Bytes.create 8 in
         for i = 1 to 120 do
           let t0 = Engine.now w.engine in
           ignore (K.send kproc w1 b ~off:0 ~len:8);
           let n = K.recv kproc r2 b ~off:0 ~len:8 in
           assert (n = 8);
           if i > 20 then Stats.add stats (float_of_int (Engine.now w.engine - t0))
         done;
         done_ := true));
  Engine.run ~until:60_000_000_000 w.engine;
  assert !done_;
  ns_to_us (Stats.mean stats)

(* Ping-pong over a kernel Unix socketpair. *)
let unix_rtt () =
  let w = make_world () in
  let h = add_host w in
  let kernel = K.for_host h in
  let kproc = K.spawn_process kernel () in
  let stats = Stats.create () in
  let done_ = ref false in
  ignore
    (Proc.spawn w.engine ~name:"uds-pp" (fun () ->
         let a, b = K.unix_socketpair kproc in
         ignore
           (Proc.spawn w.engine ~name:"uds-echo" (fun () ->
                let buf = Bytes.create 8 in
                for _ = 1 to 120 do
                  let n = K.recv kproc b buf ~off:0 ~len:8 in
                  assert (n = 8);
                  ignore (K.send kproc b buf ~off:0 ~len:8)
                done));
         let buf = Bytes.create 8 in
         for i = 1 to 120 do
           let t0 = Engine.now w.engine in
           ignore (K.send kproc a buf ~off:0 ~len:8);
           let n = K.recv kproc a buf ~off:0 ~len:8 in
           assert (n = 8);
           if i > 20 then Stats.add stats (float_of_int (Engine.now w.engine - t0))
         done;
         done_ := true));
  Engine.run ~until:60_000_000_000 w.engine;
  assert !done_;
  ns_to_us (Stats.mean stats)

let measured_rtt_tput stack ~intra =
  let w = make_world () in
  let h1 = add_host w in
  let ch, sh = if intra then (h1, h1) else (h1, add_host w) in
  let lat = (pingpong stack w ~client_host:ch ~server_host:sh ~size:8 ~rounds:200 ~warmup:20).Stats.mean_v in
  let w2 = make_world () in
  let h1 = add_host w2 in
  let ch, sh = if intra then (h1, h1) else (h1, add_host w2) in
  let tput = stream_tput stack w2 ~client_host:ch ~server_host:sh ~size:8 ~pairs:1 ~warmup_ns:1_000_000 ~window_ns:5_000_000 in
  (ns_to_us lat, mops tput)

let run_table2 () =
  header "Table 2: round-trip latency and single-core throughput of operations (8-byte)";
  tsv_row [ "operation"; "latency(us)"; "tput(Mop/s)"; "source" ];
  let const name lat_ns tput =
    tsv_row [ name; f2 (float_of_int lat_ns /. 1000.); tput; "calibrated constant" ]
  in
  const "Inter-core cache migration" cost.Cost.cache_migration "50";
  const "Poll 32 empty queues" cost.Cost.poll_empty_32 "24";
  const "System call (before KPTI)" cost.Cost.syscall_pre_kpti "21";
  const "Spinlock (no contention)" cost.Cost.spinlock "10";
  const "Allocate and deallocate a buffer" cost.Cost.buffer_alloc_free "7.7";
  const "Spinlock (contended)" cost.Cost.spinlock_contended "5";
  let shm_lat, shm_tput = measured_rtt_tput (module Raw_stacks.Raw_shm) ~intra:true in
  tsv_row [ "Lockless shared memory queue"; f2 shm_lat; f2 shm_tput; "measured" ];
  let sd_lat, sd_tput = measured_rtt_tput (module Sds_apps.Sock_api.Sds) ~intra:true in
  tsv_row [ "Intra-host SocksDirect"; f2 sd_lat; f2 sd_tput; "measured" ];
  const "System call (after KPTI)" cost.Cost.syscall_post_kpti "5.0";
  const "Copy one page (4 KiB)" cost.Cost.copy_page_4k "5.0";
  const "Cooperative context switch" cost.Cost.yield_switch "2.0";
  const "Map one page (4 KiB)" cost.Cost.map_page_4k "1.3";
  const "NIC hairpin within a host" cost.Cost.nic_hairpin "1.0";
  (* Atomic (locked) SHM queue: the lockless queue plus one contended lock
     per op on each side. *)
  let atomic_lat = shm_lat +. (4. *. float_of_int cost.Cost.spinlock_contended /. 1000.) in
  let atomic_tput = 1000. /. ((1000. /. shm_tput) +. float_of_int cost.Cost.spinlock_contended) in
  tsv_row [ "Atomic shared memory queue"; f2 atomic_lat; f2 atomic_tput; "derived" ];
  const "Map 32 pages (128 KiB)" cost.Cost.map_32_pages "0.8";
  const "Open a socket FD" cost.Cost.open_socket_fd "0.6";
  let rdma_lat, rdma_tput = measured_rtt_tput (module Raw_stacks.Raw_rdma) ~intra:false in
  tsv_row [ "One-sided RDMA write"; f2 rdma_lat; f2 rdma_tput; "measured" ];
  let sdi_lat, sdi_tput = measured_rtt_tput (module Sds_apps.Sock_api.Sds) ~intra:false in
  tsv_row [ "Inter-host SocksDirect"; f2 sdi_lat; f2 sdi_tput; "measured" ];
  const "Process wakeup" cost.Cost.process_wakeup "0.2~0.4";
  tsv_row [ "Linux pipe / FIFO"; f2 (pipe_rtt ()); "1.2"; "measured (latency)" ];
  tsv_row [ "Unix domain socket in Linux"; f2 (unix_rtt ()); "0.9"; "measured (latency)" ];
  let lx_lat, lx_tput = measured_rtt_tput (module Sds_apps.Sock_api.Linux) ~intra:true in
  tsv_row [ "Intra-host Linux TCP socket"; f2 lx_lat; f2 lx_tput; "measured" ];
  let lxi_lat, lxi_tput = measured_rtt_tput (module Sds_apps.Sock_api.Linux) ~intra:false in
  tsv_row [ "Inter-host Linux TCP socket"; f2 lxi_lat; f2 lxi_tput; "measured" ]

(* ---- Table 3 ---- *)

let run_table3 () =
  header "Table 3: comparison of high performance socket systems";
  List.iter (fun s -> Fmt.pr "%a@." Sds_baselines.Features.pp_row s) Sds_baselines.Features.systems

(* ---- Table 4 ---- *)

(* Measure connection setup latency: time a connect() call. *)
let conn_setup_ns (module Api : Sds_apps.Sock_api.S) ~intra =
  let w = make_world () in
  let h1 = add_host w in
  let ch, sh = if intra then (h1, h1) else (h1, add_host w) in
  let ready = ref false in
  ignore
    (Proc.spawn w.engine ~name:"t4-server" (fun () ->
         let ep = Api.make_endpoint sh ~core:1 in
         let l = Api.listen ep ~port:7400 in
         ready := true;
         (* Accept a few connections. *)
         for _ = 1 to 3 do
           ignore (Api.accept ep l)
         done));
  let result = ref 0 in
  let done_ = ref false in
  ignore
    (Proc.spawn w.engine ~name:"t4-client" (fun () ->
         while not !ready do
           Proc.sleep_ns 1_000
         done;
         let ep = Api.make_endpoint ch ~core:0 in
         (* Warm one connection (monitor-monitor link, registries). *)
         ignore (Api.connect ep ~dst:sh ~port:7400);
         let t0 = Engine.now w.engine in
         ignore (Api.connect ep ~dst:sh ~port:7400);
         result := Engine.now w.engine - t0;
         done_ := true));
  Engine.run ~until:60_000_000_000 w.engine;
  assert !done_;
  !result

let run_table4 () =
  header "Table 4: latency breakdown (ns, calibrated components + measured totals)";
  tsv_row [ "category"; "component"; "SocksDirect"; "LibVMA"; "RSocket"; "Linux" ];
  let r c n a b d e = tsv_row [ c; n; a; b; d; e ] in
  r "per op" "C library shim" (string_of_int cost.Cost.c_shim) "10" "10" "12";
  r "per op" "kernel crossing" "-" "-" "-" (string_of_int (Cost.syscall cost));
  r "per op" "socket FD locking" "-"
    (string_of_int cost.Cost.fd_lock_vma)
    (string_of_int cost.Cost.fd_lock_rsocket)
    (string_of_int cost.Cost.fd_lock_linux);
  r "per packet" "buffer management"
    (string_of_int cost.Cost.sd_buffer_mgmt)
    (string_of_int cost.Cost.vma_buffer_mgmt)
    (string_of_int cost.Cost.rsocket_buffer_mgmt)
    (string_of_int cost.Cost.linux_buffer_mgmt);
  r "per packet" "transport protocol" "-" (string_of_int cost.Cost.vma_transport) "-"
    (string_of_int cost.Cost.linux_transport);
  r "per packet" "packet processing" "-" (string_of_int cost.Cost.vma_packet_proc) "-"
    (string_of_int cost.Cost.linux_packet_proc);
  r "per packet" "NIC doorbell and DMA"
    (string_of_int cost.Cost.doorbell_dma_sd)
    (string_of_int cost.Cost.doorbell_dma_2sided)
    (string_of_int cost.Cost.doorbell_dma_2sided)
    (string_of_int cost.Cost.doorbell_dma_linux);
  r "per packet" "NIC interrupt handling" "-" "-" "-" (string_of_int cost.Cost.linux_interrupt);
  r "per packet" "process wakeup" "-" "-" "-" (string_of_int cost.Cost.process_wakeup);
  r "per kbyte" "wire transfer" (string_of_int cost.Cost.wire_per_kb) "same" "same" "same";
  r "per kbyte" "payload copy (per side)"
    (Fmt.str "%d (>=16K: %d remap)" cost.Cost.copy_per_kb cost.Cost.sd_remap_per_kb)
    (string_of_int cost.Cost.copy_per_kb)
    (string_of_int cost.Cost.copy_per_kb)
    (string_of_int cost.Cost.copy_per_kb);
  (* Measured one-way 8-byte latency ("per packet total"). *)
  let one_way stack ~intra =
    let w = make_world () in
    let h1 = add_host w in
    let ch, sh = if intra then (h1, h1) else (h1, add_host w) in
    (pingpong stack w ~client_host:ch ~server_host:sh ~size:8 ~rounds:100 ~warmup:10).Stats.mean_v /. 2.
  in
  r "measured" "per packet total (intra)"
    (f2 (one_way (module Sds_apps.Sock_api.Sds) ~intra:true))
    (f2 (one_way (module Sds_apps.Sock_api.Libvma) ~intra:true))
    (f2 (one_way (module Sds_apps.Sock_api.Rsocket) ~intra:true))
    (f2 (one_way (module Sds_apps.Sock_api.Linux) ~intra:true));
  r "measured" "per packet total (inter)"
    (f2 (one_way (module Sds_apps.Sock_api.Sds) ~intra:false))
    (f2 (one_way (module Sds_apps.Sock_api.Libvma) ~intra:false))
    (f2 (one_way (module Sds_apps.Sock_api.Rsocket) ~intra:false))
    (f2 (one_way (module Sds_apps.Sock_api.Linux) ~intra:false));
  r "measured" "per connection (intra)"
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Sds) ~intra:true))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Libvma) ~intra:true))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Rsocket) ~intra:true))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Linux) ~intra:true));
  r "measured" "per connection (inter)"
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Sds) ~intra:false))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Libvma) ~intra:false))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Rsocket) ~intra:false))
    (string_of_int (conn_setup_ns (module Sds_apps.Sock_api.Linux) ~intra:false))
