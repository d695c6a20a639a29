(* Tests for the transport layer: messages, SHM channels (timing, credits,
   interrupt hooks), the RDMA NIC model (ordering, batching, QP cache,
   hairpin), hosts. *)

open Sds_sim
open Sds_transport
open Helpers

(* ---- Msg ---- *)

let test_msg_inline () =
  let m = Msg.data_string "abcdef" in
  Alcotest.(check int) "payload len" 6 (Msg.payload_len m);
  Alcotest.(check int) "ring len = payload for inline" 6 (Msg.ring_len m);
  Alcotest.(check string) "bytes" "abcdef" (Bytes.to_string (Msg.to_bytes m))

let test_msg_pool () =
  let pool = Sds_vm.Pagepool.create ~pages:2 () in
  let h = Sds_vm.Pagepool.handle pool in
  let fill c len =
    let page = Sds_vm.Pagepool.alloc h in
    Sds_vm.Pagepool.blit_from_bytes pool ~src:(Bytes.make len c) ~src_off:0 ~page ~off:0 ~len;
    Sds_ring.Spsc_ring.desc_entry ~page ~off:0 ~len
  in
  let entries = [| fill 'A' 4096; fill 'B' 904 |] in
  let m = Msg.make (Msg.Pool { pool; entries; len = 5000 }) in
  Alcotest.(check int) "payload len" 5000 (Msg.payload_len m);
  Alcotest.(check int) "ring len = 8B per descriptor" 16 (Msg.ring_len m);
  let b = Bytes.create 5000 in
  let module Core = Sds_proto.Stream_core in
  let landed = Core.land_desc (Core.cursor ()) Core.Global pool entries ~count:2 b ~off:0 ~len:5000 in
  Alcotest.(check int) "landed whole" 5000 landed;
  Alcotest.(check char) "first page" 'A' (Bytes.get b 0);
  Alcotest.(check char) "second page" 'B' (Bytes.get b 4500);
  Alcotest.(check int) "pages released" 2 (Sds_vm.Pagepool.free_pages pool)

(* ---- Shm_chan ---- *)

let test_shm_delivery_latency () =
  let w = make_world () in
  let chan = Shm_chan.create w.engine ~cost:w.cost () in
  let got_at = ref (-1) in
  run w (fun () ->
      (match Shm_chan.try_send chan (Msg.data_string "x") with
      | Shm_chan.Sent -> ()
      | Shm_chan.Full -> Alcotest.fail "unexpected Full");
      let sent_done = Engine.now w.engine in
      (* Not visible synchronously: one cache migration of delay. *)
      Alcotest.(check bool) "not yet visible" true (Shm_chan.try_recv chan = None);
      Proc.sleep_ns w.cost.Cost.cache_migration;
      (match Shm_chan.try_recv chan with
      | Some m -> Alcotest.(check string) "content" "x" (Bytes.to_string (Msg.to_bytes m))
      | None -> Alcotest.fail "message not delivered");
      got_at := Engine.now w.engine - sent_done);
  Alcotest.(check bool) "visible after cache migration" true (!got_at >= w.cost.Cost.cache_migration)

let test_shm_flow_control () =
  let w = make_world () in
  let chan = Shm_chan.create w.engine ~cost:w.cost ~ring_size:256 () in
  run w (fun () ->
      let sent = ref 0 in
      let full = ref false in
      while not !full do
        match Shm_chan.try_send chan (Msg.data (Bytes.make 56 'f')) with
        | Shm_chan.Sent -> incr sent
        | Shm_chan.Full -> full := true
      done;
      Alcotest.(check int) "ring capacity respected" 4 !sent;
      (* Drain; credit returns restore send capacity. *)
      Proc.sleep_ns 1_000;
      for _ = 1 to !sent do
        match Shm_chan.try_recv chan with
        | Some _ -> ()
        | None -> Alcotest.fail "expected message"
      done;
      Proc.sleep_ns 1_000;
      (match Shm_chan.try_send chan (Msg.data (Bytes.make 56 'g')) with
      | Shm_chan.Sent -> ()
      | Shm_chan.Full -> Alcotest.fail "credits not returned"))

let test_shm_fifo_content () =
  let w = make_world () in
  let chan = Shm_chan.create w.engine ~cost:w.cost () in
  run w (fun () ->
      for i = 1 to 50 do
        match Shm_chan.try_send chan (Msg.data_string (Printf.sprintf "m%03d" i)) with
        | Shm_chan.Sent -> ()
        | Shm_chan.Full -> Alcotest.fail "full"
      done;
      Proc.sleep_ns 1_000;
      for i = 1 to 50 do
        match Shm_chan.try_recv chan with
        | Some m ->
          Alcotest.(check string) "order" (Printf.sprintf "m%03d" i) (Bytes.to_string (Msg.to_bytes m))
        | None -> Alcotest.fail "missing message"
      done)

let test_shm_interrupt_hook () =
  let w = make_world () in
  let chan = Shm_chan.create w.engine ~cost:w.cost () in
  let hook_fired = ref 0 in
  Shm_chan.set_interrupt_hook chan (fun _ -> incr hook_fired);
  run w (fun () ->
      ignore (Shm_chan.try_send chan (Msg.data_string "a"));
      Proc.sleep_ns 1_000;
      Alcotest.(check int) "no hook in polling mode" 0 !hook_fired;
      Shm_chan.set_mode chan Shm_chan.Interrupt;
      ignore (Shm_chan.try_send chan (Msg.data_string "b"));
      Proc.sleep_ns 1_000;
      Alcotest.(check int) "hook fired in interrupt mode" 1 !hook_fired)

(* Property: the SHM channel delivers any message sequence FIFO and intact,
   under arbitrary interleavings of sends and receives. *)
let prop_shm_fifo_model =
  QCheck.Test.make ~name:"shm channel matches a model queue" ~count:60
    QCheck.(list (pair bool (string_of_size (Gen.int_range 0 120))))
    (fun ops ->
      let w = make_world () in
      let chan = Shm_chan.create w.engine ~cost:w.cost ~ring_size:4096 () in
      let model = Queue.create () in
      let ok = ref true in
      run w (fun () ->
          List.iter
            (fun (is_send, payload) ->
              if is_send then begin
                match Shm_chan.try_send chan (Msg.data_string payload) with
                | Shm_chan.Sent -> Queue.push payload model
                | Shm_chan.Full -> ()
              end
              else begin
                (* Let in-flight deliveries land before receiving. *)
                Proc.sleep_ns (w.cost.Cost.cache_migration + 1);
                match (Shm_chan.try_recv chan, Queue.take_opt model) with
                | Some m, Some expected ->
                  if Bytes.to_string (Msg.to_bytes m) <> expected then ok := false
                | None, None -> ()
                | None, Some _ ->
                  (* Model has it but the wire hasn't delivered yet is
                     impossible after the sleep; flag it. *)
                  ok := false
                | Some _, None -> ok := false
              end)
            ops;
          (* Drain the rest in order. *)
          Proc.sleep_ns 1_000;
          let rec drain () =
            match (Shm_chan.try_recv chan, Queue.take_opt model) with
            | Some m, Some expected ->
              if Bytes.to_string (Msg.to_bytes m) <> expected then ok := false;
              drain ()
            | None, None -> ()
            | _ -> ok := false
          in
          drain ());
      !ok)

(* ---- NIC ---- *)

let nic_pair w =
  let h1 = add_host w and h2 = add_host w in
  let n1 = Host.nic h1 and n2 = Host.nic h2 in
  let cq1 = Nic.create_cq n1 and cq2 = Nic.create_cq n2 in
  (n1, n2, cq1, cq2)

let test_rdma_write_ordering_and_completion () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  let delivered = ref [] in
  run w (fun () ->
      let qa, qb = Nic.connect_qps n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Nic.set_remote_sink qb (fun m -> delivered := Bytes.to_string (Msg.to_bytes m) :: !delivered);
      Nic.set_remote_sink qa (fun _ -> ());
      for i = 1 to 5 do
        Nic.write_imm qa (Msg.data_string (Printf.sprintf "w%d" i)) ~imm:i
      done;
      Proc.sleep_ns 100_000;
      Alcotest.(check (list string)) "in order" [ "w1"; "w2"; "w3"; "w4"; "w5" ] (List.rev !delivered);
      (* Write-with-immediate posts receive completions; data committed
         before its completion is observable. *)
      Alcotest.(check int) "receive completions" 5 (Nic.cq_pending cq2))

let test_rdma_batching_amortizes_wqes () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  run w (fun () ->
      let qa, qb = Nic.connect_qps n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Nic.set_batching qa true;
      let received = ref 0 in
      Nic.set_remote_sink qb (fun _ -> incr received);
      (* Overrun the in-flight window: the excess must flush as batches. *)
      for i = 1 to 1000 do
        Nic.write_imm qa (Msg.data_string "m") ~imm:i
      done;
      Proc.sleep_ns 10_000_000;
      Alcotest.(check int) "all messages arrived" 1000 !received;
      Alcotest.(check bool) "batched flushes happened" true (Nic.batched_flushes qa > 0);
      let tx_ops, tx_msgs, _, _ = Nic.stats n1 in
      Alcotest.(check int) "message count" 1000 tx_msgs;
      Alcotest.(check bool) "fewer WQEs than messages" true (tx_ops < 1000))

let test_rdma_unbatched_one_wqe_per_msg () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  run w (fun () ->
      let qa, qb = Nic.connect_qps n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Nic.set_remote_sink qb (fun _ -> ());
      for i = 1 to 200 do
        Nic.write_imm qa (Msg.data_string "m") ~imm:i
      done;
      Proc.sleep_ns 10_000_000;
      let tx_ops, tx_msgs, _, _ = Nic.stats n1 in
      Alcotest.(check int) "messages" 200 tx_msgs;
      Alcotest.(check int) "one WQE per message" 200 tx_ops)

let test_rdma_qp_cache_pressure () =
  let cost = { Cost.default with Cost.nic_qp_cache_entries = 4 } in
  let w = make_world ~cost () in
  let n1, n2, cq1, cq2 = nic_pair w in
  run w (fun () ->
      (* More QPs than cache entries -> misses on the data path. *)
      let qps =
        List.init 8 (fun _ -> Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2)
      in
      List.iter (fun (_, qb) -> Nic.set_remote_sink qb (fun _ -> ())) qps;
      List.iter (fun (qa, _) -> Nic.write_imm qa (Msg.data_string "x") ~imm:1) qps;
      Proc.sleep_ns 1_000_000;
      let _, _, _, misses = Nic.stats n1 in
      Alcotest.(check bool) "cache misses recorded" true (misses > 0))

let test_rdma_destroy_qp_counts () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  run w (fun () ->
      let qa, _qb = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Alcotest.(check int) "one qp live on n1" 1 (Nic.live_qps n1);
      Nic.destroy_qp qa;
      Alcotest.(check int) "n1 freed" 0 (Nic.live_qps n1);
      Alcotest.(check int) "n2 freed" 0 (Nic.live_qps n2))

let test_hairpin_latency () =
  let w = make_world () in
  let h = add_host w in
  let arrived_at = ref 0 in
  run w (fun () ->
      let t0 = Engine.now w.engine in
      Nic.hairpin (Host.nic h) (Msg.data_string "hp") ~deliver:(fun _ -> arrived_at := Engine.now w.engine - t0);
      Proc.sleep_ns 10_000);
  Alcotest.(check int) "one-way = half the Table-2 round trip"
    (Cost.default.Cost.nic_hairpin / 2) !arrived_at

let loss_delivery_test ~recovery () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  Nic.set_loss n1 ~ppm:50_000 ~recovery ~seed:11;
  let got = ref [] in
  run w (fun () ->
      let qa, qb = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Nic.set_remote_sink qb (fun m -> got := Bytes.to_string (Msg.to_bytes m) :: !got);
      for i = 1 to 400 do
        Nic.wait_send_capacity qa;
        Nic.write_imm qa (Msg.data_string (Printf.sprintf "%04d" i)) ~imm:i
      done;
      Proc.sleep_ns 50_000_000);
  let received = List.rev !got in
  (* Exactly-once, in-order delivery despite 5% loss. *)
  Alcotest.(check int) "all messages delivered" 400 (List.length received);
  Alcotest.(check (list string)) "strictly in order"
    (List.init 400 (fun i -> Printf.sprintf "%04d" (i + 1)))
    received;
  Alcotest.(check bool) "losses actually happened" true (Nic.retransmits n1 > 0)

let test_loss_latency_cost () =
  (* A lossy fabric must cost latency; go-back-N more than selective. *)
  let mean_rtt recovery ppm =
    let w = make_world () in
    let h1 = add_host w in
    let h2 = add_host w in
    Nic.set_loss (Host.nic h1) ~ppm ~recovery ~seed:13;
    Nic.set_loss (Host.nic h2) ~ppm ~recovery ~seed:14;
    let s =
      Sds_experiments.Common.pingpong
        (module Sds_experiments.Raw_stacks.Raw_rdma)
        { Sds_experiments.Common.engine = w.engine; cost = w.cost; rng = w.rng; hosts = [ h1; h2 ] }
        ~client_host:h1 ~server_host:h2 ~size:8 ~rounds:300 ~warmup:10
    in
    s.Stats.mean_v
  in
  let clean = mean_rtt Nic.Selective 0 in
  let sel = mean_rtt Nic.Selective 30_000 in
  let gbn = mean_rtt Nic.Go_back_n 30_000 in
  Alcotest.(check bool) "loss costs latency" true (sel > clean);
  Alcotest.(check bool) "go-back-N costs at least selective" true (gbn >= sel)

let test_qp_rate_limit_isolation () =
  (* Two QPs on one NIC; shaping one must cap its goodput without touching
     the other (performance isolation, Table 3). *)
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  let recv_a = ref 0 and recv_b = ref 0 in
  run w (fun () ->
      let qa, pa = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      let qb, pb = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      Nic.set_remote_sink pa (fun m -> recv_a := !recv_a + Sds_transport.Msg.payload_len m);
      Nic.set_remote_sink pb (fun m -> recv_b := !recv_b + Sds_transport.Msg.payload_len m);
      (* Shape flow A to ~1 GB/s; leave B unshaped. *)
      Nic.set_rate_limit qa ~bytes_per_sec:1e9 ~burst_bytes:8192;
      let payload = Bytes.make 4096 'q' in
      for i = 1 to 400 do
        Nic.wait_send_capacity qa;
        Nic.write_imm qa (Msg.data (Bytes.copy payload)) ~imm:i;
        Nic.wait_send_capacity qb;
        Nic.write_imm qb (Msg.data (Bytes.copy payload)) ~imm:i
      done;
      Proc.sleep_ns 3_000_000);
  (* Both delivered everything... *)
  Alcotest.(check int) "A complete" (400 * 4096) !recv_a;
  Alcotest.(check int) "B complete" (400 * 4096) !recv_b

let test_qp_rate_limit_caps_throughput () =
  let w = make_world () in
  let n1, n2, cq1, cq2 = nic_pair w in
  let done_at_a = ref 0 and done_at_b = ref 0 in
  run w (fun () ->
      let qa, pa = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      let qb, pb = Nic.connect_qps ~charge_setup:false n1 n2 ~scq_a:cq1 ~rcq_a:cq1 ~scq_b:cq2 ~rcq_b:cq2 in
      let total = 200 * 4096 in
      let seen_a = ref 0 and seen_b = ref 0 in
      Nic.set_remote_sink pa (fun m ->
          seen_a := !seen_a + Sds_transport.Msg.payload_len m;
          if !seen_a = total then done_at_a := Sds_sim.Engine.now w.engine);
      Nic.set_remote_sink pb (fun m ->
          seen_b := !seen_b + Sds_transport.Msg.payload_len m;
          if !seen_b = total then done_at_b := Sds_sim.Engine.now w.engine);
      (* A shaped to 1 GB/s: 200 x 4 KiB should take >= ~800 us. *)
      Nic.set_rate_limit qa ~bytes_per_sec:1e9 ~burst_bytes:4096;
      let payload = Bytes.make 4096 'r' in
      for i = 1 to 200 do
        Nic.wait_send_capacity qa;
        Nic.write_imm qa (Msg.data (Bytes.copy payload)) ~imm:i
      done;
      for i = 1 to 200 do
        Nic.wait_send_capacity qb;
        Nic.write_imm qb (Msg.data (Bytes.copy payload)) ~imm:i
      done;
      Proc.sleep_ns 5_000_000);
  Alcotest.(check bool) "shaped flow ran at ~1 GB/s" true (!done_at_a > 700_000);
  Alcotest.(check bool) "unshaped flow much faster" true (!done_at_b < !done_at_a)

let test_host_identity () =
  let w = make_world () in
  let h1 = add_host w and h2 = add_host w in
  Alcotest.(check bool) "same host" true (Host.same_host h1 h1);
  Alcotest.(check bool) "different hosts" false (Host.same_host h1 h2);
  Alcotest.(check bool) "cores wrap" true (Host.core h1 100 == Host.core h1 (100 mod Host.num_cores h1))

let suite =
  [
    Alcotest.test_case "msg inline" `Quick test_msg_inline;
    Alcotest.test_case "msg pages" `Quick test_msg_pool;
    Alcotest.test_case "shm delivery latency" `Quick test_shm_delivery_latency;
    Alcotest.test_case "shm flow control + credit return" `Quick test_shm_flow_control;
    Alcotest.test_case "shm fifo content" `Quick test_shm_fifo_content;
    Alcotest.test_case "shm interrupt hook" `Quick test_shm_interrupt_hook;
    QCheck_alcotest.to_alcotest prop_shm_fifo_model;
    Alcotest.test_case "rdma ordering + completions" `Quick test_rdma_write_ordering_and_completion;
    Alcotest.test_case "rdma adaptive batching" `Quick test_rdma_batching_amortizes_wqes;
    Alcotest.test_case "rdma unbatched WQE per message" `Quick test_rdma_unbatched_one_wqe_per_msg;
    Alcotest.test_case "rdma qp cache pressure" `Quick test_rdma_qp_cache_pressure;
    Alcotest.test_case "rdma destroy qp" `Quick test_rdma_destroy_qp_counts;
    Alcotest.test_case "nic hairpin latency" `Quick test_hairpin_latency;
    Alcotest.test_case "lossy fabric: selective retransmission" `Quick (loss_delivery_test ~recovery:Nic.Selective);
    Alcotest.test_case "lossy fabric: go-back-N" `Quick (loss_delivery_test ~recovery:Nic.Go_back_n);
    Alcotest.test_case "loss recovery latency ordering" `Quick test_loss_latency_cost;
    Alcotest.test_case "qos: shaped flow still delivers" `Quick test_qp_rate_limit_isolation;
    Alcotest.test_case "qos: rate cap and isolation" `Quick test_qp_rate_limit_caps_throughput;
    Alcotest.test_case "host identity & cores" `Quick test_host_identity;
  ]
