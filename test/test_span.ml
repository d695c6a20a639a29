(* Sds_span: percentile interpolation fidelity, sim-path stage
   reconciliation against span.e2e, ring-path span correlation under an
   interleaved (inline / batched / descriptor) two-domain soak, the
   copy-policy visibility metrics, and the flight-recorder deadlock dump
   (watchdog fires, dump parses, state sections present). *)

module Obs = Sds_obs.Obs
module Span = Sds_obs.Span
module Flight = Sds_obs.Flight
module R = Sds_ring.Spsc_ring
module Cp = Sds_proto.Copy_policy
module Common = Sds_experiments.Common

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---- summarize_hist: log-linear interpolation within a bucket ---- *)

let test_percentile_interpolation () =
  Obs.Metrics.reset ();
  (* 1024 uniform values across one log2 bucket [1024, 2048): the old
     clamp-to-upper-edge read every percentile as 2047-ish; log-linear
     interpolation spreads them geometrically through the bucket. *)
  let h = Obs.Metrics.histogram "spantest.interp" in
  for v = 1024 to 2047 do
    Obs.Metrics.observe h v
  done;
  let s = Obs.Metrics.summarize_hist h in
  Alcotest.(check bool) "p50 sits inside the bucket (~1024*2^0.5), not at the edge" true
    (s.Obs.Metrics.hs_p50 > 1300 && s.Obs.Metrics.hs_p50 < 1600);
  Alcotest.(check bool) "p99 interpolates near (not past) the top" true
    (s.Obs.Metrics.hs_p99 > 1900 && s.Obs.Metrics.hs_p99 <= s.Obs.Metrics.hs_max);
  Alcotest.(check bool) "percentiles are ordered" true
    (s.Obs.Metrics.hs_p50 <= s.Obs.Metrics.hs_p99
    && s.Obs.Metrics.hs_p99 <= s.Obs.Metrics.hs_p999);
  (* Exact min/max clamping is kept: a single observation reads back as
     itself at every percentile. *)
  let h1 = Obs.Metrics.histogram "spantest.single" in
  Obs.Metrics.observe h1 1500;
  let s1 = Obs.Metrics.summarize_hist h1 in
  Alcotest.(check int) "single observation: p50 = the value" 1500 s1.Obs.Metrics.hs_p50;
  Alcotest.(check int) "single observation: p999 = the value" 1500 s1.Obs.Metrics.hs_p999;
  (* Low clamp: values below the bucket's interpolated point clamp to min. *)
  let h2 = Obs.Metrics.histogram "spantest.zero" in
  Obs.Metrics.observe h2 0;
  let s2 = Obs.Metrics.summarize_hist h2 in
  Alcotest.(check int) "bucket 0 reads as 0" 0 s2.Obs.Metrics.hs_p50

(* ---- sim path: stage sums reconcile with span.e2e ---- *)

let test_sim_reconciliation () =
  Obs.Metrics.reset ();
  Flight.clear ();
  let run ~hosts ~size ~rounds ~warmup =
    let w = Common.make_world () in
    Sds_sim.Engine.install_trace_clock w.Common.engine;
    Sds_sim.Engine.install_span_clock w.Common.engine;
    let a = Common.add_host w in
    let b = if hosts = 1 then a else Common.add_host w in
    ignore
      (Common.pingpong
         (module Sds_apps.Sock_api.Sds)
         w ~client_host:a ~server_host:b ~size ~rounds ~warmup)
  in
  (* Small intra-host messages (inline copy path) and large inter-host
     ones (§4.6 remap path), so every stage histogram gets traffic. *)
  run ~hosts:1 ~size:64 ~rounds:256 ~warmup:16;
  run ~hosts:2 ~size:32768 ~rounds:64 ~warmup:8;
  Span.reset_clock ();
  let s h = Obs.Metrics.summarize_hist h in
  let app = s Span.h_app
  and queue = s Span.h_queue
  and wake = s Span.h_wake
  and parse = s Span.h_parse
  and copy = s Span.h_copy
  and remap = s Span.h_remap
  and e2e = s Span.h_e2e in
  Alcotest.(check bool) "spans were observed" true (e2e.Obs.Metrics.hs_count > 0);
  Alcotest.(check bool) "both payload-landing paths ran" true
    (copy.Obs.Metrics.hs_count > 0 && remap.Obs.Metrics.hs_count > 0);
  (* Every consumed sim message observes each stage exactly once, so the
     per-message stage counts agree and copy+remap partition the total. *)
  Alcotest.(check int) "wake and parse count the same messages"
    wake.Obs.Metrics.hs_count parse.Obs.Metrics.hs_count;
  Alcotest.(check int) "copy+remap partition the consumed messages"
    wake.Obs.Metrics.hs_count
    (copy.Obs.Metrics.hs_count + remap.Obs.Metrics.hs_count);
  Alcotest.(check int) "queue and e2e count the same messages"
    queue.Obs.Metrics.hs_count e2e.Obs.Metrics.hs_count;
  (* The acceptance bar: stage sums reconcile with end-to-end within 5%.
     (By construction they are exact; the slack absorbs histogramming.) *)
  let stage_sum =
    float_of_int
      (app.Obs.Metrics.hs_sum + queue.Obs.Metrics.hs_sum + wake.Obs.Metrics.hs_sum
      + parse.Obs.Metrics.hs_sum + copy.Obs.Metrics.hs_sum + remap.Obs.Metrics.hs_sum)
  in
  let e2e_sum = float_of_int e2e.Obs.Metrics.hs_sum in
  Alcotest.(check bool)
    (Printf.sprintf "stage sums (%.0f) reconcile with e2e (%.0f) within 5%%" stage_sum e2e_sum)
    true
    (e2e_sum > 0. && Float.abs (stage_sum -. e2e_sum) <= 0.05 *. e2e_sum)

(* ---- ring path: correlation under an interleaved two-domain soak ----

   Inline singles, vectored batches and descriptor messages interleave
   through one ring; at sample shift 0 every consumed message must resolve
   to exactly one flight-recorded span with monotone stamps.  The ring is
   kept small so the in-flight window stays inside the track's 256 slots
   (a deeper ring would recycle slots before the consumer resolves them —
   the tag check would drop those, which is the documented behaviour, but
   this test pins the exactly-once regime). *)

let test_ring_soak_correlation () =
  let saved_shift = Span.sample_shift () in
  Span.set_sample_shift 0;
  Obs.Metrics.reset ();
  Flight.clear ();
  Flight.set_capacity 8192;
  let msgs = 3000 in
  let r = R.create ~size:4096 () in
  let consumer =
    Domain.spawn (fun () ->
        let dst = Bytes.create 4096 in
        let entries = Array.make 4 0 in
        let got = ref 0 in
        while !got < msgs do
          let p = R.peek_packed r in
          if p = R.no_msg then R.wait_rx r
          else begin
            if R.is_desc_packed p then ignore (R.try_dequeue_descs r ~entries)
            else ignore (R.try_dequeue_packed r ~dst ~dst_off:0);
            incr got;
            let c = R.take_credit_return r in
            if c > 0 then R.return_credits r c
          end
        done)
  in
  let buf = Bytes.make 64 'a' in
  let srcs = Array.init 4 (fun _ -> (buf, 0, 64)) in
  let descs =
    [| R.desc_entry ~page:1 ~off:0 ~len:512; R.desc_entry ~page:2 ~off:0 ~len:512 |]
  in
  let sent = ref 0 in
  while !sent < msgs do
    match !sent mod 3 with
    | 0 ->
      R.stamp_send r;
      if R.try_enqueue r buf ~off:0 ~len:64 then incr sent else R.wait_tx r ~len:64
    | 1 ->
      let want = min 4 (msgs - !sent) in
      let n = R.enqueue_batch r srcs ~pos:0 ~n:want in
      if n = 0 then R.wait_tx r ~len:64 else sent := !sent + n
    | _ ->
      if R.try_enqueue_descs r descs ~n:2 then incr sent else R.wait_tx r ~len:16
  done;
  Domain.join consumer;
  let spans =
    List.filter (fun rc -> rc.Flight.kind = Flight.kind_span) (Flight.records ())
  in
  let seqs = List.map (fun rc -> rc.Flight.a) spans in
  let sorted = List.sort Int.compare seqs in
  Alcotest.(check int) "every consumed message resolved to exactly one span" msgs
    (List.length spans);
  Alcotest.(check (list int)) "sequence numbers are exactly 0..msgs-1"
    (List.init msgs Fun.id) sorted;
  List.iter
    (fun rc ->
      let send = rc.Flight.b and pub = rc.Flight.c and deq = rc.Flight.d in
      Alcotest.(check bool) "app stage non-negative (send <= pub)" true (send <= pub);
      Alcotest.(check bool) "queue stage non-negative (pub <= deq)" true (pub <= deq);
      Alcotest.(check bool) "app + queue = e2e" true
        (pub - send + (deq - pub) = deq - send))
    spans;
  Flight.set_capacity 512;
  Span.set_sample_shift saved_shift

(* ---- copy-policy visibility: threshold gauge, switch counter, trace ---- *)

let test_copy_policy_visibility () =
  Obs.Metrics.reset ();
  Obs.Trace.clear ();
  let p = Cp.create ~mode:Cp.Adaptive () in
  let gauge name =
    match List.assoc_opt name (Obs.Metrics.snapshot ()).Obs.Metrics.gauges with
    | Some v -> v
    | None -> -1
  in
  (* Only a move publishes: creating a policy leaves every shard alone, so
     the gauge cannot depend on which domains made sockets before. *)
  Alcotest.(check int) "no gauge before the first move" 0 (gauge "copy_policy.threshold");
  (* 256 observations of threshold-sized payloads: the periodic adapt sees
     all recent bytes at >= threshold/2 and halves the crossover. *)
  for _ = 1 to 256 do
    ignore (Cp.decide p ~pool:None ~len:16384)
  done;
  Alcotest.(check int) "adapt halved the threshold" 8192 (Cp.threshold p);
  Alcotest.(check int) "gauge tracks the move" 8192 (gauge "copy_policy.threshold");
  Alcotest.(check int) "one threshold switch counted" 1
    (Obs.Metrics.counter_value "copy_policy.switches");
  let moves =
    List.filter (fun e -> e.Obs.Trace.tag = Obs.Trace.Policy_adapt) (Obs.Trace.drain ())
  in
  Alcotest.(check int) "one PolicyAdapt trace event" 1 (List.length moves);
  Alcotest.(check int) "trace event carries the new threshold" 8192
    (List.hd moves).Obs.Trace.arg

(* ---- flight recorder: deliberate deadlock -> watchdog dump -> parse ---- *)

let test_watchdog_dump () =
  let saved_shift = Span.sample_shift () in
  Span.set_sample_shift 0;
  Obs.Metrics.reset ();
  Flight.clear ();
  (* Some resolved traffic so the dump carries spans. *)
  let r = R.create ~size:4096 () in
  let dst = Bytes.create 64 in
  let payload = Bytes.make 64 'x' in
  for _ = 1 to 100 do
    R.stamp_send r;
    ignore (R.try_enqueue r payload ~off:0 ~len:64);
    ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
  done;
  (* A pool, so the pagepool state section has a live entry. *)
  let pool = Sds_vm.Pagepool.create ~pages:16 () in
  ignore (Sds_vm.Pagepool.occupancy pool);
  (* The deliberate deadlock: a consumer parked on an empty ring, and a
     progress probe that never advances. *)
  let r2 = R.create ~size:4096 () in
  let consumer =
    Domain.spawn (fun () ->
        let d = Bytes.create 64 in
        ignore (R.dequeue_packed_blocking r2 ~dst:d ~dst_off:0))
  in
  let path = Filename.temp_file "sds-flight-test" ".dump" in
  let wd =
    Flight.watchdog ~path ~reason:"deadlock" ~interval_s:0.05 ~stalls:3
      ~progress:(fun () -> 0)
      ()
  in
  let deadline = Unix.gettimeofday () +. 20. in
  let rec await () =
    match Flight.watchdog_fired wd with
    | Some p -> p
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "watchdog never fired";
      Unix.sleepf 0.02;
      await ()
  in
  let fired = await () in
  let text = In_channel.with_open_text fired In_channel.input_all in
  (* Release the parked domain before asserting, so a failure cannot hang
     the whole suite. *)
  ignore (R.try_enqueue r2 payload ~off:0 ~len:8);
  Domain.join consumer;
  Flight.watchdog_stop wd;
  let d = Flight.parse_dump text in
  Alcotest.(check string) "dump reason" "deadlock" d.Flight.d_reason;
  Alcotest.(check bool) "dump carries recent spans" true (List.length d.Flight.d_spans > 0);
  Alcotest.(check bool) "ring state section present" true
    (List.mem_assoc "ring" d.Flight.d_states);
  Alcotest.(check bool) "pagepool state section present" true
    (List.mem_assoc "pagepool" d.Flight.d_states);
  Alcotest.(check bool) "ring state shows the parked consumer" true
    (contains (List.assoc "ring" d.Flight.d_states) "rx_parked=true");
  Alcotest.(check bool) "pool state shows the live pool" true
    (contains (List.assoc "pagepool" d.Flight.d_states) "pages=16");
  Alcotest.(check bool) "metrics snapshot embedded" true
    (String.length d.Flight.d_metrics > 0);
  Sys.remove fired;
  Span.set_sample_shift saved_shift

let suite =
  [
    Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
    Alcotest.test_case "sim stage reconciliation" `Quick test_sim_reconciliation;
    Alcotest.test_case "ring soak correlation" `Quick test_ring_soak_correlation;
    Alcotest.test_case "copy-policy visibility" `Quick test_copy_policy_visibility;
    Alcotest.test_case "flight recorder deadlock dump" `Quick test_watchdog_dump;
  ]
