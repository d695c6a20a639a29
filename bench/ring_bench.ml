(* Two-domain benchmarks of the §4.2 SPSC ring: one producer Domain, one
   consumer Domain, real Atomics, real payload bytes.

   Waiting on the ring-full / ring-empty edges goes through the ring's own
   §4.4 event-notification endpoints ([Spsc_ring.wait_rx]/[wait_tx] over
   [Sds_notify.Waiter]): adaptive spin (the paper's polling mode), then an
   eventcount park woken by the peer's enqueue or credit return (the
   interrupt-mode analogue).  On a multi-core box the spin phase wins and
   the mutex is never touched; on a single time-shared core the adaptive
   budget collapses within a few waits and each side parks almost
   immediately, handing the timeslice over instead of burning it — which is
   what took the ping-pong row from ~32 µs/msg (fixed 512-spin + racy
   flag/condvar layer) to context-switch-bound low µs.

   Payload bytes are stamped with the message sequence number so the
   consumer can fold a checksum and detect torn reads; the expected value
   is recomputed arithmetically at the end. *)

module R = Sds_ring.Spsc_ring
module Rt_dom = Sds_rt.Rt_dom
module Rt_token = Sds_rt.Rt_token
module Rt_sock = Sds_rt.Rt_sock
module Rt_monitor = Sds_rt.Rt_monitor

type result = {
  name : string;
  payload : int;  (** bytes per message *)
  msgs : int;
  ns_per_msg : float;
  msgs_per_sec : float;
  mb_per_sec : float;
  ok : bool;  (** checksums matched, nothing torn *)
  missed : string option;
      (** the row's performance bar, when it was missed: what was measured
          against which target.  Kept apart from [ok], so an intact but
          slow row never reads as corrupt. *)
}

(* [None] when [measured] is within [bar], else the miss spelled out. *)
let over_bar ~what ~unit measured bar =
  if measured <= bar then None
  else Some (Printf.sprintf "%s %.2f %s over the %.2f %s bar" what measured unit bar unit)

let status r =
  match (r.ok, r.missed) with
  | false, _ -> "CHECKSUM MISMATCH"
  | true, Some why -> "BELOW TARGET: " ^ why
  | true, None -> "ok"

let pp_result r =
  Fmt.pr "%-24s %6dB %9d msgs %9.1f ns/msg %10.2f Mmsg/s %9.1f MB/s %s@." r.name r.payload
    r.msgs r.ns_per_msg (r.msgs_per_sec /. 1e6) r.mb_per_sec (status r)

(* ---- checksum folding ----

   Fold the sequence stamp back out of the first 8 payload bytes (or fewer
   for tiny payloads); any torn or reordered read breaks the running sum. *)

let stamp buf seq payload =
  if payload >= 8 then Bytes.set_int64_le buf 0 (Int64.of_int seq)
  else if payload >= 4 then Bytes.set_int32_le buf 0 (Int32.of_int seq)
  else if payload >= 1 then Bytes.set_uint8 buf 0 (seq land 0xFF)

let unstamp buf off payload =
  if payload >= 8 then Int64.to_int (Bytes.get_int64_le buf off)
  else if payload >= 4 then Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF
  else if payload >= 1 then Bytes.get_uint8 buf off
  else 0

let expected_sum msgs payload =
  let b = Bytes.create (max payload 1) in
  let acc = ref 0 in
  for seq = 0 to msgs - 1 do
    stamp b seq payload;
    acc := !acc + unstamp b 0 payload
  done;
  !acc

(* ---- cross-domain throughput ---- *)

(* Producer streams [msgs] messages of [payload] bytes through the ring to
   a consumer on another domain.  The producer uses the vectored enqueue —
   one tail publication and one credit spend per [batch] messages, the
   paper's adaptive batching — and the consumer returns credits in
   half-ring batches, as the transport does. *)
let cross_domain_throughput ?(ring_size = 1 lsl 20) ?(batch = 64) ~payload ~msgs () =
  let r = R.create ~size:ring_size () in
  let consumer_sum = ref 0 in
  let consumer_ok = ref true in
  let t0 = Unix.gettimeofday () in
  let consumer =
    Domain.spawn (fun () ->
        let dst = Bytes.create (max payload 1) in
        let got = ref 0 in
        while !got < msgs do
          let p = R.try_dequeue_packed r ~dst ~dst_off:0 in
          if p <> R.no_msg then begin
            if R.packed_len p <> payload then consumer_ok := false;
            consumer_sum := !consumer_sum + unstamp dst 0 payload;
            incr got;
            let c = R.take_credit_return r in
            (* [return_credits] notifies the ring's tx waiter itself. *)
            if c > 0 then R.return_credits r c
          end
          else R.wait_rx r
        done)
  in
  let bufs = Array.init batch (fun _ -> Bytes.create (max payload 1)) in
  let full_srcs = Array.init batch (fun i -> (bufs.(i), 0, payload)) in
  let sent = ref 0 in
  while !sent < msgs do
    let n = min batch (msgs - !sent) in
    for i = 0 to n - 1 do
      stamp bufs.(i) (!sent + i) payload
    done;
    let off = ref 0 in
    while !off < n do
      let srcs =
        if !off = 0 && n = batch then full_srcs
        else Array.init (n - !off) (fun i -> (bufs.(!off + i), 0, payload))
      in
      (* The batched enqueue notifies the rx waiter on publication. *)
      let accepted = R.enqueue_batch r srcs ~pos:0 ~n:(Array.length srcs) in
      if accepted = 0 then R.wait_tx r ~len:payload else off := !off + accepted
    done;
    sent := !sent + n
  done;
  Domain.join consumer;
  let dt = Unix.gettimeofday () -. t0 in
  let ok = !consumer_ok && !consumer_sum = expected_sum msgs payload && R.is_empty r in
  {
    name = "ring2core stream";
    payload;
    msgs;
    ns_per_msg = dt *. 1e9 /. float_of_int msgs;
    msgs_per_sec = float_of_int msgs /. dt;
    mb_per_sec = float_of_int msgs *. float_of_int payload /. dt /. 1e6;
    ok;
    missed = None;
  }

(* ---- §4.6 zero-copy stream: page-descriptor handoff vs inline copy ----

   Producer and consumer domains share a page pool next to the ring.  Per
   message the producer either stamps freshly allocated pool pages and
   publishes one page-descriptor record (ownership handoff; the consumer
   reads the stamp in place and releases the pages), or stamps a staging
   buffer and copies it inline through the ring — per the [Copy_policy]
   decision, which is what the bench's --copy-policy knob selects.  Pool
   exhaustion falls back to the inline copy (Libra's safety rule), so the
   stream never wedges on a slow consumer.  The producer additionally paces
   itself on pool occupancy below the policy's high-water mark so the
   adaptive mode is measured in its remap regime, not its pressure-backoff
   regime. *)

module Pp = Sds_vm.Pagepool
module Cp = Sds_proto.Copy_policy

(* Producer pacing hysteresis: back off when pool occupancy crosses the
   high mark, resume only once the consumer has drained it below the low
   mark.  A single threshold would leave occupancy hovering on the
   boundary and turn the stream into a one-message-per-timeslice lockstep.
   The backoff must be a real sleep, not [Thread.yield]: on a single
   shared core the scheduler keeps running a yielding spinner, starving
   the consumer it is waiting for (measured 6x on the 64 KiB row). *)
let pace_high = 0.60
let pace_low = 0.30
let pace_sleep = 20e-6

let cross_domain_stream_pool ?(ring_size = 1 lsl 18) ?(pool_pages = 8192)
    ?(mode = Cp.Adaptive) ~name ~payload ~msgs () =
  let r = R.create ~size:ring_size () in
  let pool = Pp.create ~pages:pool_pages () in
  let policy = Cp.create ~mode () in
  let npages = (payload + Pp.page_size - 1) / Pp.page_size in
  let consumer_sum = ref 0 in
  let consumer_ok = ref true in
  let t0 = Unix.gettimeofday () in
  let consumer =
    Domain.spawn (fun () ->
        let h = Pp.handle pool in
        let entries = Array.make npages 0 in
        let dst = Bytes.create payload in
        let got = ref 0 in
        while !got < msgs do
          let p = R.peek_packed r in
          if p = R.no_msg then R.wait_rx r
          else begin
            if R.is_desc_packed p then begin
              let q = R.try_dequeue_descs r ~entries in
              let n = R.desc_count_packed q in
              let e0 = entries.(0) in
              consumer_sum :=
                !consumer_sum
                + Pp.get_int_le pool (Pp.page_base (R.desc_page e0) + R.desc_off e0);
              let len = ref 0 in
              for i = 0 to n - 1 do
                len := !len + R.desc_len entries.(i);
                Pp.release h (R.desc_page entries.(i))
              done;
              if !len <> payload then consumer_ok := false
            end
            else begin
              let q = R.try_dequeue_packed r ~dst ~dst_off:0 in
              if R.packed_len q <> payload then consumer_ok := false;
              consumer_sum := !consumer_sum + unstamp dst 0 payload
            end;
            incr got;
            let c = R.take_credit_return r in
            if c > 0 then R.return_credits r c
          end
        done)
  in
  let h = Pp.handle pool in
  let entries = Array.make npages 0 in
  let staging = Bytes.create payload in
  for seq = 0 to msgs - 1 do
    (* Flow-control against the pool as well as the ring: a burst that
       drove occupancy past [Copy_policy.high_water] would flip the
       adaptive policy into pressure backoff mid-measurement. *)
    if Pp.occupancy pool > pace_high then
      while Pp.occupancy pool > pace_low do
        Unix.sleepf pace_sleep
      done;
    let zero_copy =
      Cp.decide policy ~pool:(Some pool) ~len:payload
      && begin
           (* Allocate the descriptor vector; any failure releases the
              partial run and falls back to the copy path. *)
           let ok = ref true in
           let i = ref 0 in
           while !ok && !i < npages do
             let pg = Pp.alloc h in
             if pg = Pp.no_page then begin
               for j = 0 to !i - 1 do
                 Pp.release h (R.desc_page entries.(j))
               done;
               ok := false
             end
             else begin
               let off = !i * Pp.page_size in
               entries.(!i) <-
                 R.desc_entry ~page:pg ~off:0 ~len:(min Pp.page_size (payload - off));
               incr i
             end
           done;
           !ok
         end
    in
    if zero_copy then begin
      Pp.set_int_le pool (Pp.page_base (R.desc_page entries.(0))) seq;
      while not (R.try_enqueue_descs r entries ~n:npages) do
        R.wait_tx r ~len:(npages * 8)
      done
    end
    else begin
      stamp staging seq payload;
      while not (R.try_enqueue r staging ~off:0 ~len:payload) do
        R.wait_tx r ~len:payload
      done
    end
  done;
  Domain.join consumer;
  let dt = Unix.gettimeofday () -. t0 in
  let ok =
    !consumer_ok
    && !consumer_sum = expected_sum msgs payload
    && R.is_empty r
    && Pp.free_pages pool = pool_pages
  in
  {
    name;
    payload;
    msgs;
    ns_per_msg = dt *. 1e9 /. float_of_int msgs;
    msgs_per_sec = float_of_int msgs /. dt;
    mb_per_sec = float_of_int msgs *. float_of_int payload /. dt /. 1e6;
    ok;
    missed = None;
  }

(* ---- cross-domain ping-pong ----

   One message bounces between two rings; measures the full cross-domain
   round trip (on a single-core box this is dominated by the context
   switch, which is itself worth recording). *)
let cross_domain_pingpong ?(ring_size = 1 lsl 16) ~payload ~rounds () =
  let a2b = R.create ~size:ring_size () in
  let b2a = R.create ~size:ring_size () in
  let buf_b = Bytes.create (max payload 1) in
  let responder =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          ignore (R.dequeue_packed_blocking ~auto_credit:true a2b ~dst:buf_b ~dst_off:0);
          ignore (R.try_enqueue b2a buf_b ~off:0 ~len:payload)
        done)
  in
  let buf_a = Bytes.create (max payload 1) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    (* API-entry span stamp (the Libsd.send stamp point): feeds span.app on
       the sampled messages, next to the publish stamp try_enqueue takes. *)
    R.stamp_send a2b;
    ignore (R.try_enqueue a2b buf_a ~off:0 ~len:payload);
    ignore (R.dequeue_packed_blocking ~auto_credit:true b2a ~dst:buf_a ~dst_off:0)
  done;
  Domain.join responder;
  let dt = Unix.gettimeofday () -. t0 in
  {
    name = "ring2core pingpong";
    payload;
    msgs = rounds;
    ns_per_msg = dt *. 1e9 /. float_of_int rounds;
    msgs_per_sec = float_of_int rounds /. dt;
    mb_per_sec = float_of_int rounds *. float_of_int payload /. dt /. 1e6;
    ok = true;
    missed = None;
  }

(* Stage-breakdown row derived from the ping-pong: the p99 of the §4.4
   park→wake edge ([span.wake], stamped with raw monotonic ns by the
   waiter) during the run above.  0 when the adaptive spin phase won every
   wait and nothing parked — the ratchet skips the comparison then. *)
let wake_p99_row ~payload ~rounds =
  let hs = Sds_obs.Obs.Metrics.summarize_hist Sds_obs.Span.h_wake in
  {
    name = "ring2core pingpong wake_p99";
    payload;
    msgs = hs.Sds_obs.Obs.Metrics.hs_count;
    ns_per_msg = float_of_int hs.Sds_obs.Obs.Metrics.hs_p99;
    msgs_per_sec = (if rounds > 0 then float_of_int hs.Sds_obs.Obs.Metrics.hs_count /. float_of_int rounds else 0.);
    mb_per_sec = 0.;
    ok = true;
    missed = None;
  }

(* ---- span-stamping overhead ----

   Single-domain 64B enq+deq with all three stamp points exercised
   (send, publish, dequeue-resolve), timed with spans enabled vs disabled.
   Each rep times the two modes back to back and records the difference;
   the estimate is the *median* of the paired differences, which is robust
   to the timeslice noise of a shared box (alternate-and-take-min is not:
   one quiet slice on either side skews it by several ns).  ns_per_msg is
   the overhead; the acceptance bar is <= 2 ns/msg at the default 1-in-64
   sampling. *)
let span_overhead ?(ring_size = 1 lsl 20) ?(payload = 64) ?(msgs = 200_000) ?(reps = 25) () =
  let r = R.create ~size:ring_size () in
  let src = Bytes.create payload in
  let dst = Bytes.create payload in
  let run () =
    let t0 = Unix.gettimeofday () in
    for seq = 0 to msgs - 1 do
      stamp src seq payload;
      R.stamp_send r;
      ignore (R.try_enqueue r src ~off:0 ~len:payload);
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int msgs
  in
  let was = Sds_obs.Span.enabled () in
  (* Alternate the order within each pair so slow linear drift (frequency
     scaling, a neighbour tenant ramping up) biases half the pairs one way
     and half the other, leaving the median centred. *)
  let diffs =
    Array.init reps (fun i ->
        let first_on = i land 1 = 1 in
        Sds_obs.Span.set_enabled first_on;
        let a = run () in
        Sds_obs.Span.set_enabled (not first_on);
        let b = run () in
        if first_on then a -. b else b -. a)
  in
  Sds_obs.Span.set_enabled was;
  Array.sort compare diffs;
  let overhead = diffs.(reps / 2) in
  {
    name = "ring1core span overhead";
    payload;
    msgs = reps * msgs;
    ns_per_msg = overhead;
    msgs_per_sec = 0.;
    mb_per_sec = 0.;
    ok = true;
    missed = over_bar ~what:"overhead" ~unit:"ns/msg" overhead 2.0;
  }

(* ---- heartbeat-stamp overhead ----

   The §4.3 liveness machinery taxes every fast-path operation with one
   [Rt_dom.beat] — a plain store into the slot's padded heartbeat cell.
   Same paired-median protocol as [span_overhead]: each rep times the 64B
   enq+deq loop with and without the beat, alternating order, and the
   estimate is the median paired difference.  The acceptance bar is
   <= 2 ns/msg — being watchable by the reaper must stay in store-buffer
   noise. *)
let heartbeat_overhead ?(ring_size = 1 lsl 20) ?(payload = 64) ?(msgs = 200_000) ?(reps = 25) () =
  let r = R.create ~size:ring_size () in
  let src = Bytes.create payload in
  let dst = Bytes.create payload in
  let slot = Rt_dom.self () in
  let run ~beat =
    let t0 = Unix.gettimeofday () in
    if beat then
      for seq = 0 to msgs - 1 do
        stamp src seq payload;
        Rt_dom.beat slot;
        ignore (R.try_enqueue r src ~off:0 ~len:payload);
        ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
      done
    else
      for seq = 0 to msgs - 1 do
        stamp src seq payload;
        ignore (R.try_enqueue r src ~off:0 ~len:payload);
        ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
      done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int msgs
  in
  let diffs =
    Array.init reps (fun i ->
        let first_on = i land 1 = 1 in
        let a = run ~beat:first_on in
        let b = run ~beat:(not first_on) in
        if first_on then a -. b else b -. a)
  in
  Array.sort compare diffs;
  let overhead = diffs.(reps / 2) in
  {
    name = "ring1core heartbeat overhead";
    payload;
    msgs = reps * msgs;
    ns_per_msg = overhead;
    msgs_per_sec = 0.;
    mb_per_sec = 0.;
    ok = true;
    missed = over_bar ~what:"overhead" ~unit:"ns/msg" overhead 2.0;
  }

(* ---- single-domain loopback (enq+deq on one core) ---- *)

let single_domain_throughput ?(ring_size = 1 lsl 20) ~payload ~msgs () =
  let r = R.create ~size:ring_size () in
  let src = Bytes.create (max payload 1) in
  let dst = Bytes.create (max payload 1) in
  let t0 = Unix.gettimeofday () in
  for seq = 0 to msgs - 1 do
    stamp src seq payload;
    ignore (R.try_enqueue r src ~off:0 ~len:payload);
    ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  {
    name = "ring1core enq+deq";
    payload;
    msgs;
    ns_per_msg = dt *. 1e9 /. float_of_int msgs;
    msgs_per_sec = float_of_int msgs /. dt;
    mb_per_sec = float_of_int msgs *. float_of_int payload /. dt /. 1e6;
    ok = R.is_empty r;
    missed = None;
  }

(* Batched flavour: vectored enqueue of [batch] messages, then a batched
   drain — the shape of the paper's adaptive batching fast path. *)
let single_domain_batched ?(ring_size = 1 lsl 20) ~payload ~msgs ~batch () =
  let r = R.create ~size:ring_size () in
  let srcs = Array.init batch (fun _ -> (Bytes.create (max payload 1), 0, payload)) in
  let dst = Bytes.create (max payload 1) in
  let iters = msgs / batch in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    let n = R.enqueue_batch r srcs ~pos:0 ~n:batch in
    for _ = 1 to n do
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let total = iters * batch in
  {
    name = Printf.sprintf "ring1core batch=%d" batch;
    payload;
    msgs = total;
    ns_per_msg = dt *. 1e9 /. float_of_int total;
    msgs_per_sec = float_of_int total /. dt;
    mb_per_sec = float_of_int total *. float_of_int payload /. dt /. 1e6;
    ok = R.is_empty r;
    missed = None;
  }

(* §4.5 adaptive batch sizing measured at ring level: the socket layer's
   controller ([Sds_proto.Batch_ctl], shared with the real-domain path)
   driving the vectored enqueue.  The controller rests at the initial
   budget and halves only on an observed ring-full (zero acceptance), so
   on an uncontended fully-drained ring the budget stays at 32 and this
   row must read within noise of the fixed batch=32 row next to it — the
   old always-double controller climbed to 256 and paid an L1-locality
   penalty for it. *)
let single_domain_adaptive ?(ring_size = 1 lsl 20) ~payload ~msgs () =
  let module B = Sds_proto.Batch_ctl in
  let r = R.create ~size:ring_size () in
  let srcs =
    Array.init B.max_budget (fun _ -> (Bytes.create (max payload 1), 0, payload))
  in
  let dst = Bytes.create (max payload 1) in
  let ctl = B.create () in
  let sent = ref 0 in
  let t0 = Unix.gettimeofday () in
  while !sent < msgs do
    let want = min (B.budget ctl) (msgs - !sent) in
    let attempt = if want = B.max_budget then srcs else Array.sub srcs 0 want in
    let n = R.enqueue_batch r attempt ~pos:0 ~n:want in
    B.observe ctl ~sent:n ~attempted:want ~pressure:false;
    for _ = 1 to n do
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0)
    done;
    sent := !sent + n
  done;
  let dt = Unix.gettimeofday () -. t0 in
  {
    name = "ring1core batch=adaptive";
    payload;
    msgs;
    ns_per_msg = dt *. 1e9 /. float_of_int msgs;
    msgs_per_sec = float_of_int msgs /. dt;
    mb_per_sec = float_of_int msgs *. float_of_int payload /. dt /. 1e6;
    ok = R.is_empty r;
    missed = None;
  }

(* ---- real-domain prefork data plane (§4.2 + §4.5.2 end to end) ----

   [prefork] spawns N worker domains in accept loops behind an
   [Rt_monitor] listener plus N client domains, each streaming one
   connection through the full socket stack: token-held batched sends,
   ring + pagepool transport, round-robin accept dispatch with idle-worker
   stealing.  The x1/x2/x4 rows at 64 B read aggregate message throughput;
   the 16 KiB rows exercise the descriptor (zero-copy) path through the
   same stack.

   Scaling acceptance is computed against the parallelism actually
   available — see [scaling_target]. *)

(* Workers drain each connection to EOF and hand its tokens back; a
   client sends small payloads in 32-message [send_burst]s, larger ones
   through [send]'s copy policy.  Returns the bytes the workers received,
   the connections they served and the wall time from the first
   connect. *)
let prefork ~workers ~payload ~msgs_per_conn =
  let mon = Rt_monitor.create ~workers () in
  let received = Array.make workers 0 in
  let serve index () =
    let w = Rt_monitor.register mon ~index in
    let dom = Rt_dom.self () in
    let buf = Bytes.create (max payload Rt_sock.max_inline) in
    let rec accept () =
      match Rt_monitor.accept mon ~index with
      | None -> Rt_monitor.served w
      | Some sock ->
        let rec drain () =
          let n = Rt_sock.recv sock ~dom buf ~off:0 ~len:(Bytes.length buf) in
          if n > 0 then begin
            received.(index) <- received.(index) + n;
            drain ()
          end
        in
        drain ();
        Rt_sock.release_tokens sock ~dom;
        accept ()
    in
    accept ()
  in
  let client c () =
    let dom = Rt_dom.self () in
    let buf = Bytes.make payload (Char.chr (65 + (c mod 26))) in
    let sock = Rt_monitor.connect mon ~dom in
    if payload < Sds_proto.Copy_policy.base_threshold then begin
      let entries = Array.make 32 (buf, 0, payload) in
      let sent = ref 0 in
      while !sent < msgs_per_conn do
        let n = min 32 (msgs_per_conn - !sent) in
        Rt_sock.send_burst sock ~dom entries ~n;
        sent := !sent + n
      done
    end
    else
      for _ = 1 to msgs_per_conn do
        Rt_sock.send sock ~dom buf ~off:0 ~len:payload
      done;
    Rt_sock.close sock ~dom
  in
  let servers = Array.init workers (fun index -> Rt_dom.spawn (serve index)) in
  (* Barrier: dispatch needs the full worker array before any connect. *)
  while Rt_monitor.registered mon < workers do
    Domain.cpu_relax ()
  done;
  let t0 = Sds_obs.Span.now () in
  Array.iter Domain.join (Array.init workers (fun c -> Rt_dom.spawn (client c)));
  Rt_monitor.close_listener mon;
  let served = Array.fold_left (fun n d -> n + Domain.join d) 0 servers in
  (Array.fold_left ( + ) 0 received, served, Sds_obs.Span.now () - t0)

let prefork_row ~workers ~payload ~msgs_per_conn =
  let bytes, served, elapsed_ns = prefork ~workers ~payload ~msgs_per_conn in
  let total_msgs = workers * msgs_per_conn in
  let expected_bytes = total_msgs * payload in
  let dt = float_of_int elapsed_ns /. 1e9 in
  {
    name = Printf.sprintf "ringNcore stream x%d" workers;
    payload;
    msgs = total_msgs;
    ns_per_msg = float_of_int elapsed_ns /. float_of_int total_msgs;
    msgs_per_sec = float_of_int total_msgs /. dt;
    mb_per_sec = float_of_int expected_bytes /. dt /. 1e6;
    (* Every byte exactly once, every connection served exactly once. *)
    ok = bytes = expected_bytes && served = workers;
    missed = None;
  }

(* With [c = min workers cores] truly parallel lanes, x[N] must carry
   >= 0.7 * c times the x1 throughput — on a >= 4-core box this is the
   issue's 0.7*N aggregate scaling at 4 domains.  When the box is
   oversubscribed (c < workers) every token handoff and park/unpark rides
   a scheduler round-trip whose cost grows with the number of runnable
   domains, so the ideal is discounted by a further c/workers: the bar
   becomes 0.7 * c^2/workers, i.e. "per-slice efficiency >= 0.7" on one
   core rather than a parallel-speedup claim this box cannot test. *)
let scaling_target workers =
  let c = min workers (Rt_dom.available_cores ()) in
  0.7 *. float_of_int (c * c) /. float_of_int workers

let run_prefork () =
  let worker_counts = [ 1; 2; 4 ] in
  (* Equal total message count per configuration so rows are comparable. *)
  let rows64 =
    List.map (fun w -> prefork_row ~workers:w ~payload:64 ~msgs_per_conn:(240_000 / w))
      worker_counts
  in
  let rows16k =
    List.map (fun w -> prefork_row ~workers:w ~payload:16384 ~msgs_per_conn:(6_000 / w))
      worker_counts
  in
  (* The scaling acceptance of the x2/x4 64 B rows, a bar apart from
     their integrity. *)
  let x1 = List.hd rows64 in
  let rows64 =
    List.map2
      (fun w r ->
        let ratio = r.msgs_per_sec /. x1.msgs_per_sec and target = scaling_target w in
        if w = 1 || ratio >= target then r
        else
          {
            r with
            missed =
              Some
                (Printf.sprintf "scaling: x%d carries %.2fx the x1 msgs/s, target >= %.2fx" w
                   ratio target);
          })
      worker_counts rows64
  in
  rows64 @ rows16k

(* ---- §4.2 token-takeover latency ----

   Two domains alternately operate under one [Rt_token]: each takeover is
   request → drain → release-fence → resume, timed by [Rt_token] itself
   into the token.takeover_ns histogram.  The row reports the p99.

   The 5 µs bar presumes a core per domain (the resume is one notify away
   from a spinning waiter).  On a single time-shared core every resume
   rides a scheduler wakeup — the same edge the wake_p99 row measures at
   ~8 µs — so the bar there is scheduler-bound and set accordingly. *)

let takeover_rounds = 20_000

(* Same name Rt_token registers under; the registry dedupes, so this is
   the one shared series. *)
let h_takeover_ns = Sds_obs.Obs.Metrics.histogram "token.takeover_ns"

let takeover_churn tok rounds =
  let dom = Rt_dom.self () in
  for _ = 1 to rounds do
    Rt_token.with_held tok ~dom (fun () -> ())
  done;
  (* Cooperative-hold contract: done with the token, hand it back so the
     peer's posted request is served even though we stop operating. *)
  Rt_token.release tok ~dom

let takeover_row () =
  let tok = Rt_token.create ~name:"bench" ~holder:(-1) () in
  let a = Rt_dom.spawn (fun () -> takeover_churn tok takeover_rounds) in
  let b = Rt_dom.spawn (fun () -> takeover_churn tok takeover_rounds) in
  Domain.join a;
  Domain.join b;
  let hs = Sds_obs.Obs.Metrics.summarize_hist h_takeover_ns in
  let p99 = float_of_int hs.Sds_obs.Obs.Metrics.hs_p99 in
  let bar = if Rt_dom.available_cores () >= 2 then 5_000. else 60_000. in
  {
    name = "token takeover p99";
    payload = 0;
    msgs = hs.Sds_obs.Obs.Metrics.hs_count;
    ns_per_msg = p99;
    msgs_per_sec = 0.;
    mb_per_sec = 0.;
    ok = true;
    missed =
      (if hs.Sds_obs.Obs.Metrics.hs_count = 0 then Some "no takeover recorded"
       else over_bar ~what:"p99" ~unit:"ns" p99 bar);
  }

(* ---- suites ---- *)

let payload_sizes = [ 8; 64; 512; 4096; 8192 ]

(* Scale the message count down as payloads grow so each point runs for a
   comparable wall-clock slice. *)
let msgs_for payload = max 100_000 (8_000_000 / max 1 (payload / 8))

let run_cross_domain () =
  List.map (fun payload -> cross_domain_throughput ~payload ~msgs:(msgs_for payload) ()) payload_sizes

let run_single_domain () =
  List.map (fun payload -> single_domain_throughput ~payload ~msgs:(msgs_for payload) ()) payload_sizes

(* Large-payload stream points: policy-driven descriptor handoff next to
   the forced inline copy of the same traffic, the Libra comparison the
   BENCH file tracks (zero-copy at 64 KiB must stay >= 2x the copy path). *)
let pool_points = [ (16384, 20_000); (65536, 8_000) ]

let run_stream_pool ~copy_mode () =
  List.concat_map
    (fun (payload, msgs) ->
      [
        cross_domain_stream_pool ~mode:copy_mode ~name:"ring2core stream" ~payload ~msgs ();
        cross_domain_stream_pool ~mode:Cp.Always_copy ~name:"ring2core stream copy"
          ~payload ~msgs ();
      ])
    pool_points

let run_all ?(copy_mode = Cp.Adaptive) () =
  Fmt.pr "@.== ring2core: two-domain SPSC ring data path (real Atomics, real copies) ==@.";
  let cross = run_cross_domain () in
  List.iter pp_result cross;
  Fmt.pr "-- §4.6 zero-copy stream: descriptor handoff vs inline copy (policy=%s) --@."
    (Cp.mode_to_string copy_mode);
  let pool_rows = run_stream_pool ~copy_mode () in
  List.iter pp_result pool_rows;
  (* Reset so the wake_p99 stage row reads only this ping-pong's parks. *)
  Sds_obs.Obs.Metrics.reset ();
  let pp = cross_domain_pingpong ~payload:64 ~rounds:100_000 () in
  pp_result pp;
  let wake = wake_p99_row ~payload:64 ~rounds:100_000 in
  pp_result wake;
  Fmt.pr "-- single-domain loopback for comparison --@.";
  let single = run_single_domain () in
  List.iter pp_result single;
  let batched = single_domain_batched ~payload:64 ~msgs:4_000_000 ~batch:32 () in
  pp_result batched;
  let adaptive = single_domain_adaptive ~payload:64 ~msgs:4_000_000 () in
  pp_result adaptive;
  let span_oh = span_overhead () in
  pp_result span_oh;
  let hb_oh = heartbeat_overhead () in
  pp_result hb_oh;
  Fmt.pr "-- ringNcore: real-domain prefork data plane (%d core(s) available) --@."
    (Rt_dom.available_cores ());
  let prefork = run_prefork () in
  List.iter pp_result prefork;
  let takeover = takeover_row () in
  pp_result takeover;
  let all =
    cross @ pool_rows @ [ pp; wake ] @ single
    @ [ batched; adaptive; span_oh; hb_oh ]
    @ prefork @ [ takeover ]
  in
  if List.for_all (fun r -> r.ok) all then Fmt.pr "all checksums ok@."
  else Fmt.pr "CHECKSUM FAILURES PRESENT@.";
  (match List.filter (fun r -> r.missed <> None) all with
  | [] -> ()
  | below -> Fmt.pr "%d row(s) below target@." (List.length below));
  all

(* ---- JSON emission (BENCH_ring.json) ---- *)

(* "ok" is the row's whole verdict (integrity and bar), as the ratchet
   reads it; "integrity" and "missed" say which part failed. *)
let json_of_result r =
  Printf.sprintf
    {|    {"name": %S, "payload_bytes": %d, "msgs": %d, "ns_per_msg": %.2f, "msgs_per_sec": %.0f, "mb_per_sec": %.2f, "ok": %b, "integrity": %b%s}|}
    r.name r.payload r.msgs r.ns_per_msg r.msgs_per_sec r.mb_per_sec
    (r.ok && r.missed = None)
    r.ok
    (match r.missed with Some why -> Printf.sprintf {|, "missed": %S|} why | None -> "")

(* Reference points carried in the file so the perf trajectory reads
   PR-over-PR without digging through git history: the seed's wait/notify
   path cost ~32.3 µs per ping-pong message (fixed 512-spin + racy
   flag/condvar parking); the event-notification subsystem is measured
   against it. *)
let baseline = [ ("ring2core pingpong ns_per_msg (seed)", 32263.44) ]

let write_json ~path ~micro results =
  let oc = open_out path in
  let micro_json =
    List.map
      (fun (name, ns, words) ->
        Printf.sprintf {|    {"name": %S, "ns_per_op": %.2f, "minor_words_per_op": %.3f}|} name ns
          words)
      micro
  in
  let baseline_json =
    List.map (fun (name, v) -> Printf.sprintf {|    %S: %.2f|} name v) baseline
  in
  Printf.fprintf oc
    "{\n  \"schema\": \"socksdirect-ring-bench/2\",\n  \"unix_time\": %.0f,\n  \"baseline\": {\n%s\n  },\n  \"micro\": [\n%s\n  ],\n  \"ring\": [\n%s\n  ]\n}\n"
    (Unix.time ())
    (String.concat ",\n" baseline_json)
    (String.concat ",\n" micro_json)
    (String.concat ",\n" (List.map json_of_result results));
  close_out oc;
  Fmt.pr "wrote %s@." path
