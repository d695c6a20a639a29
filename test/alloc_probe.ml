(* Standalone allocation probe: counts minor words per ring op directly via
   [Gc.minor_words], independent of Bechamel's OLS fit.

   Also proves the observability hooks are allocation-free: the instrumented
   [try_dequeue_packed] path must read 0 minor words/op with metrics and
   tracing enabled, and the raw Obs primitives (counter add, histogram
   observe, trace emit) must each read 0 as well.

   The ring rows now include the §4.4 notification hooks inline — every
   [try_enqueue] loads the rx waiter's parked flag and every auto-credit
   return loads the tx waiter's — so the 0 here also covers [notify] on an
   unparked waiter.  The dedicated notify rows pin the spin-phase waiter
   primitives themselves at 0.

   Every [measure] row but the one marked [~zero:false] is declared
   allocation-free: the probe exits 1 when one of them reads above 0
   words/op, and it runs under `dune runtest`.  The last row, a whole
   connection cycle, is printed for its promoted column. *)

(* Declared-zero rows that read above 0. *)
let failed = ref []

let measure ?(zero = true) name iters f =
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  let w1 = Gc.minor_words () in
  let per_op = (w1 -. w0) /. float_of_int iters in
  let bad = zero && per_op > 0. in
  Printf.printf "%-44s %8.4f minor words/op%s\n" name per_op (if bad then "   FAIL: declared 0" else "");
  if bad then failed := name :: !failed

let () =
  let module R = Sds_ring.Spsc_ring in
  let module Obs = Sds_obs.Obs in
  let r = R.create ~size:(1 lsl 16) () in
  let payload = Bytes.make 64 'x' in
  let dst = Bytes.create 8192 in
  let iters = 100_000 in
  Obs.Metrics.set_enabled true;
  Obs.Trace.set_enabled true;
  measure "enq + try_dequeue_packed (obs on)" iters (fun () ->
      ignore (R.try_enqueue r payload ~off:0 ~len:64);
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0));
  Obs.Metrics.set_enabled false;
  Obs.Trace.set_enabled false;
  measure "enq + try_dequeue_packed (obs off)" iters (fun () ->
      ignore (R.try_enqueue r payload ~off:0 ~len:64);
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0));
  Obs.Metrics.set_enabled true;
  Obs.Trace.set_enabled true;
  (* Span stamping on send/recv must be allocation-free even with every
     message sampled (shift 0): API-entry stamp, publish stamp, and the
     dequeue-side resolve (3 histogram observes + a flight record). *)
  let module Span = Sds_obs.Span in
  let saved_shift = Span.sample_shift () in
  Span.set_sample_shift 0;
  measure "enq + deq + span stamps (shift 0)" iters (fun () ->
      R.stamp_send r;
      ignore (R.try_enqueue r payload ~off:0 ~len:64);
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0));
  Span.set_sample_shift saved_shift;
  measure "enq + deq + span stamps (sampled)" iters (fun () ->
      R.stamp_send r;
      ignore (R.try_enqueue r payload ~off:0 ~len:64);
      ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0));
  measure ~zero:false "enq + try_dequeue (alloc)" iters (fun () ->
      ignore (R.try_enqueue r payload ~off:0 ~len:64);
      ignore (R.try_dequeue ~auto_credit:true r));
  (* Receive-side batching: one vectored enqueue of 32 records against one
     drain of them into a flat buffer, credits returned once. *)
  let batch = Array.make 32 (payload, 0, 64) in
  measure "spsc_ring drain 32 x 64 B" (iters / 32) (fun () ->
      ignore (R.enqueue_batch r batch ~pos:0 ~n:32);
      ignore (R.drain r ~dst ~dst_off:0 ~len:(32 * 64) ~max:32);
      let c = R.take_credit_return r in
      if c > 0 then R.return_credits r c);
  let c = Obs.Metrics.counter "probe.counter" in
  measure "Obs.Metrics.add" iters (fun () -> Obs.Metrics.add c 3);
  let h = Obs.Metrics.histogram "probe.hist" in
  measure "Obs.Metrics.observe" iters (fun () -> Obs.Metrics.observe h 1234);
  measure "Obs.Trace.emit_n" iters (fun () -> Obs.Trace.emit_n Obs.Trace.Batch 7);
  let module W = Sds_notify.Waiter in
  let w = W.create () in
  measure "Waiter.notify (unparked)" iters (fun () -> W.notify w);
  measure "Waiter.prepare_wait + cancel" iters (fun () ->
      ignore (W.prepare_wait w);
      W.cancel w);
  (* §4.6 zero-copy path: pool page churn and the full descriptor handoff
     (alloc, stamp, publish, dequeue, release) must also run at 0 minor
     words/op — the payload never materializes as Bytes. *)
  let module Pp = Sds_vm.Pagepool in
  let pool = Pp.create ~pages:256 () in
  let ph = Pp.handle pool in
  measure "Pagepool.alloc + release" iters (fun () ->
      let p = Pp.alloc ph in
      Pp.release ph p);
  (* Stream staging and landing: one page in from Bytes, one page back out,
     each a checked memcpy. *)
  let page_bytes = Bytes.make Pp.page_size 'p' in
  let bp = Pp.alloc ph in
  measure "Pagepool blit 4 KiB in + out" iters (fun () ->
      Pp.blit_from_bytes pool ~src:page_bytes ~src_off:0 ~page:bp ~off:0 ~len:Pp.page_size;
      Pp.blit_to_bytes pool ~page:bp ~off:0 ~dst:page_bytes ~dst_off:0 ~len:Pp.page_size);
  Pp.release ph bp;
  (* The crash-safe handoff: stage under a slot stamp, hand the page over
     to a direction id, adopt it back, release.  Hand-over, adoption and
     release are one CAS each on the page's state word. *)
  let oh = Pp.handle pool in
  Pp.set_owner oh 1;
  measure "Pagepool hand_over + try_adopt" iters (fun () ->
      let p = Pp.alloc oh in
      ignore (Pp.hand_over pool ~page:p ~from:1 ~to_:2);
      ignore (Pp.try_adopt pool ~page:p ~from:2 ~owner:1);
      Pp.release oh p);
  let send_entries = Array.make 1 0 in
  let entries = Array.make 1 0 in
  measure "desc enq + deq + handoff (obs on)" iters (fun () ->
      let p = Pp.alloc ph in
      Pp.set_int_le pool (Pp.page_base p) 0xBEEF;
      send_entries.(0) <- R.desc_entry ~page:p ~off:0 ~len:4096;
      ignore (R.try_enqueue_descs r send_entries ~n:1);
      ignore (R.try_dequeue_descs ~auto_credit:true r ~entries);
      ignore (Pp.get_int_le pool (Pp.page_base (R.desc_page entries.(0))));
      Pp.release ph (R.desc_page entries.(0)));
  (* §4.2 token same-domain fast path: one plain-field compare, no atomics,
     no closure — 0 minor words/op with obs enabled is what makes the
     uncontended real-domain data path free. *)
  let module Rt_dom = Sds_rt.Rt_dom in
  let module Rt_token = Sds_rt.Rt_token in
  let dom = Rt_dom.self () in
  let tok = Rt_token.create ~name:"probe" ~holder:dom () in
  let noop = fun () -> () in
  measure "Rt_token.with_held (fast path, obs on)" iters (fun () ->
      Rt_token.with_held tok ~dom noop);
  measure "Rt_token.acquire (held by me)" iters (fun () -> Rt_token.acquire tok ~dom);
  (* A connection that dies young: pair, 64 B each way, close both ends,
     drain both FINs.  Only the lane is registered, and it drops the
     connection when it is recycled, so nothing long-lived points at a
     finished connection: its words die in the minor heap and the promoted
     column reads about 0. *)
  let module Rt_sock = Sds_rt.Rt_sock in
  let msg = Bytes.make 64 'c' and back = Bytes.create 64 in
  let cycle () =
    let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
    Rt_sock.send a ~dom msg ~off:0 ~len:64;
    ignore (Rt_sock.recv b ~dom back ~off:0 ~len:64);
    Rt_sock.send b ~dom msg ~off:0 ~len:64;
    ignore (Rt_sock.recv a ~dom back ~off:0 ~len:64);
    Rt_sock.close a ~dom;
    Rt_sock.close b ~dom;
    ignore (Rt_sock.recv a ~dom back ~off:0 ~len:64);
    ignore (Rt_sock.recv b ~dom back ~off:0 ~len:64)
  in
  for _ = 1 to 1_000 do
    cycle ()
  done;
  let cycles = 20_000 in
  let minor0, promoted0, _ = Gc.counters () in
  for _ = 1 to cycles do
    cycle ()
  done;
  let minor1, promoted1, _ = Gc.counters () in
  let per x0 x1 = (x1 -. x0) /. float_of_int cycles in
  Printf.printf "%-44s %8.4f minor words/op %8.4f promoted words/op\n"
    "Rt_sock pair + close cycle" (per minor0 minor1) (per promoted0 promoted1);
  match !failed with
  | [] -> ()
  | rows ->
    Printf.printf "alloc_probe: %d row(s) declared 0 words/op allocate: %s\n" (List.length rows)
      (String.concat ", " (List.rev rows));
    exit 1
