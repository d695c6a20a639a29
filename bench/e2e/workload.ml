(* The four socket workloads, driven through the public real-domain API
   only: [Rt_monitor.create/register/connect/accept/close_listener] and
   [Rt_sock.send/send_burst/recv/close].

   One process, two domains: the main domain is the client, one
   [Rt_dom.spawn]ed worker is registered as worker 0 of the listener, and
   at most one connection is open at a time.  Every message is a seeded,
   stamped [Payload] that its receiver checks.

   A run sets up the stack [setup_trials] times (the last set-up stays up
   for the measurement), warms up, and measures one window.  A traced run
   measures an untraced window and then a traced one, each after its own
   warm-up, so the tracing overhead comes from the same process; the
   per-layer numbers come from the traced window only. *)

module Rt_sock = Sds_rt.Rt_sock
module Rt_monitor = Sds_rt.Rt_monitor
module Rt_dom = Sds_rt.Rt_dom
module Obs = Sds_obs.Obs

external maxrss_kb : unit -> int = "sdbench_maxrss_kb" [@@noalloc]

let now = Sds_obs.Span.monotonic_ns
let ns_of_s s = int_of_float (s *. 1e9)

type kind = Rpc_small | Stream_small | Stream_16k | Conn_churn

let kinds =
  [
    ("rpc_small", Rpc_small);
    ("stream_small", Stream_small);
    ("stream_16k", Stream_16k);
    ("conn_churn", Conn_churn);
  ]

let small = 64
let large = 16 * 1024
let burst = 32
let setup_trials = 25

(* Receive buffer: one inline record, or one whole descriptor record. *)
let rbuf_size = max Rt_sock.max_inline (Rt_sock.max_desc_per_record * Sds_vm.Pagepool.page_size)

(* Messages per client call, and payload bytes delivered per operation
   (an rpc or churn operation delivers the request and its echo). *)
let msgs_per_call = function Stream_small -> burst | _ -> 1

let bytes_per_op = function
  | Rpc_small | Conn_churn -> 2 * small
  | Stream_small -> small
  | Stream_16k -> large

(* ---- the worker domain ------------------------------------------------ *)

type mode = Echo | Sink

(* Written by the client before each [Rt_monitor.connect] and read by the
   worker right after the matching [accept]: the backlog mutex inside the
   monitor orders the two, so plain fields suffice. *)
type ctl = {
  mutable mode : mode;
  mutable size : int;
  mutable first_seq : int;
  mutable traced : bool;
}

(* What the worker records, split by window kind (index 0 untraced, 1
   traced).  Only worker domains write it, one after another; the client
   reads it after the last [Domain.join]. *)
type side = {
  mutable msgs : int;
  mutable failed : int;
  mutable first_error : string;
  mutable recv_calls : int;
  recv_ns : Samples.t;
  accept_ns : Samples.t;
}

let new_side () =
  {
    msgs = 0;
    failed = 0;
    first_error = "";
    recv_calls = 0;
    recv_ns = Samples.create (1 lsl 16);
    accept_ns = Samples.create (1 lsl 16);
  }

let side_fail (s : side) msg =
  s.failed <- s.failed + 1;
  if s.first_error = "" then s.first_error <- msg

(* Large messages get a full body comparison on one in eight; every
   message gets its head and tail stamps checked. *)
let full_check gen seq = Payload.size gen = small || seq land 7 = 0

(* The connection is a byte stream: a message may arrive in several
   records (a 16 KiB send falls back to 8 KiB inline records when the
   staging pool is exhausted), so messages are reassembled at the front of
   [buf] before they are checked.  EOF inside a message is a short read. *)
let serve_conn ~ctl ~sides ~small_rx ~large_rx ~dom ~buf s =
  let mode = ctl.mode and traced = ctl.traced in
  let gen = if ctl.size = large then large_rx else small_rx in
  let size = Payload.size gen in
  let expect = ref ctl.first_seq and have = ref 0 in
  (* Receive timing is taken on the side that waits for the workload's
     payload: here for the streams, on the client for echoed replies. *)
  let timed = traced && mode = Sink in
  let message side =
    side.msgs <- side.msgs + 1;
    let seq = !expect in
    if Payload.check gen buf ~off:0 ~len:size ~seq ~full:(full_check gen seq) then expect := seq + 1
    else begin
      side_fail side (Printf.sprintf "worker: message %d failed its check" seq);
      expect := Payload.seq_of buf 0 + 1
    end;
    if mode = Echo then Rt_sock.send s ~dom buf ~off:0 ~len:size;
    have := !have - size;
    if !have > 0 then Bytes.blit buf size buf 0 !have
  in
  let rec go () =
    let t = if timed then now () else 0 in
    let n = Rt_sock.recv s ~dom buf ~off:!have ~len:rbuf_size in
    let in_trace = if n > 0 then Payload.traced_of buf 0 else traced in
    let side = sides.(Bool.to_int in_trace) in
    side.recv_calls <- side.recv_calls + 1;
    if n > 0 then begin
      if timed && in_trace then Samples.add side.recv_ns (now () - t);
      have := !have + n;
      while !have >= size do
        message side
      done;
      go ()
    end
    else if !have > 0 then side_fail side (Printf.sprintf "worker: EOF %d bytes into a message" !have)
  in
  (try go () with e -> side_fail sides.(0) ("worker: " ^ Printexc.to_string e));
  try Rt_sock.close s ~dom with e -> side_fail sides.(0) ("worker close: " ^ Printexc.to_string e)

let worker ~mon ~ctl ~sides ~small_rx ~large_rx () =
  ignore (Rt_monitor.register mon ~index:0);
  let dom = Rt_dom.self () in
  (* Room for a partial message plus one more whole record. *)
  let buf = Bytes.create (large + rbuf_size) in
  let rec loop () =
    let t = now () in
    match Rt_monitor.accept mon ~index:0 with
    | None -> ()
    | Some s ->
      if ctl.traced then Samples.add sides.(1).accept_ns (now () - t);
      serve_conn ~ctl ~sides ~small_rx ~large_rx ~dom ~buf s;
      loop ()
  in
  loop ()

(* ---- the client (main domain) ----------------------------------------- *)

type client = {
  kind : kind;
  dom : int;
  ctl : ctl;
  tx_small : Payload.t;
  tx_large : Payload.t;
  srcs : (Bytes.t * int * int) array;  (** burst entries: template i at slot i *)
  rbuf : Bytes.t;
  mutable seq : int;
  mutable sent : int;  (** messages sent to the worker: the attempted count *)
  mutable failed : int;
  mutable first_error : string;
  mutable timing : bool;  (** inside a traced window *)
  mutable recv_calls : int;
  lat : Samples.t;  (** every call of the window *)
  slice_lat : Samples.t;  (** the calls of the current slice *)
  send_ns : Samples.t;
  recv_ns : Samples.t;
  connect_ns : Samples.t;
  close_ns : Samples.t;
}

let fail c msg =
  c.failed <- c.failed + 1;
  if c.first_error = "" then c.first_error <- msg

let connect c mon ~traced mode size =
  c.ctl.mode <- mode;
  c.ctl.size <- size;
  c.ctl.first_seq <- c.seq;
  c.ctl.traced <- traced;
  if c.timing then begin
    let t = now () in
    let s = Rt_monitor.connect mon ~dom:c.dom in
    Samples.add c.connect_ns (now () - t);
    s
  end
  else Rt_monitor.connect mon ~dom:c.dom

let send_one c s gen =
  let seq = c.seq in
  c.seq <- seq + 1;
  c.sent <- c.sent + 1;
  let b = Payload.stamp gen seq ~traced:c.timing in
  if c.timing then begin
    let t = now () in
    Rt_sock.send s ~dom:c.dom b ~off:0 ~len:(Payload.size gen);
    Samples.add c.send_ns (now () - t)
  end
  else Rt_sock.send s ~dom:c.dom b ~off:0 ~len:(Payload.size gen);
  seq

let recv_reply c s seq =
  let t = if c.timing then now () else 0 in
  let n = Rt_sock.recv s ~dom:c.dom c.rbuf ~off:0 ~len:rbuf_size in
  if c.timing then Samples.add c.recv_ns (now () - t);
  c.recv_calls <- c.recv_calls + 1;
  if not (Payload.check c.tx_small c.rbuf ~off:0 ~len:n ~seq ~full:true) then
    fail c (Printf.sprintf "client: reply %d failed its check (got %d bytes)" seq n)

let rpc_op c s = recv_reply c s (send_one c s c.tx_small)

let burst_op c s =
  let first = c.seq in
  for i = 0 to burst - 1 do
    ignore (Payload.stamp c.tx_small (first + i) ~traced:c.timing)
  done;
  c.seq <- first + burst;
  c.sent <- c.sent + burst;
  if c.timing then begin
    let t = now () in
    Rt_sock.send_burst s ~dom:c.dom c.srcs ~n:burst;
    Samples.add c.send_ns (now () - t)
  end
  else Rt_sock.send_burst s ~dom:c.dom c.srcs ~n:burst

(* Close our end, then drain the worker's FIN: the connection is finished
   on both sides when this returns. *)
let finish c s =
  if c.timing then begin
    let t = now () in
    Rt_sock.close s ~dom:c.dom;
    Samples.add c.close_ns (now () - t)
  end
  else Rt_sock.close s ~dom:c.dom;
  let n = Rt_sock.recv s ~dom:c.dom c.rbuf ~off:0 ~len:rbuf_size in
  c.recv_calls <- c.recv_calls + 1;
  if n <> 0 then fail c (Printf.sprintf "client: %d bytes where EOF was due" n)

let churn_op c mon =
  let s = connect c mon ~traced:c.timing Echo small in
  rpc_op c s;
  finish c s

(* Run [op] until [until]; returns the number of calls.  In a measured
   window every call's duration is a latency sample. *)
let drive c ~until ~record op =
  let t = ref (now ()) and calls = ref 0 in
  while !t < until do
    op ();
    let t' = now () in
    if record then begin
      Samples.add c.lat (t' - !t);
      Samples.add c.slice_lat (t' - !t)
    end;
    t := t';
    incr calls
  done;
  !calls

(* ---- measured windows ------------------------------------------------- *)

type obs_snap = {
  counters : (string * int) list;
  hists : (string * (int array * int * int)) list;  (** buckets, count, sum *)
}

let obs_snapshot () =
  let s = Obs.Metrics.snapshot () in
  {
    counters = s.counters;
    hists = List.map (fun (n, (h : Obs.Metrics.hist_summary)) -> (n, (h.hs_buckets, h.hs_count, h.hs_sum))) s.histograms;
  }

type window = {
  ops : int;
  ops_per_s : float;  (** best-quarter mean over the window's slices *)
  cpu_us_per_op : float;  (** best-quarter mean over the window's slices *)
  lat_p50_ns : float;  (** best-quarter mean of the slices' medians *)
  rss_kb : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
  client_recv_calls : int;
  obs : (obs_snap * obs_snap) option;  (** traced windows only *)
}

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* The window is cut into quarter-second slices; rates, CPU per operation
   and median latency are each the mean of the best quarter of the slices
   ([Samples.best_quarter_mean]), so bursts of contention from other
   tenants of the host do not decide the result. *)
let slice_s = 0.25

let window c ~traced ~seconds op =
  Samples.clear c.lat;
  let obs0 = if traced then Some (obs_snapshot ()) else None in
  let gc0 = Gc.quick_stat () in
  let rc0 = c.recv_calls in
  let slices = max 1 (int_of_float (Float.round (seconds /. slice_s))) in
  let slice_ns = ns_of_s seconds / slices in
  c.timing <- traced;
  let t0 = now () in
  let ops = ref 0 and rates = ref [] and cpus = ref [] and p50s = ref [] in
  for i = 1 to slices do
    Samples.clear c.slice_lat;
    let t = now () and cpu = cpu_s () in
    let n = drive c ~until:(t0 + (i * slice_ns)) ~record:true op * msgs_per_call c.kind in
    let t' = now () and cpu' = cpu_s () in
    rates := (float_of_int n /. (float_of_int (t' - t) /. 1e9)) :: !rates;
    cpus := ((cpu' -. cpu) *. 1e6 /. float_of_int (max 1 n)) :: !cpus;
    if Samples.count c.slice_lat > 0 then p50s := Samples.percentile (Samples.sorted c.slice_lat) 0.5 :: !p50s;
    ops := !ops + n
  done;
  c.timing <- false;
  let rss_kb = maxrss_kb () in
  let gc1 = Gc.quick_stat () in
  {
    ops = !ops;
    ops_per_s = Samples.best_quarter_mean ~higher:true !rates;
    cpu_us_per_op = Samples.best_quarter_mean ~higher:false !cpus;
    lat_p50_ns = Samples.best_quarter_mean ~higher:false !p50s;
    rss_kb;
    gc0;
    gc1;
    client_recv_calls = c.recv_calls - rc0;
    obs = Option.map (fun o0 -> (o0, obs_snapshot ())) obs0;
  }

(* One warm-up plus one measured window.  Rpc and stream windows run on
   one connection opened before the warm-up, so its rings and pools are
   warm when measuring starts. *)
let phase c mon ~traced ~warm ~seconds =
  match c.kind with
  | Conn_churn ->
    let op () = churn_op c mon in
    ignore (drive c ~until:(now () + ns_of_s warm) ~record:false op);
    window c ~traced ~seconds op
  | Rpc_small | Stream_small | Stream_16k ->
    let s, op =
      match c.kind with
      | Stream_small ->
        (* Bursts start on a template boundary, so entry i is template i. *)
        c.seq <- (c.seq + burst - 1) / burst * burst;
        let s = connect c mon ~traced Sink small in
        (s, fun () -> burst_op c s)
      | Stream_16k ->
        let s = connect c mon ~traced Sink large in
        (s, fun () -> ignore (send_one c s c.tx_large))
      | Rpc_small | Conn_churn ->
        let s = connect c mon ~traced Echo small in
        (s, fun () -> rpc_op c s)
    in
    ignore (drive c ~until:(now () + ns_of_s warm) ~record:false op);
    let w = window c ~traced ~seconds op in
    finish c s;
    w

(* ---- a whole run ------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  e2e : metric list;  (** from the untraced window *)
  layers : metric list;  (** from the traced window; empty when untraced *)
  extra : metric list;  (** printed, not part of the reported set *)
  attempted : int;
  failed : int;
  errors : string list;
}

let m name value unit_ = { name; value; unit_ }
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let us ns = ns /. 1e3

let assoc_or0 k l = match List.assoc_opt k l with Some v -> v | None -> 0

let e2e_metrics c w ~setup_s =
  [
    m "ops_per_s" w.ops_per_s "ops/s";
    m "goodput_mb_s" (w.ops_per_s *. float_of_int (bytes_per_op c.kind) /. 1e6) "MB/s";
    m "lat_p50_us" (us w.lat_p50_ns) "us";
    m "cpu_us_per_op" w.cpu_us_per_op "us/op";
    m "peak_rss_mb" (float_of_int w.rss_kb *. 1024. /. 1e6) "MB";
    m "setup_s" setup_s "s";
  ]

let layer_metrics c w ~(side : side) ~untraced_ops_per_s ~pages_in_use_end ~fail_ratio ~kernel_rtt_us
    ~kernel_mb_s =
  let o0, o1 = match w.obs with Some p -> p | None -> invalid_arg "layer_metrics: untraced window" in
  let cnt name = assoc_or0 name o1.counters - assoc_or0 name o0.counters in
  let hist name =
    match (List.assoc_opt name o0.hists, List.assoc_opt name o1.hists) with
    | Some (b0, c0, s0), Some (b1, c1, s1) -> (Array.map2 ( - ) b1 b0, c1 - c0, s1 - s0)
    | _ -> ([||], 0, 0)
  in
  let hp name p =
    let bk, _, _ = hist name in
    Samples.bucket_percentile bk p
  in
  let sp s p = Samples.percentile (Samples.sorted s) p in
  (* Each operation sends exactly one message to the worker, so time spent
     in send calls per message divides by [ops]. *)
  let ops = w.ops in
  let desc = cnt "rt.desc_sends" and fallbacks = cnt "rt.pool_fallbacks" in
  let spins = cnt "notify.spin_wins" and parks = cnt "notify.parks" in
  let enq = cnt "ring.enqueues" and full = cnt "ring.full_events" in
  let _, batch_calls, batch_msgs = hist "ring.batch_size" in
  let gc f = f w.gc1 -. f w.gc0 in
  let recv_ns = if Samples.count c.recv_ns > 0 then c.recv_ns else side.recv_ns in
  [
    (* The tail of the client-call latency over the whole traced window;
       too bimodal on the streams to carry a regression bound. *)
    m "lat_p99_us" (us (sp c.lat 0.99)) "us";
    m "rt_monitor.connect_us_p50" (us (sp c.connect_ns 0.5)) "us";
    m "rt_monitor.connect_us_p99" (us (sp c.connect_ns 0.99)) "us";
    m "rt_monitor.accept_wait_us_p50" (us (sp side.accept_ns 0.5)) "us";
    m "monitor.dispatch.rr" (float_of_int (cnt "monitor.dispatch.rr")) "count";
    m "monitor.dispatch.steals" (float_of_int (cnt "monitor.dispatch.steals")) "count";
    m "rt_sock.send_us_p50" (us (sp c.send_ns 0.5)) "us";
    m "rt_sock.send_us_p99" (us (sp c.send_ns 0.99)) "us";
    m "rt_sock.send_ns_per_msg" (ratio (Samples.sum c.send_ns) ops) "ns";
    m "rt_sock.recv_us_p50" (us (sp recv_ns 0.5)) "us";
    m "rt_sock.recv_us_p99" (us (sp recv_ns 0.99)) "us";
    m "rt_sock.recv_calls_per_op" (ratio (w.client_recv_calls + side.recv_calls) ops) "calls/op";
    m "rt_sock.close_us_p50" (us (sp c.close_ns 0.5)) "us";
    m "rt.desc_sends" (float_of_int desc) "count";
    m "rt.pool_fallbacks" (float_of_int fallbacks) "count";
    m "rt.desc_share" (ratio desc (cnt "rt.sends")) "ratio";
    m "rt.pool_fallback_ratio" (ratio fallbacks (desc + fallbacks)) "ratio";
    m "token.handoffs" (float_of_int (cnt "token.handoffs")) "count";
    m "token.direct_takes" (float_of_int (cnt "token.direct_takes")) "count";
    m "token.seized_dead" (float_of_int (cnt "token.seized_dead")) "count";
    m "token.takeover_ns_p99" (hp "token.takeover_ns" 0.99) "ns";
    m "notify.spin_wins" (float_of_int spins) "count";
    m "notify.parks" (float_of_int parks) "count";
    m "notify.wakes" (float_of_int (cnt "notify.wakes")) "count";
    m "notify.wait_timeouts" (float_of_int (cnt "notify.wait_timeouts")) "count";
    m "notify.parks_per_op" (ratio parks ops) "parks/op";
    m "notify.spin_win_ratio" (ratio spins (spins + parks)) "ratio";
    m "notify.wake_latency_ns_p50" (hp "notify.wake_latency_ns" 0.5) "ns";
    m "notify.wake_latency_ns_p99" (hp "notify.wake_latency_ns" 0.99) "ns";
    m "ring.enqueues" (float_of_int enq) "count";
    m "ring.batches" (float_of_int (cnt "ring.batches")) "count";
    m "ring.full_events" (float_of_int full) "count";
    m "ring.credit_returns" (float_of_int (cnt "ring.credit_returns")) "count";
    m "ring.msgs_per_batch" (ratio batch_msgs batch_calls) "msgs/batch";
    m "ring.full_ratio" (ratio full (enq + full)) "ratio";
    m "ring.batch_size_p50" (hp "ring.batch_size" 0.5) "msgs";
    m "pool.allocs" (float_of_int (cnt "pool.allocs")) "count";
    m "pool.releases" (float_of_int (cnt "pool.releases")) "count";
    m "pool.refills" (float_of_int (cnt "pool.refills")) "count";
    m "pool.spills" (float_of_int (cnt "pool.spills")) "count";
    m "pool.exhausted" (float_of_int (cnt "pool.exhausted")) "count";
    m "pool.refill_ratio" (ratio (cnt "pool.refills") (cnt "pool.allocs")) "ratio";
    m "pool.pages_in_use_end" (float_of_int pages_in_use_end) "pages";
    m "span.queue_ns_p50" (hp "span.queue" 0.5) "ns";
    m "span.queue_ns_p99" (hp "span.queue" 0.99) "ns";
    m "span.wake_ns_p50" (hp "span.wake" 0.5) "ns";
    m "span.wake_ns_p99" (hp "span.wake" 0.99) "ns";
    m "gc.minor_words_per_op" (gc (fun g -> g.Gc.minor_words) /. float_of_int (max 1 ops)) "words/op";
    m "gc.promoted_words_per_op" (gc (fun g -> g.Gc.promoted_words) /. float_of_int (max 1 ops)) "words/op";
    m "gc.minor_collections" (gc (fun g -> float_of_int g.Gc.minor_collections)) "count";
    m "gc.major_collections" (gc (fun g -> float_of_int g.Gc.major_collections)) "count";
    m "trace.overhead_pct" (100. *. (1. -. (w.ops_per_s /. untraced_ops_per_s))) "%";
    m "host.kernel_rtt_us_p50" kernel_rtt_us "us";
    m "host.kernel_stream_mb_s" kernel_mb_s "MB/s";
    m "host.cores" (float_of_int (Rt_dom.available_cores ())) "count";
    m "fail_ratio" fail_ratio "ratio";
  ]

let run ~kind ~seed ~seconds ~traced =
  (* Warm-up and each kernel canary last 2 s of a 15 s run, in proportion
     for other lengths. *)
  let aux = Float.min 2. (seconds *. 2. /. 15.) in
  let dom = Rt_dom.self () in
  let tx_small = Payload.create ~seed ~size:small ~slots:burst in
  let tx_large = Payload.create ~seed ~size:large ~slots:4 in
  (* The worker checks against its own copy of the templates. *)
  let small_rx = Payload.create ~seed ~size:small ~slots:burst in
  let large_rx = Payload.create ~seed ~size:large ~slots:4 in
  let ctl = { mode = Echo; size = small; first_seq = 0; traced = false } in
  let sides = [| new_side (); new_side () |] in
  let c =
    {
      kind;
      dom;
      ctl;
      tx_small;
      tx_large;
      srcs = Array.init burst (fun i -> (Payload.template tx_small i, 0, small));
      rbuf = Bytes.create rbuf_size;
      seq = 0;
      sent = 0;
      failed = 0;
      first_error = "";
      timing = false;
      recv_calls = 0;
      lat = Samples.create (1 lsl 20);
      slice_lat = Samples.create 4096;
      send_ns = Samples.create (1 lsl 16);
      recv_ns = Samples.create (1 lsl 16);
      connect_ns = Samples.create (1 lsl 16);
      close_ns = Samples.create (1 lsl 16);
    }
  in
  (* Set-up: listener, worker spawn + register, connect, first verified
     round trip — [setup_trials] times, reporting the median; every
     set-up but the last is torn down again. *)
  let setup () =
    let t0 = now () in
    let mon = Rt_monitor.create ~workers:1 () in
    let w = Rt_dom.spawn (worker ~mon ~ctl ~sides ~small_rx ~large_rx) in
    while Rt_monitor.registered mon < 1 do
      Domain.cpu_relax ()
    done;
    let s = connect c mon ~traced:false Echo small in
    rpc_op c s;
    let dt = now () - t0 in
    finish c s;
    (mon, w, float_of_int dt /. 1e9)
  in
  let teardown (mon, w) =
    Rt_monitor.close_listener mon;
    Domain.join w
  in
  let setup_times = ref [] and live = ref None in
  for i = 1 to setup_trials do
    let mon, w, dt = setup () in
    setup_times := dt :: !setup_times;
    if i < setup_trials then teardown (mon, w) else live := Some (mon, w)
  done;
  let live = Option.get !live in
  let setup_s = Samples.median !setup_times in
  let untraced_s = if traced then seconds /. 3. else seconds in
  let wu = phase c (fst live) ~traced:false ~warm:aux ~seconds:untraced_s in
  let e2e = e2e_metrics c wu ~setup_s in
  let wt =
    if traced then Some (phase c (fst live) ~traced:true ~warm:aux ~seconds:(seconds -. untraced_s))
    else None
  in
  let lat_samples = Samples.count c.lat in
  teardown live;
  (* Every message sent reached the worker's checks, and no staging page is
     still held once every connection is closed. *)
  let delivered = sides.(0).msgs + sides.(1).msgs in
  if delivered <> c.sent then fail c (Printf.sprintf "%d messages sent, %d delivered" c.sent delivered);
  let pages_in_use_end = assoc_or0 "pool.pages_in_use" (Obs.Metrics.snapshot ()).gauges in
  if kind = Stream_16k && pages_in_use_end <> 0 then
    fail c (Printf.sprintf "%d pool pages still in use after close" pages_in_use_end);
  let failed = c.failed + sides.(0).failed + sides.(1).failed in
  let attempted = max 1 c.sent in
  let fail_ratio = float_of_int failed /. float_of_int attempted in
  let layers =
    match wt with
    | None -> []
    | Some wt ->
      let kernel_rtt_us = Canary.rtt_us ~seconds:aux in
      let kernel_mb_s = Canary.stream_mb_s ~seconds:aux in
      layer_metrics c wt ~side:sides.(1)
        ~untraced_ops_per_s:wu.ops_per_s
        ~pages_in_use_end ~fail_ratio ~kernel_rtt_us ~kernel_mb_s
  in
  {
    e2e;
    layers;
    extra =
      m "lat_samples" (float_of_int lat_samples) "count"
      :: (if traced then [] else [ m "fail_ratio" fail_ratio "ratio" ]);
    attempted;
    failed;
    errors = List.filter (( <> ) "") [ c.first_error; sides.(0).first_error; sides.(1).first_error ];
  }
