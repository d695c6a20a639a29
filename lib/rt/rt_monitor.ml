(* Real-domain monitor: the §4.5.2 prefork accept path on actual domains.

   Connection dispatch goes through the same [Sds_proto.Dispatch_core]
   policy as the simulator's monitor: round-robin over workers with
   per-worker backlog capacity, and idle workers stealing from the longest
   sibling backlog.  The mechanics differ — per-worker backlogs are
   mutex-guarded queues with an atomic length mirror so the dispatcher and
   stealers can size up backlogs without taking every lock, and parked
   workers are woken through their [Rt_dom] waiter.

   Lifecycle: create a listener sized for [n] workers, have each worker
   domain [register] itself (the caller barriers on [registered] before
   connecting), then [connect] from client domains and [accept] from
   workers until [close_listener]. *)

module D = Sds_proto.Dispatch_core
module Waiter = Sds_notify.Waiter
module Obs = Sds_obs.Obs

(* Same counters as the simulator monitor: [Obs.Metrics] dedupes by name,
   so both backends' dispatchers feed one series. *)
let m_dispatch_rr = Obs.Metrics.counter "monitor.dispatch.rr"
let m_dispatch_steals = Obs.Metrics.counter "monitor.dispatch.steals"
let h_dispatch_backlog = Obs.Metrics.histogram "monitor.dispatch.backlog"

type worker = {
  w_slot : int;  (** the worker domain's {!Rt_dom} slot *)
  w_epoch : int;  (** that slot's epoch at registration (liveness stamp) *)
  w_backlog : Rt_sock.t Queue.t;  (** guarded by [w_mu] *)
  w_mu : Mutex.t;
  w_pending : int Atomic.t;  (** lock-free [Queue.length] mirror *)
  mutable w_served : int;  (** worker-written *)
  mutable w_stolen : int;  (** worker-written *)
}

type t = {
  l_workers : worker option array;
  l_registered : int Atomic.t;
  l_capacity : int;  (** per-worker backlog bound *)
  l_mu : Mutex.t;  (** guards [l_rr] and registration *)
  mutable l_rr : int;
  l_closing : bool Atomic.t;
  l_accepted : int Atomic.t;
  l_ring_size : int;
}

let listener ?(ring_size = 64 * 1024) ?(capacity = 128) ~workers () =
  if workers < 1 then invalid_arg "Rt_monitor.listener";
  {
    l_workers = Array.make workers None;
    l_registered = Atomic.make 0;
    l_capacity = capacity;
    l_mu = Mutex.create ();
    l_rr = 0;
    l_closing = Atomic.make false;
    l_accepted = Atomic.make 0;
    l_ring_size = ring_size;
  }

let workers t = Array.length t.l_workers
let registered t = Atomic.get t.l_registered
let accepted t = Atomic.get t.l_accepted

(* Called from the worker's own domain; worker index [i] is fixed by the
   caller so dispatch order is stable regardless of registration races.

   A replacement worker may re-register the index of a *dead* predecessor
   (the restart path after a crash or a reap): the dead worker's
   undrained backlog transfers to the replacement so no dispatched
   connection is orphaned.  Re-registering a live index still raises. *)
let register t ~index =
  let slot = Rt_dom.self () in
  let w =
    {
      w_slot = slot;
      w_epoch = Rt_dom.epoch slot;
      w_backlog = Queue.create ();
      w_mu = Mutex.create ();
      w_pending = Atomic.make 0;
      w_served = 0;
      w_stolen = 0;
    }
  in
  Mutex.lock t.l_mu;
  (match t.l_workers.(index) with
  | Some old when Rt_dom.alive_at old.w_slot ~epoch:old.w_epoch ->
    Mutex.unlock t.l_mu;
    invalid_arg "Rt_monitor.register: index taken"
  | Some old ->
    (* Inherit the dead predecessor's backlog (poisoned connections are
       dropped on the floor here; live ones get served). *)
    Mutex.lock old.w_mu;
    Queue.iter
      (fun s ->
        if not (Rt_sock.poisoned s) then begin
          Queue.push s w.w_backlog;
          Atomic.incr w.w_pending
        end)
      old.w_backlog;
    Queue.clear old.w_backlog;
    Atomic.set old.w_pending 0;
    Mutex.unlock old.w_mu;
    t.l_workers.(index) <- Some w;
    Mutex.unlock t.l_mu
  | None ->
    t.l_workers.(index) <- Some w;
    Mutex.unlock t.l_mu;
    Atomic.incr t.l_registered);
  w

let worker_exn t i =
  match t.l_workers.(i) with
  | Some w -> w
  | None -> invalid_arg "Rt_monitor: worker not registered"

let pending t i = Atomic.get (worker_exn t i).w_pending
let served w = w.w_served
let stolen w = w.w_stolen

let notify_worker w = Waiter.notify (Rt_dom.waiter w.w_slot)

(* ---- dispatch (client side) ---- *)

(* Round-robin pick with capacity bound, like the sim monitor's
   [dispatch]; when every backlog is at capacity we sleep-retry (no wakeup
   edge exists from worker pops back to connecting clients). *)
let rec pick_worker t =
  Mutex.lock t.l_mu;
  let n = Array.length t.l_workers in
  let r =
    D.pick ~n ~rr:t.l_rr
      ~length:(fun i -> Atomic.get (worker_exn t i).w_pending)
      ~capacity:(fun _ -> t.l_capacity)
  in
  (match r with Some i -> t.l_rr <- (i + 1) mod n | None -> ());
  Mutex.unlock t.l_mu;
  match r with
  | Some i -> worker_exn t i
  | None ->
    Unix.sleepf 0.0002;
    pick_worker t

let connect t ~dom =
  if Atomic.get t.l_closing then invalid_arg "Rt_monitor.connect: closing";
  if Atomic.get t.l_registered < Array.length t.l_workers then
    invalid_arg "Rt_monitor.connect: workers not all registered";
  let w = pick_worker t in
  (* Server-end tokens start free (owner -1): the connection may be stolen
     by a different worker than the one we picked, and the acceptor's
     first operation takes free tokens with one CAS. *)
  let client_end, server_end =
    Rt_sock.pair ~ring_size:t.l_ring_size ~a_owner:dom ~b_owner:(-1) ()
  in
  (* Chaos site: die after creating the pair, before the backlog push —
     the fork-storm shape: a connection exists that no worker will ever
     see, and the client end must fail with EPIPE or ECONNRESET, not hang. *)
  if Sds_fault.armed () then Sds_fault.inject "rt_monitor.connect";
  Mutex.lock w.w_mu;
  Queue.push server_end w.w_backlog;
  Atomic.incr w.w_pending;
  Mutex.unlock w.w_mu;
  Obs.Metrics.incr m_dispatch_rr;
  Obs.Metrics.observe h_dispatch_backlog (Atomic.get w.w_pending);
  Atomic.incr t.l_accepted;
  Obs.Trace.emit Obs.Trace.Accept;
  notify_worker w;
  (* A parked sibling with an empty backlog may be waiting to steal this
     very connection (its park readiness covers [any_pending]); the
     per-worker notify above never reaches it.  Wake idle siblings too —
     for a running worker this costs one parked-flag load. *)
  Array.iter
    (function
      | Some w' when w' != w && Atomic.get w'.w_pending = 0 -> notify_worker w'
      | _ -> ())
    t.l_workers;
  client_end

(* ---- accept (worker side) ---- *)

let pop_own w =
  Mutex.lock w.w_mu;
  let r = Queue.take_opt w.w_backlog in
  (match r with Some _ -> Atomic.decr w.w_pending | None -> ());
  Mutex.unlock w.w_mu;
  r

(* Idle worker steals from the strictly longest sibling backlog (§4.5.2),
   through the shared policy core. *)
let try_steal t ~self_index =
  let n = Array.length t.l_workers in
  match
    D.steal_victim ~n ~self:self_index ~length:(fun i ->
        match t.l_workers.(i) with
        | Some w -> Atomic.get w.w_pending
        | None -> 0)
  with
  | None -> None
  | Some v -> (
    let victim = worker_exn t v in
    match pop_own victim with
    | None -> None
    | Some s ->
      Obs.Metrics.incr m_dispatch_steals;
      Obs.Trace.emit Obs.Trace.Steal;
      Some s)

let any_pending t =
  let n = Array.length t.l_workers in
  let rec go i =
    i < n
    &&
    match t.l_workers.(i) with
    | Some w -> Atomic.get w.w_pending > 0 || go (i + 1)
    | None -> go (i + 1)
  in
  go 0

(* Blocking accept for worker [index]: own backlog first, then steal, then
   park on the worker's own waiter until the dispatcher (or a closer)
   wakes it.  [None] once the listener is closed and every backlog is
   drained. *)
let accept t ~index =
  let w = worker_exn t index in
  let rec go () =
    match pop_own w with
    | Some s -> Some s
    | None -> (
      match try_steal t ~self_index:index with
      | Some s ->
        w.w_stolen <- w.w_stolen + 1;
        Some s
      | None ->
        if Atomic.get t.l_closing && not (any_pending t) then None
        else begin
          Waiter.wait (Rt_dom.waiter w.w_slot) ~ready:(fun () ->
              Atomic.get w.w_pending > 0 || Atomic.get t.l_closing || any_pending t);
          go ()
        end)
  in
  match go () with
  | Some s ->
    Rt_sock.claim s ~dom:w.w_slot;
    (* Chaos site: die between popping a connection and serving it — the
       monitor-restart shape: the connection is in nobody's backlog and
       recovery must poison it rather than strand the client. *)
    if Sds_fault.armed () then Sds_fault.inject "rt_monitor.accept";
    w.w_served <- w.w_served + 1;
    Some s
  | None -> None

let close_listener t =
  Atomic.set t.l_closing true;
  Array.iter (function Some w -> notify_worker w | None -> ()) t.l_workers

(* ---- flight-recorder section ---- *)

let listeners : t Sds_obs.Registry.t = Sds_obs.Registry.create 64

let render_monitor () =
  let b = Buffer.create 128 in
  Sds_obs.Registry.iteri listeners (fun i t ->
      Buffer.add_string b
        (Printf.sprintf "listener#%d rr=%d accepted=%d closing=%b" i t.l_rr
           (Atomic.get t.l_accepted) (Atomic.get t.l_closing));
      Array.iteri
        (fun j -> function
          | None -> Buffer.add_string b (Printf.sprintf " w%d=unreg" j)
          | Some w ->
            Buffer.add_string b
              (Printf.sprintf " w%d=slot%d/pend%d/served%d/stolen%d" j w.w_slot
                 (Atomic.get w.w_pending) w.w_served w.w_stolen))
        t.l_workers;
      Buffer.add_char b '\n');
  Buffer.contents b

let () = Sds_obs.Flight.register_state "rt_monitor" render_monitor

let create ?ring_size ?capacity ~workers () =
  let t = listener ?ring_size ?capacity ~workers () in
  Sds_obs.Registry.add listeners t;
  t

(* ---- liveness reaper (§4.3) --------------------------------------------

   Out-of-band death detection for crashes the [died] hook cannot catch
   (a wedged domain, a killed thread): a background thread samples every
   [enroll]ed live slot's heartbeat word each round and declares a slot
   dead after [stalls] consecutive unchanged samples.  Slots parked on
   their own waiter are exempt — parking is legitimate silence (a worker
   waiting in [accept] beats nothing); the bound therefore only covers
   slots that promised to be runnable.  Process-wide singleton: one
   reaper serves every listener. *)

let m_reaped = Obs.Metrics.counter "fault.reaped"

let reaper_mu = Mutex.create ()
let reaper : (Thread.t * bool Atomic.t) option ref = ref None

let reaper_round ~stalls ~last ~miss =
  for s = 0 to Rt_dom.max_slots - 1 do
    if
      Rt_dom.slot_live s && Rt_dom.is_enrolled s
      && not (Waiter.parked (Rt_dom.waiter s))
    then begin
      let hb = Rt_dom.heartbeat s in
      if hb = last.(s) then begin
        miss.(s) <- miss.(s) + 1;
        if miss.(s) >= stalls then begin
          if Rt_dom.declare_dead s then Obs.Metrics.incr m_reaped;
          miss.(s) <- 0
        end
      end
      else begin
        last.(s) <- hb;
        miss.(s) <- 0
      end
    end
    else begin
      (* Not watched this round (free, unenrolled or parked): restart the
         silence window from scratch when it next becomes watchable. *)
      last.(s) <- Rt_dom.heartbeat s;
      miss.(s) <- 0
    end
  done

let start_reaper ?(interval_s = 0.005) ?(stalls = 8) () =
  if interval_s <= 0. || stalls < 1 then invalid_arg "Rt_monitor.start_reaper";
  Mutex.lock reaper_mu;
  (match !reaper with
  | Some _ -> ()
  | None ->
    let stop = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          let last = Array.make Rt_dom.max_slots (-1) in
          let miss = Array.make Rt_dom.max_slots 0 in
          while not (Atomic.get stop) do
            Thread.delay interval_s;
            if not (Atomic.get stop) then reaper_round ~stalls ~last ~miss
          done)
        ()
    in
    reaper := Some (th, stop));
  Mutex.unlock reaper_mu

let stop_reaper () =
  Mutex.lock reaper_mu;
  let r = !reaper in
  reaper := None;
  Mutex.unlock reaper_mu;
  match r with
  | Some (th, stop) ->
    Atomic.set stop true;
    Thread.join th
  | None -> ()
