(* Real-domain sockets: the §4.2 per-connection queue pair on actual OCaml
   domains, wired through the existing ring + notify + pagepool stack.

   One connection = a lane (two SPSC rings, one per direction) + four
   [Rt_token]s (a send and a recv token per endpoint); every connection
   of the process stages its §4.6 descriptor pages in one [Pagepool].  The
   stream rules are [Sds_proto.Stream_core]'s, shared with the simulator's
   [Libsd]: each endpoint's [Copy_policy] picks inline ring records or
   page-descriptor records, and what [recv]'s [len] cannot hold stays in
   the endpoint's cursor.  A zero-length record flagged [flag_fin]
   carries EOF.  Connection set-up costs queue set-up, not heap churn: a
   cleanly closed connection's lane is recycled for the next [pair].

   Every lane registers, once, in a process-wide registry and holds its
   current connection: the [rt_conn] flight-recorder section shows owners,
   lane, ring occupancy, byte counts and token holders per connection —
   the "ring-pair registry per domain pair" — and crash recovery walks
   the same lanes.  A connection itself registers nothing, so nothing
   long-lived points at it once it is finished and it dies in the minor
   heap.

   Page ownership is scoped to one connection by the page's owner stamp:

     stamp                     page state
     sending or landing slot   staged, or mid-landing
     direction id ([dir.id])   published, not yet adopted

   Crash compatibility (§4.3): both endpoints of a pair share one poison
   flag.  When a domain dies ([Rt_dom.on_death] hook below), the tokens it
   held on any lane's connection are granted or freed, then every
   connection it was involved in is poisoned and its parked waiters
   kicked: blocking operations on either end raise EPIPE on send and
   ECONNRESET on recv instead of hanging.  The reaper then frees the dead
   slot's pages and the published pages of the pairs it poisoned
   ([Pagepool.reclaim_owners]); published pages of healthy pairs carry
   their direction's id, so a dead sender's reclaim never touches them.
   Receivers adopt descriptor pages before touching the payload, so
   reclamation and consumption arbitrate through the page's owner cell —
   exactly one wins.  Every blocking park is bounded, so the exit path
   does not depend on any notify arriving. *)

module R = Sds_ring.Spsc_ring
module Pp = Sds_vm.Pagepool
module Waiter = Sds_notify.Waiter
module Batch_ctl = Sds_proto.Batch_ctl
module Copy_policy = Sds_proto.Copy_policy
module Core = Sds_proto.Stream_core
module Obs = Sds_obs.Obs

(* Socket errors as the kernel raises them, preallocated so that no
   raise site allocates: EPIPE for a send on a closed or poisoned
   connection, ECONNRESET for a recv on a poisoned one. *)
let epipe = Unix.Unix_error (Unix.EPIPE, "send", "")
let econnreset = Unix.Unix_error (Unix.ECONNRESET, "recv", "")

let flag_fin = 0x200
let max_inline = Core.max_inline
let max_desc_per_record = Core.max_desc_per_record

let m_sends = Obs.Metrics.counter "rt.sends"
let m_recvs = Obs.Metrics.counter "rt.recvs"
let m_desc_sends = Obs.Metrics.counter "rt.desc_sends"
let m_pool_fallbacks = Obs.Metrics.counter "rt.pool_fallbacks"
let m_poisoned = Obs.Metrics.counter "rt.poisoned"

(* ---- the process pool and ring lanes ----

   One staging pool serves every connection of the process, so page
   ownership is scoped per connection by stamps: a staged page carries the
   sending slot's id, a published one its connection direction's id
   ([dir.id], fresh for every connection), and the receiver adopts only
   from that id.  A dead slot's reclaim therefore never touches what a
   healthy pair has published, and a stale descriptor can never adopt a
   page that was reclaimed and allocated again. *)

let pool = Pp.create ~pages:512 ()

(* A lane is the ring pair a connection runs on, and the one registered
   owner of it: [conn] holds the current connection's [a] endpoint from
   [pair] until the lane is recycled.  A connection finished cleanly (both
   FINs sent and dequeued, so both rings are empty) hands its lane to
   [free_lanes] for the next [pair]; a poisoned or abandoned one is never
   reused, and keeps its connection until the lane itself is collected.
   [ab_id]/[ba_id] are the current connection's direction ids, read by the
   finaliser. *)
type lane = {
  ab : R.t;
  ba : R.t;
  serial : int;
  mutable ab_id : int;
  mutable ba_id : int;
  mutable conn : t option;
}

and dir = { ring : R.t; id : int  (** the stamp its published pages carry *) }

and t = {
  tx : dir;
  rx : dir;
  lane : lane;
  send_tok : Rt_token.t;
  recv_tok : Rt_token.t;
  batch : Batch_ctl.t;
  policy : Copy_policy.t;  (** selective-copy state, guarded by [send_tok] *)
  mutable stage : int array;  (** descriptor staging, [send_tok]; empty until first used *)
  cursor : Core.cursor;  (** partly read record, guarded by [recv_tok] *)
  mutable bytes_sent : int;  (** guarded by [send_tok] *)
  mutable bytes_received : int;  (** guarded by [recv_tok] *)
  mutable fin_rx : bool;  (** guarded by [recv_tok] *)
  mutable fin_tx : bool;  (** guarded by [send_tok] *)
  cid : int;
  peer_slot : int;
  peer_epoch : int;  (** [peer_slot]'s incarnation at [pair] *)
  dead : bool Atomic.t;  (** the poison flag, shared by both endpoints *)
  fins : int Atomic.t;
      (** FINs the pair has sent and dequeued, shared by both endpoints; at
          4 the connection is finished and its lane recycled *)
  mutable peer : t option;  (** the other endpoint; set by [pair] *)
  mutable op_slot : int;  (** last slot to operate this end (racy; init owner) *)
  mutable op_epoch : int;  (** [op_slot]'s incarnation then (racy) *)
}

(* The lane registry, for the flight recorder and crash recovery.  Lanes
   are long-lived, so registering one (which promotes it at the next minor
   collection) is paid once per lane, not per connection. *)
let reg : lane Sds_obs.Registry.t = Sds_obs.Registry.create 64

(* The free lanes: a stack of [free_lanes_max] slots under [lanes_mu],
   [free_lanes.(0 .. n_free-1)] in use; empty slots hold [no_lane], so the
   stack keeps no taken lane alive.  Taking and recycling allocate
   nothing. *)
let free_lanes_max = 16
let lanes_mu = Mutex.create ()

let no_lane =
  let r = R.create_unregistered ~size:64 () in
  { ab = r; ba = r; serial = -1; ab_id = Pp.no_owner; ba_id = Pp.no_owner; conn = None }

let free_lanes = Array.make free_lanes_max no_lane
let n_free = ref 0
let lane_serial = Atomic.make 0

(* Direction ids start above the slot ids, so the two never collide. *)
let next_id = Atomic.make Rt_dom.max_slots

(* Direction ids of lanes collected without being recycled: their
   published, never-adopted pages still need freeing.  Pushed by
   finalisers, which may run inside any allocation, hence a lock-free
   list; drained by [pair] and the reaper. *)
let orphans : int list Atomic.t = Atomic.make []

let rec push_orphans ids =
  let old = Atomic.get orphans in
  if not (Atomic.compare_and_set orphans old (ids @ old)) then push_orphans ids

let orphaned l = if l.ab_id >= 0 then push_orphans [ l.ab_id; l.ba_id ]
let take_orphans () = Atomic.exchange orphans []

let new_lane ring_size =
  let l =
    { ab = R.create ~size:ring_size (); ba = R.create ~size:ring_size ();
      serial = Atomic.fetch_and_add lane_serial 1; ab_id = Pp.no_owner; ba_id = Pp.no_owner;
      conn = None }
  in
  Gc.finalise orphaned l;
  Sds_obs.Registry.add reg l;
  l

(* The free lane of [ring_size] nearest the top of the stack, or
   [no_lane]; its slot takes the top lane. *)
let pop_free ring_size =
  Mutex.lock lanes_mu;
  let i = ref (!n_free - 1) in
  while !i >= 0 && R.capacity free_lanes.(!i).ab <> ring_size do
    decr i
  done;
  let l =
    if !i < 0 then no_lane
    else begin
      let l = free_lanes.(!i) in
      decr n_free;
      free_lanes.(!i) <- free_lanes.(!n_free);
      free_lanes.(!n_free) <- no_lane;
      l
    end
  in
  Mutex.unlock lanes_mu;
  l

let take_lane ring_size =
  let l = pop_free ring_size in
  let l = if l == no_lane then new_lane ring_size else l in
  let base = Atomic.fetch_and_add next_id 2 in
  l.ab_id <- base;
  l.ba_id <- base + 1;
  l

let recycle l =
  l.ab_id <- Pp.no_owner;
  l.ba_id <- Pp.no_owner;
  l.conn <- None;
  Mutex.lock lanes_mu;
  if !n_free < free_lanes_max then begin
    free_lanes.(!n_free) <- l;
    incr n_free
  end;
  Mutex.unlock lanes_mu

(* ---- the lanes' connections (flight recorder, crash recovery) ---- *)

let cid_counter = ref 0
let finished t = Atomic.get t.fins = 4

(* Every lane's current connection, [a] end first. *)
let live_conns () =
  List.concat_map
    (fun l -> match l.conn with Some a -> a :: Option.to_list a.peer | None -> [])
    (Sds_obs.Registry.to_list reg)

let render_conns () =
  let b = Buffer.create 256 in
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf
           "conn#%d lane=%d peer_slot=%d op_slot=%d tx_used=%d rx_used=%d sent=%d received=%d \
            fin_tx=%b fin_rx=%b poisoned=%b send_holder=%d recv_holder=%d\n"
           t.cid t.lane.serial t.peer_slot t.op_slot (R.used t.tx.ring) (R.used t.rx.ring)
           t.bytes_sent t.bytes_received t.fin_tx t.fin_rx (Atomic.get t.dead)
           (Rt_token.holder t.send_tok) (Rt_token.holder t.recv_tok)))
    (live_conns ());
  Buffer.contents b

let () = Sds_obs.Flight.register_state "rt_conn" render_conns

(* ---- construction ---- *)

(* A slot's current incarnation; slots are reused once their domain
   exits, so involvement in a connection is judged per incarnation. *)
let[@inline] epoch_of slot = if slot < 0 then 0 else Rt_dom.epoch slot

let endpoint ~owner ~peer_slot ~lane ~tx ~rx ~dead ~fins =
  incr cid_counter;
  {
    tx;
    rx;
    lane;
    send_tok = Rt_token.create_unregistered ~name:"send" ~holder:owner ();
    recv_tok = Rt_token.create_unregistered ~name:"recv" ~holder:owner ();
    batch = Batch_ctl.create ();
    policy = Copy_policy.create ();
    stage = [||];
    cursor = Core.cursor ();
    bytes_sent = 0;
    bytes_received = 0;
    fin_rx = false;
    fin_tx = false;
    cid = !cid_counter;
    peer_slot;
    peer_epoch = epoch_of peer_slot;
    dead;
    fins;
    peer = None;
    op_slot = owner;
    op_epoch = epoch_of owner;
  }

(* A connected endpoint pair on a recycled or new lane: [a]'s tx ring is
   [b]'s rx ring and vice versa, and the lane holds [a] until it is
   recycled.  Pages of abandoned lanes are freed first, so a process that
   drops connections without closing them does not drain the pool. *)
let pair ?(ring_size = 64 * 1024) ~a_owner ~b_owner () =
  (match take_orphans () with [] -> () | ids -> ignore (Pp.reclaim_owners pool ~owners:ids));
  let lane = take_lane ring_size in
  let ab = { ring = lane.ab; id = lane.ab_id } and ba = { ring = lane.ba; id = lane.ba_id } in
  let dead = Atomic.make false and fins = Atomic.make 0 in
  let a = endpoint ~owner:a_owner ~peer_slot:b_owner ~lane ~tx:ab ~rx:ba ~dead ~fins in
  let b = endpoint ~owner:b_owner ~peer_slot:a_owner ~lane ~tx:ba ~rx:ab ~dead ~fins in
  a.peer <- Some b;
  b.peer <- Some a;
  lane.conn <- Some a;
  (a, b)

let lane t = t.lane.serial

let[@inline] operate t ~dom =
  t.op_slot <- dom;
  t.op_epoch <- Rt_dom.epoch dom

(* One of the pair's four FIN events (a FIN enqueued or dequeued), counted
   after the ring operation returned; the fourth, on a pair that is not
   poisoned, recycles the lane — no endpoint touches its rings again. *)
let fin_event t =
  if Atomic.fetch_and_add t.fins 1 = 3 && not (Atomic.get t.dead) then recycle t.lane

let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received

(* ---- poison (peer death) ---- *)

let poisoned t = Atomic.get t.dead

(* Declare the connection dead and kick everyone out of their parks: both
   rings' rx/tx waiters and every slot parked on the four tokens.  The
   kicked waiters re-check their (poison-aware) conditions and raise
   EPIPE or ECONNRESET.  Idempotent; the flag is shared, so poisoning
   either endpoint poisons the pair. *)
let poison t =
  if not (Atomic.exchange t.dead true) then Obs.Metrics.incr m_poisoned;
  Waiter.notify (R.rx_waiter t.tx.ring);
  Waiter.notify (R.tx_waiter t.tx.ring);
  Waiter.notify (R.rx_waiter t.rx.ring);
  Waiter.notify (R.tx_waiter t.rx.ring);
  Rt_token.kick t.send_tok;
  Rt_token.kick t.recv_tok;
  match t.peer with
  | Some p ->
    Rt_token.kick p.send_tok;
    Rt_token.kick p.recv_tok
  | None -> ()

let[@inline] check_poison t err = if Atomic.get t.dead then raise err

(* Bounded poison-aware parks: the ready conditions are the ring's own
   progress conditions *or* poison, and the deadline bounds the silence
   window even if every notify is lost. *)
let park_window_ns = 10_000_000

let wait_tx_p t ~len =
  check_poison t epipe;
  let ring = t.tx.ring in
  let need = R.record_bytes len in
  ignore
    (Waiter.wait_until (R.tx_waiter ring)
       ~deadline_ns:(Sds_obs.Span.now () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || R.credits ring >= need))

let wait_rx_p t =
  check_poison t econnreset;
  let ring = t.rx.ring in
  ignore
    (Waiter.wait_until (R.rx_waiter ring)
       ~deadline_ns:(Sds_obs.Span.now () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || not (R.is_empty ring)))

(* ---- send ---- *)

(* Return the ring's batched credits owed by the consumer side. *)
let[@inline] return_pending ring =
  let c = R.take_credit_return ring in
  if c > 0 then R.return_credits ring c

(* Publish a staged record's pages to the receiver: re-stamp each from
   the sending slot to this direction's id.  A page that no longer carries
   [dom] was reclaimed by the reaper (which declared this slot dead and
   poisoned the pair); the reaper's pass frees the rest under either
   stamp. *)
let hand_over t ~dom ~n =
  for i = 0 to n - 1 do
    if not (Pp.hand_over pool ~page:(R.desc_page t.stage.(i)) ~from:dom ~to_:t.tx.id) then begin
      poison t;
      raise epipe
    end
  done

(* One stream send through the shared record plan.  A descriptor record
   first waits for its ring room (the sender is the ring's one producer,
   so the room stays), then stages its pages stamped with the sending
   slot — what [reclaim_owners] frees if we die before publishing — and
   hands them over to the direction's id just before the enqueue. *)
let send_locked t ~dom buf ~off ~len =
  if t.fin_tx then raise epipe;
  check_poison t epipe;
  let stop = off + len in
  (* Chaos site: die between the records of one streamed payload. *)
  let published ~off ~len =
    if off + len < stop && Sds_fault.armed () then Sds_fault.inject "rt_sock.mid_publish"
  in
  let desc ~off ~len =
    let n = Core.pages_for len in
    while R.credits t.tx.ring < R.record_bytes (8 * n) do
      wait_tx_p t ~len:(8 * n)
    done;
    let h = Pp.domain_handle pool in
    Pp.set_owner h dom;
    if Array.length t.stage = 0 then t.stage <- Array.make max_desc_per_record 0;
    Core.stage pool h buf ~off ~len t.stage
    && begin
         (* Chaos site: die holding filled, unpublished pages — only
            [reclaim_owners] can get them back. *)
         if Sds_fault.armed () then Sds_fault.inject "rt_sock.holding_pages";
         hand_over t ~dom ~n;
         let enqueued = R.try_enqueue_descs t.tx.ring t.stage ~n in
         assert enqueued;
         Obs.Metrics.incr m_desc_sends;
         published ~off ~len;
         true
       end
  in
  let inline ~off ~len =
    while not (R.try_enqueue t.tx.ring buf ~off ~len) do
      wait_tx_p t ~len
    done;
    published ~off ~len
  in
  (* The decision reads no pool occupancy.  Even in the process pool, a
     single stream's fill is mostly how far its sender runs ahead of a
     lagging receiver, not memory pressure: backing off on it flips a
     receiver-bound 16 KiB stream between copying and zero-copy with the
     receiver's scheduling.  Exhaustion already falls back per record. *)
  (match Core.send t.policy ~pool:None ~off ~len ~desc ~inline with
  | Core.Fell_back -> Obs.Metrics.incr m_pool_fallbacks
  | Core.Copied | Core.Zero_copy -> ());
  t.bytes_sent <- t.bytes_sent + len;
  Obs.Metrics.incr m_sends

let send t ~dom buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Rt_sock.send";
  operate t ~dom;
  Rt_token.with_held t.send_tok ~dom (fun () -> send_locked t ~dom buf ~off ~len)

(* Vectored small-message send under one token hold: each enqueue_batch is
   bounded by the shared §4.5 [Batch_ctl] budget; the in-flight batch is
   drained before the operation boundary, where a posted takeover is
   served. *)
let send_burst t ~dom srcs ~n =
  if n < 0 || n > Array.length srcs then invalid_arg "Rt_sock.send_burst";
  (* Every entry is checked before the first batch is published, so an
     invalid burst sends nothing rather than a prefix. *)
  let half = R.capacity t.tx.ring / 2 in
  let bytes = ref 0 in
  for i = 0 to n - 1 do
    let src, off, len = srcs.(i) in
    if off < 0 || len < 0 || off + len > Bytes.length src || R.record_bytes len > half then
      invalid_arg "Rt_sock.send_burst";
    bytes := !bytes + len
  done;
  let bytes = !bytes in
  operate t ~dom;
  Rt_token.with_held t.send_tok ~dom (fun () ->
      if t.fin_tx then raise epipe;
      check_poison t epipe;
      let sent = ref 0 in
      while !sent < n do
        let want = min (Batch_ctl.budget t.batch) (n - !sent) in
        let k = R.enqueue_batch t.tx.ring srcs ~pos:!sent ~n:want in
        Batch_ctl.observe t.batch ~sent:k ~attempted:want ~pressure:(!sent + want < n);
        if k = 0 then begin
          let _, _, l = srcs.(!sent) in
          wait_tx_p t ~len:l
        end;
        sent := !sent + k
      done;
      t.bytes_sent <- t.bytes_sent + bytes;
      Obs.Metrics.incr m_sends)

(* ---- recv ---- *)

(* This domain's landing for descriptor pages: adopt from the direction's
   id for [dom], release through its handle on the pool. *)
let landing t ~dom =
  let h = Pp.domain_handle pool in
  Pp.set_owner h dom;
  Core.Owned { h; from = t.rx.id; owner = dom }

(* Dequeue the next record and land at most [len] bytes of it; whatever
   does not fit stays in the cursor.  0 on EOF.

   Receive-side batching (§4.5): an inline record that fits whole lands
   through [R.drain] with the ready inline records behind it that also fit
   whole, up to one sender batch ([Batch_ctl.initial_budget]) per call.
   The bound keeps a caller that parses its buffer per message and shifts
   the rest down after each one linear: an unbounded drain can return a
   whole ring of records, and the shifting costs the square of that.  A
   [max_inline] record is a slice of a split send and lands alone, as
   every record does in the simulator's [Libsd], so both backends cut a
   large send in the same places. *)
let next_record t ~dom dst ~off ~len =
  let ring = t.rx.ring in
  let rec go () =
    let p = R.peek_packed ring in
    if p = R.no_msg then begin
      wait_rx_p t;
      go ()
    end
    else if R.is_desc_packed p then begin
      let entries = Core.entries t.cursor in
      let q = R.try_dequeue_descs ring ~entries in
      if q = R.no_msg then go ()
      else begin
        return_pending ring;
        let n =
          Core.land_desc t.cursor (landing t ~dom) pool entries
            ~count:(R.desc_count_packed q) dst ~off ~len
        in
        if n = Core.lost then begin
          poison t;
          raise econnreset
        end;
        n
      end
    end
    else if R.packed_flags p land flag_fin <> 0 then begin
      ignore (R.try_dequeue_packed ring ~dst ~dst_off:off);
      return_pending ring;
      t.fin_rx <- true;
      fin_event t;
      0
    end
    else if R.packed_len p <= len then begin
      let max = if R.packed_len p < max_inline then Batch_ctl.initial_budget else 1 in
      let n = R.drain ring ~dst ~dst_off:off ~len ~max in
      return_pending ring;
      (* Empty records (a zero-length [send_burst] entry) carry no bytes:
         only EOF returns 0. *)
      if n = 0 then go () else n
    end
    else begin
      (* Longer than [len]: through the cursor's scratch buffer. *)
      let buf = Core.scratch t.cursor (R.packed_len p) in
      let q = R.try_dequeue_packed ring ~dst:buf ~dst_off:0 in
      return_pending ring;
      Core.land_bytes t.cursor buf ~pos:0 ~stop:(R.packed_len q) dst ~off ~len
    end
  in
  go ()

let recv_locked t ~dom dst ~off ~len =
  if t.fin_rx then 0
  else begin
    if Atomic.get t.dead then begin
      (* Reset semantics: a partly read record is dropped with the rest. *)
      if Core.pending t.cursor then Core.drop t.cursor;
      raise econnreset
    end;
    let n =
      if Core.pending t.cursor then Core.take t.cursor dst ~off ~len
      else next_record t ~dom dst ~off ~len
    in
    if n > 0 then begin
      t.bytes_received <- t.bytes_received + n;
      Obs.Metrics.incr m_recvs
    end;
    n
  end

let recv t ~dom dst ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length dst then invalid_arg "Rt_sock.recv";
  operate t ~dom;
  Rt_token.with_held t.recv_tok ~dom (fun () -> recv_locked t ~dom dst ~off ~len)

(* ---- shutdown ---- *)

let fin_scratch = Bytes.create 0

(* On a poisoned pair, close degenerates to releasing the tokens (like
   close(2) on a reset socket: succeeds, nothing to send to). *)
let close t ~dom =
  (if not (Atomic.get t.dead) then
     try
       Rt_token.with_held t.send_tok ~dom (fun () ->
           if not t.fin_tx then begin
             t.fin_tx <- true;
             while not (R.try_enqueue ~flags:flag_fin t.tx.ring fin_scratch ~off:0 ~len:0) do
               wait_tx_p t ~len:0
             done;
             fin_event t
           end)
     with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
  Rt_token.release t.send_tok ~dom;
  Rt_token.release t.recv_tok ~dom

(* Ownership declaration without an operation: an acceptor that popped
   this endpoint from a backlog is involved in it from that instant —
   if it dies before its first send/recv, recovery must still poison the
   pair. *)
let claim t ~dom = operate t ~dom

(* Cooperative-hold contract: a domain done operating this endpoint hands
   its tokens back so a later owner takes them without arbitration. *)
let release_tokens t ~dom =
  Rt_token.release t.send_tok ~dom;
  Rt_token.release t.recv_tok ~dom

let send_token t = t.send_tok
let recv_token t = t.recv_tok
let at_eof t = t.fin_rx

(* ---- crash recovery hook ----------------------------------------------

   Runs after [Rt_token]'s reap hook (registration order = module
   dependency order), which covers standalone tokens only; a connection's
   tokens are reached through the lanes.  First every lane's current
   connection has its four tokens reaped — granted to a pending requester
   or freed when the dead incarnation held them — so by the time a
   connection is poisoned its tokens are live-or-free.  Then involvement
   is judged from the incarnations that actually operated each end (plus
   the configured owners); a finished pair owns nothing and is skipped.
   Poisoning first, reclaiming second, so a survivor kicked out of a park
   observes poison before it could go look for more descriptors, and
   pages the survivor already adopted are out of the reclaimer's reach.
   One pass over the pool then frees the dead slot's pages (staged or
   mid-landing), the published pages of every pair it poisoned, and those
   of lanes abandoned since the last drain. *)

let reap_conns slot =
  (* The hook runs after the epoch bump: the dead incarnation's epoch is
     the one before.  A connection an earlier incarnation of the slot
     operated is not this death's business. *)
  let dead = Rt_dom.epoch slot - 1 in
  let was s e = s = slot && e = dead in
  let conns = live_conns () in
  List.iter
    (fun t ->
      Rt_token.reap t.send_tok;
      Rt_token.reap t.recv_tok)
    conns;
  let doomed =
    List.fold_left
      (fun doomed t ->
        let involved =
          was t.op_slot t.op_epoch || was t.peer_slot t.peer_epoch
          || (match t.peer with Some p -> was p.op_slot p.op_epoch | None -> false)
        in
        if involved && not (finished t) then begin
          poison t;
          t.tx.id :: t.rx.id :: doomed
        end
        else doomed)
      (slot :: take_orphans ())
      conns
  in
  ignore (Pp.reclaim_owners pool ~owners:doomed)

let () = Rt_dom.on_death reap_conns
