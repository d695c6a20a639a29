(* Real-domain sockets: the §4.2 per-connection queue pair on actual OCaml
   domains, wired through the existing ring + notify + pagepool stack.

   One connection = two SPSC rings (one per direction) + one staging
   [Pagepool] per direction for the §4.6 descriptor path + four
   [Rt_token]s (a send and a recv token per endpoint).  The stream rules
   are [Sds_proto.Stream_core]'s, shared with the simulator's [Libsd]:
   each endpoint's [Copy_policy] picks inline ring records or
   page-descriptor records, and what [recv]'s [len] cannot hold stays in
   the endpoint's cursor.  A zero-length record flagged [flag_fin]
   carries EOF.

   Every endpoint pair registers in a process-wide registry: the
   [rt_conn] flight-recorder section shows owners, ring occupancy and byte
   counts per connection — the "ring-pair registry per domain pair".

   Crash compatibility (§4.3): both endpoints of a pair share one poison
   flag.  When an involved domain dies ([Rt_dom.on_death] hook below), the
   connection is poisoned and every parked waiter kicked: blocking
   operations on either end raise [Peer_dead] (EPIPE on send, ECONNRESET
   on recv) instead of hanging, and in-flight staging pages of the dead
   incarnation are reclaimed ([Pagepool.reclaim_owner]).  Receivers adopt
   descriptor pages before touching the payload, so reclamation and
   consumption arbitrate through the page's owner cell — exactly one
   wins.  Every blocking park is bounded, so the exit path does not
   depend on any notify arriving. *)

module R = Sds_ring.Spsc_ring
module Pp = Sds_vm.Pagepool
module Waiter = Sds_notify.Waiter
module Batch_ctl = Sds_proto.Batch_ctl
module Copy_policy = Sds_proto.Copy_policy
module Core = Sds_proto.Stream_core
module Obs = Sds_obs.Obs

exception Peer_dead

let flag_fin = 0x200
let max_inline = Core.max_inline
let max_desc_per_record = Core.max_desc_per_record

let m_sends = Obs.Metrics.counter "rt.sends"
let m_recvs = Obs.Metrics.counter "rt.recvs"
let m_desc_sends = Obs.Metrics.counter "rt.desc_sends"
let m_pool_fallbacks = Obs.Metrics.counter "rt.pool_fallbacks"
let m_poisoned = Obs.Metrics.counter "rt.poisoned"

type dir = { ring : R.t; pool : Pp.t }

type t = {
  tx : dir;
  rx : dir;
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
  dead : bool Atomic.t;  (** the poison flag, shared by both endpoints *)
  mutable peer : t option;  (** the other endpoint; set by [pair] *)
  mutable op_slot : int;  (** last slot to operate this end (racy; init owner) *)
}

(* ---- connection registry (flight recorder / tests) ---- *)

let reg_mu = Mutex.create ()
let reg : t Weak.t = Weak.create 1024
let cid_counter = ref 0

let register t =
  Mutex.lock reg_mu;
  (try
     let placed = ref false in
     for i = 0 to Weak.length reg - 1 do
       if (not !placed) && Weak.get reg i = None then begin
         Weak.set reg i (Some t);
         placed := true
       end
     done
   with e ->
     Mutex.unlock reg_mu;
     raise e);
  Mutex.unlock reg_mu

let render_conns () =
  let b = Buffer.create 256 in
  Mutex.lock reg_mu;
  for i = 0 to Weak.length reg - 1 do
    match Weak.get reg i with
    | None -> ()
    | Some t ->
      Buffer.add_string b
        (Printf.sprintf
           "conn#%d peer_slot=%d op_slot=%d tx_used=%d rx_used=%d sent=%d received=%d \
            fin_tx=%b fin_rx=%b poisoned=%b\n"
           t.cid t.peer_slot t.op_slot (R.used t.tx.ring) (R.used t.rx.ring) t.bytes_sent
           t.bytes_received t.fin_tx t.fin_rx (Atomic.get t.dead))
  done;
  Mutex.unlock reg_mu;
  Buffer.contents b

let () = Sds_obs.Flight.register_state "rt_conn" render_conns

(* ---- construction ---- *)

let endpoint ~owner ~peer_slot ~tx_ring ~tx_pool ~rx_ring ~rx_pool ~dead =
  incr cid_counter;
  let t =
    {
      tx = { ring = tx_ring; pool = tx_pool };
      rx = { ring = rx_ring; pool = rx_pool };
      send_tok = Rt_token.create ~name:"send" ~holder:owner ();
      recv_tok = Rt_token.create ~name:"recv" ~holder:owner ();
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
      dead;
      peer = None;
      op_slot = owner;
    }
  in
  register t;
  t

(* A connected endpoint pair: [a]'s tx ring is [b]'s rx ring and vice
   versa; each direction's staging pool is shared by its sender (alloc +
   blit) and receiver (blit + release). *)
let pair ?(ring_size = 64 * 1024) ?(pool_pages = 512) ~a_owner ~b_owner () =
  let ab = R.create ~size:ring_size () in
  let ba = R.create ~size:ring_size () in
  let pool_ab = Pp.create ~pages:pool_pages () in
  let pool_ba = Pp.create ~pages:pool_pages () in
  let dead = Atomic.make false in
  let a =
    endpoint ~owner:a_owner ~peer_slot:b_owner ~tx_ring:ab ~tx_pool:pool_ab ~rx_ring:ba
      ~rx_pool:pool_ba ~dead
  in
  let b =
    endpoint ~owner:b_owner ~peer_slot:a_owner ~tx_ring:ba ~tx_pool:pool_ba ~rx_ring:ab
      ~rx_pool:pool_ab ~dead
  in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received

(* ---- poison (peer death) ---- *)

let poisoned t = Atomic.get t.dead

(* Declare the connection dead and kick everyone out of their parks: both
   rings' rx/tx waiters and every slot parked on the four tokens.  The
   kicked waiters re-check their (poison-aware) conditions and raise
   [Peer_dead].  Idempotent; the flag is shared, so poisoning either
   endpoint poisons the pair. *)
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

let[@inline] check_poison t = if Atomic.get t.dead then raise Peer_dead

(* Bounded poison-aware parks: the ready conditions are the ring's own
   progress conditions *or* poison, and the deadline bounds the silence
   window even if every notify is lost. *)
let park_window_ns = 10_000_000

let wait_tx_p t ~len =
  check_poison t;
  let ring = t.tx.ring in
  let need = R.record_bytes len in
  ignore
    (Waiter.wait_until (R.tx_waiter ring)
       ~deadline_ns:(Sds_obs.Span.now () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || R.credits ring >= need))

let wait_rx_p t =
  check_poison t;
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

(* One stream send through the shared record plan.  Descriptor pages are
   stamped with the sending slot so [reclaim_owner] can find them if we
   die between allocation and the receiver's adoption. *)
let send_locked t ~dom buf ~off ~len =
  if t.fin_tx then invalid_arg "Rt_sock.send: after close";
  check_poison t;
  let stop = off + len in
  (* Chaos site: die between the records of one streamed payload. *)
  let published ~off ~len =
    if off + len < stop && Sds_fault.armed () then Sds_fault.inject "rt_sock.mid_publish"
  in
  let desc ~off ~len =
    let h = Pp.domain_handle t.tx.pool in
    Pp.set_owner h dom;
    if Array.length t.stage = 0 then t.stage <- Array.make max_desc_per_record 0;
    Core.stage t.tx.pool h buf ~off ~len t.stage
    && begin
         (* Chaos site: die holding filled, unpublished pages — only
            [reclaim_owner] can get them back. *)
         if Sds_fault.armed () then Sds_fault.inject "rt_sock.holding_pages";
         let n = Core.pages_for len in
         while not (R.try_enqueue_descs t.tx.ring t.stage ~n) do
           wait_tx_p t ~len:(8 * n)
         done;
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
  (* The decision reads no pool occupancy: this pool belongs to one
     direction of one connection, so its fill is how far the sender runs
     ahead of the receiver, not memory pressure.  Backing off on it would
     flip a receiver-bound stream between copying and zero-copy with the
     receiver's scheduling; exhaustion already falls back per record. *)
  (match Core.send t.policy ~pool:None ~off ~len ~desc ~inline with
  | Core.Fell_back -> Obs.Metrics.incr m_pool_fallbacks
  | Core.Copied | Core.Zero_copy -> ());
  t.bytes_sent <- t.bytes_sent + len;
  Obs.Metrics.incr m_sends

let send t ~dom buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Rt_sock.send";
  t.op_slot <- dom;
  Rt_token.with_held t.send_tok ~dom (fun () -> send_locked t ~dom buf ~off ~len)

(* Vectored small-message send under one token hold: each enqueue_batch is
   bounded by the shared §4.5 [Batch_ctl] budget; the in-flight batch is
   drained before the operation boundary, where a posted takeover is
   served. *)
let send_burst t ~dom srcs ~n =
  if n < 0 || n > Array.length srcs then invalid_arg "Rt_sock.send_burst";
  t.op_slot <- dom;
  Rt_token.with_held t.send_tok ~dom (fun () ->
      if t.fin_tx then invalid_arg "Rt_sock.send_burst: after close";
      check_poison t;
      let sent = ref 0 in
      let bytes = ref 0 in
      while !sent < n do
        let want = min (Batch_ctl.budget t.batch) (n - !sent) in
        let attempt =
          if !sent = 0 && want = n && want = Array.length srcs then srcs
          else Array.sub srcs !sent want
        in
        let k = R.enqueue_batch t.tx.ring attempt in
        Batch_ctl.observe t.batch ~sent:k ~attempted:want ~pressure:(!sent + want < n);
        if k = 0 then begin
          let _, _, l = srcs.(!sent) in
          wait_tx_p t ~len:l
        end
        else
          for i = !sent to !sent + k - 1 do
            let _, _, l = srcs.(i) in
            bytes := !bytes + l
          done;
        sent := !sent + k
      done;
      t.bytes_sent <- t.bytes_sent + !bytes;
      Obs.Metrics.incr m_sends)

(* ---- recv ---- *)

(* This domain's landing for descriptor pages: adopt for [dom], release
   through its handle on the rx pool. *)
let landing t ~dom =
  let h = Pp.domain_handle t.rx.pool in
  Pp.set_owner h dom;
  Core.Owned { h; owner = dom }

(* Dequeue the next record and land at most [len] bytes of it; whatever
   does not fit stays in the cursor.  0 on EOF. *)
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
          Core.land_desc t.cursor (landing t ~dom) t.rx.pool entries
            ~count:(R.desc_count_packed q) dst ~off ~len
        in
        if n = Core.lost then begin
          poison t;
          raise Peer_dead
        end;
        n
      end
    end
    else begin
      (* Inline (or FIN) record: straight into [dst] when it fits, else
         through the cursor's scratch buffer. *)
      let fits = R.packed_len p <= len in
      let buf = if fits then dst else Core.scratch t.cursor (R.packed_len p) in
      let q = R.try_dequeue_packed ring ~dst:buf ~dst_off:(if fits then off else 0) in
      if q = R.no_msg then go ()
      else begin
        return_pending ring;
        if R.packed_flags q land flag_fin <> 0 then begin
          t.fin_rx <- true;
          0
        end
        else if fits then R.packed_len q
        else Core.land_bytes t.cursor buf ~pos:0 ~stop:(R.packed_len q) dst ~off ~len
      end
    end
  in
  go ()

let recv_locked t ~dom dst ~off ~len =
  if t.fin_rx then 0
  else begin
    if Atomic.get t.dead then begin
      (* Reset semantics: a partly read record is dropped with the rest. *)
      if Core.pending t.cursor then Core.drop t.cursor;
      raise Peer_dead
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
  t.op_slot <- dom;
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
             done
           end)
     with Peer_dead -> ());
  Rt_token.release t.send_tok ~dom;
  Rt_token.release t.recv_tok ~dom

(* Ownership declaration without an operation: an acceptor that popped
   this endpoint from a backlog is involved in it from that instant —
   if it dies before its first send/recv, recovery must still poison the
   pair. *)
let claim t ~dom = t.op_slot <- dom

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
   dependency order), so by the time a connection is poisoned its tokens
   are already live-or-free.  Involvement is judged from the slots that
   actually operated each end (plus the configured peer slot); poisoning
   first, reclaiming second, so a survivor kicked out of a park observes
   poison before it could go look for more descriptors, and pages the
   survivor already adopted are out of the reclaimer's reach. *)

let reap_conns slot =
  let live = ref [] in
  Mutex.lock reg_mu;
  for i = 0 to Weak.length reg - 1 do
    match Weak.get reg i with Some t -> live := t :: !live | None -> ()
  done;
  Mutex.unlock reg_mu;
  List.iter
    (fun t ->
      let involved =
        t.op_slot = slot || t.peer_slot = slot
        || (match t.peer with Some p -> p.op_slot = slot | None -> false)
      in
      if involved then begin
        poison t;
        ignore (Pp.reclaim_owner t.tx.pool ~owner:slot);
        ignore (Pp.reclaim_owner t.rx.pool ~owner:slot)
      end)
    !live

let () = Rt_dom.on_death reap_conns
