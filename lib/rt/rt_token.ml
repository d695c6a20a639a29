(* Real-domain token handoff (§4.2) over the shared protocol core.

   The packed protocol word from [Sds_proto.Token_proto] lives in one
   [Atomic.t]; every transition the simulator commits with a plain store is
   committed here with a CAS.  On top of that sit the things only a real
   multicore backend needs:

   - The optimistic same-domain fast path: [fast_owner] is a plain (non
     atomic) field caching the holder's slot.  Domain [d] only ever writes
     the value [d] into it (after becoming holder through an atomic
     transition) or -1 (before publishing a grant or seizing), so the one
     relaxed read [fast_owner = dom] can only pass for the domain that
     actually holds the token — a stale read fails towards the slow path,
     never towards a mutual-exclusion violation.  This keeps the held-by-me
     hot path at one plain compare on entry plus one atomic load at the
     operation boundary.

   - Takeover arbitration through [Sds_notify] waiters: the requester CASes
     itself into the request slot (request), the holder finishes its
     in-flight batch (drain), publishes [Token_proto.grant] (the release
     fence), and notifies the requester's per-domain waiter (resume).
     [waitmask] tracks which slots are parked on this token so the grant
     wakes exactly the domains that asked.

   - Crash liveness (§4.3): the state word carries the holder's [Rt_dom]
     epoch in bits above the protocol fields, so "who holds it" and "is
     that incarnation alive" are one atomic read.  A requester that finds
     the stamped epoch retired [try_seize]s the token with a CAS (the
     seize fence) instead of parking forever; as a second line of defence
     every park is bounded ([Waiter.wait_until] with exponential backoff),
     so even a missed wake degenerates into a liveness re-check, never a
     hang.  [Rt_dom.on_death] additionally walks the live-token registry
     and grants or frees anything the dead incarnation held, waking the
     pending requester immediately; a connection's tokens are not in the
     registry, and [Rt_sock]'s hook reaps them through its lanes.

   Holds are cooperative: a grant happens at an operation boundary, so a
   domain that stops operating on a socket must [release] its tokens (the
   socket layer does this at EOF/close).  A holder that parks forever
   without releasing is a protocol violation — the flight-recorder state
   provider below exists to show exactly who it was. *)

module P = Sds_proto.Token_proto
module Waiter = Sds_notify.Waiter
module Obs = Sds_obs.Obs

let m_handoffs = Obs.Metrics.counter "token.handoffs"
let m_direct_takes = Obs.Metrics.counter "token.direct_takes"
let m_seized = Obs.Metrics.counter "token.seized_dead"
let h_takeover = Obs.Metrics.histogram "token.takeover_ns"

(* ---- epoch stamping ----------------------------------------------------

   [Token_proto] uses the low [2 * id_bits] bits (holder + requester); we
   stamp 16 bits of the holder's [Rt_dom] epoch directly above them.  The
   stamp travels with every transition — Take/seize stamp the taker's own
   epoch, a grant stamps the *requester's* current epoch (if the requester
   died between posting and the grant, its even epoch makes the token
   immediately seizable by anyone), free clears the stamp.

   Truncation to 16 bits means liveness comparisons are modulo 2^16: a
   false "still alive" would need the same slot to die and be reallocated
   exactly 2^15 times between stamp and check.  Parity (odd = live)
   survives truncation, so a dead stamp is always detected. *)

let epoch_shift = 2 * P.id_bits
let epoch_bits = 16
let epoch_mask = (1 lsl epoch_bits) - 1
let proto_mask = (1 lsl epoch_shift) - 1

let () = assert (epoch_shift + epoch_bits < Sys.int_size)

let[@inline] proto s = s land proto_mask
let[@inline] stamped_epoch s = (s lsr epoch_shift) land epoch_mask
let[@inline] compose w ~epoch = ((epoch land epoch_mask) lsl epoch_shift) lor (w land proto_mask)

(* Current (truncated) epoch of a slot; out-of-range ids — allowed by
   [Token_proto] but impossible as real domains — read as retired. *)
let[@inline] epoch_of slot =
  if slot >= 0 && slot < Rt_dom.max_slots then Rt_dom.epoch slot land epoch_mask else 0

let[@inline] live_at slot ~e16 =
  e16 land 1 = 1
  && slot >= 0 && slot < Rt_dom.max_slots
  && Rt_dom.epoch slot land epoch_mask = e16

(* Is the full state word [s] held by a retired incarnation? *)
let[@inline] holder_dead_word s =
  let p = proto s in
  (not (P.is_free p)) && not (live_at (P.holder p) ~e16:(stamped_epoch s))

type t = {
  state : int Atomic.t;  (** protocol word + holder-epoch stamp *)
  waitmask : int Atomic.t;  (** slots parked waiting for this token *)
  mutable fast_owner : int;  (** plain holder cache; see header comment *)
  mutable inflight : int;  (** holder-written: operations currently open *)
  mutable handoffs : int;  (** holder-written: grants served *)
  name : string;
  uid : int;
}

(* Bounded-park fallback window: a parked requester re-checks liveness (and
   attempts a seize) at least this often even if every notify is lost. *)
let wait_timeout_ns = 50_000_000

(* ---- flight-recorder registry (weak: standalone tokens only) ---- *)

let reg : t Sds_obs.Registry.t = Sds_obs.Registry.create 512
let uid_counter = ref 0

let render_state () =
  let b = Buffer.create 256 in
  Sds_obs.Registry.iteri reg (fun _ t ->
      let s = Atomic.get t.state in
      let p = proto s in
      Buffer.add_string b
        (Printf.sprintf
           "%s#%d holder=%d epoch=%d dead=%b req=%d inflight=%d handoffs=%d waitmask=%#x\n"
           t.name t.uid
           (if P.is_free p then -1 else P.holder p)
           (stamped_epoch s) (holder_dead_word s)
           (if P.has_request p then P.requester p else -1)
           t.inflight t.handoffs (Atomic.get t.waitmask)));
  Buffer.contents b

let () = Sds_obs.Flight.register_state "rt_token" render_state

(* [holder = -1] creates the token free: the first operating domain takes
   it with one CAS.  Used for dispatched endpoints whose eventual owner is
   unknown at creation (a stolen connection lands on a different worker
   than the dispatcher picked). *)
let create_unregistered ?(name = "token") ~holder () =
  if holder < -1 || holder > P.max_id then invalid_arg "Rt_token.create";
  incr uid_counter;
  let state =
    if holder < 0 then compose P.free ~epoch:0
    else compose (P.held ~holder) ~epoch:(epoch_of holder)
  in
  { state = Atomic.make state; waitmask = Atomic.make 0; fast_owner = holder;
    inflight = 0; handoffs = 0; name; uid = !uid_counter }

(* A registered token is promoted to the major heap at the next minor
   collection (see [Sds_obs.Registry]): right for a long-lived token, not
   for the four a connection makes; those come from [create_unregistered]
   and their owner reaps them. *)
let create ?name ~holder () =
  let t = create_unregistered ?name ~holder () in
  Sds_obs.Registry.add reg t;
  t

let holder t =
  let p = proto (Atomic.get t.state) in
  if P.is_free p then -1 else P.holder p

let holder_dead t = holder_dead_word (Atomic.get t.state)

let handoffs t = t.handoffs

(* ---- waitmask helpers (slow path only) ---- *)

let rec mask_set a bit =
  let m = Atomic.get a in
  if m land bit = 0 && not (Atomic.compare_and_set a m (m lor bit)) then mask_set a bit

let rec mask_clear a bit =
  let m = Atomic.get a in
  if m land bit <> 0 && not (Atomic.compare_and_set a m (m land lnot bit)) then
    mask_clear a bit

(* Wake every slot currently registered on the token.  Bits stay set; each
   waiter clears its own on exit, so a spurious notify is the worst case. *)
let wake_waiters t =
  let m = ref (Atomic.get t.waitmask) in
  while !m <> 0 do
    let bit = !m land (- !m) in
    let rec idx b i = if b land 1 = 1 then i else idx (b lsr 1) (i + 1) in
    Waiter.notify (Rt_dom.waiter (idx bit 0));
    m := !m lxor bit
  done

let kick = wake_waiters

(* ---- crash recovery (seize fence) ---- *)

(* Pure guard: may [dom] seize token word [s]?  Never a free token or one
   [dom] already holds; otherwise only when the stamped holder incarnation
   is provably retired (the epoch parity check). *)
let seizable s ~dom =
  let p = proto s in
  (not (P.is_free p))
  && P.holder p <> dom
  && not (live_at (P.holder p) ~e16:(stamped_epoch s))

(* Take a token whose stamped holder incarnation is retired.  The CAS from
   the observed dead-stamped word is the seize fence: it can only succeed
   against the exact word we proved dead, so a live holder (or a racing
   seizer) always wins the race instead of us.  [fast_owner] is cleared
   first — the dead slot id may be reallocated, and a stale cache hit for
   the new incarnation would bypass acquire entirely.

   The [@sds.model] regions here are extracted into the "token-handoff" and
   "token-crash-recovery" Interleave models (lib/check/extract.ml); edits
   must keep test/golden/ in sync or `sdmodel check` fails CI. *)
let[@sds.model "token-crash/seize"] rec try_seize t ~dom =
  let s = Atomic.get t.state in
  if not (seizable s ~dom) then false
  else begin
    t.fast_owner <- -1;
    let next = compose (P.seize (proto s) ~id:dom) ~epoch:(epoch_of dom) in
    if Atomic.compare_and_set t.state s next then begin
      Obs.Metrics.incr m_seized;
      Obs.Trace.emit_n Obs.Trace.Token_takeover dom;
      wake_waiters t;
      true
    end
    else try_seize t ~dom
  end

(* Death-hook reap: grant anything the dead incarnation held to its pending
   requester (stamping the requester's epoch), or free it.  Runs on
   whichever domain won [Rt_dom.declare_dead]: over the registry from the
   hook below, registered at module initialization so it is in place
   before any real-domain traffic, and over unregistered tokens from their
   owner's hook ([Rt_sock] reaps its connections' tokens through its
   lanes). *)
let rec reap t =
  let s = Atomic.get t.state in
  if holder_dead_word s then begin
    t.fast_owner <- -1;
    let p = proto s in
    let next =
      if P.has_request p then compose (P.grant p) ~epoch:(epoch_of (P.requester p))
      else compose P.free ~epoch:0
    in
    if Atomic.compare_and_set t.state s next then begin
      Obs.Metrics.incr m_seized;
      wake_waiters t
    end
    else reap t
  end

let reap_dead _slot =
  (* Snapshot the registry, then work unlocked: reaping wakes waiters and
     never blocks, but holding the registry lock across CAS loops is
     pointless. *)
  List.iter reap (Sds_obs.Registry.to_list reg)

let () = Rt_dom.on_death reap_dead

(* ---- the handoff itself (holder side) ---- *)

(* Drain is over (the operation closed); publish the release fence and wake
   the requester.  CAS loop: the request slot can gain a requester between
   our load and the store, never lose one.  The grant stamps the
   *requester's* epoch — the token's liveness now tracks its new holder. *)
let[@sds.model "token-handoff/grant"] rec grant_now t ~dom =
  let s = Atomic.get t.state in
  let p = proto s in
  if P.should_release p ~id:dom then begin
    if Sds_fault.armed () then Sds_fault.inject "rt_token.grant";
    t.fast_owner <- -1;
    let next = compose (P.grant p) ~epoch:(epoch_of (P.requester p)) in
    if Atomic.compare_and_set t.state s next then begin
      t.handoffs <- t.handoffs + 1;
      Obs.Metrics.incr m_handoffs;
      Obs.Trace.emit_n Obs.Trace.Token_takeover (P.requester p);
      wake_waiters t
    end
    else grant_now t ~dom
  end

(* Operation boundary: one atomic load; the grant path is the cold side. *)
let[@inline] boundary t ~dom =
  if P.should_release (proto (Atomic.get t.state)) ~id:dom then grant_now t ~dom

(* ---- acquire (requester side) ---- *)

(* Bounded park: wait for [ready] (which always includes "the stamped
   holder is dead"), and on timeout attempt the seize directly — progress
   does not depend on any notify arriving. *)
let park_bounded t ~dom ~ready =
  let bit = 1 lsl dom in
  mask_set t.waitmask bit;
  let deadline_ns = Sds_obs.Span.now () + wait_timeout_ns in
  let woke = Waiter.wait_until (Rt_dom.waiter dom) ~deadline_ns ~ready in
  mask_clear t.waitmask bit;
  if not woke && holder_dead_word (Atomic.get t.state) then
    ignore (try_seize t ~dom)

let rec acquire_slow t ~dom =
  let s = Atomic.get t.state in
  if holder_dead_word s && try_seize t ~dom then ()
  else begin
    let p = proto s in
    match P.acquire p ~id:dom with
    | P.Fast -> ()
    | P.Take p' ->
      if Atomic.compare_and_set t.state s (compose p' ~epoch:(epoch_of dom)) then
        Obs.Metrics.incr m_direct_takes
      else acquire_slow t ~dom
    | P.Post p' ->
      (* Keep the holder's epoch stamp: only the holder field's liveness is
         tracked, and posting a request does not change the holder. *)
      if Atomic.compare_and_set t.state s (compose p' ~epoch:(stamped_epoch s)) then begin
        (* Request posted: park until the holder's release fence (or until
           the token frees entirely, or the holder dies), then re-run. *)
        park_bounded t ~dom ~ready:(fun () ->
            let s = Atomic.get t.state in
            let p = proto s in
            P.is_held_by p ~id:dom || P.is_free p || holder_dead_word s);
        acquire_slow t ~dom
      end
      else acquire_slow t ~dom
    | P.Wait ->
      (* Someone else's request is in flight; wait for the slot to clear. *)
      park_bounded t ~dom ~ready:(fun () ->
          let s = Atomic.get t.state in
          let p = proto s in
          P.is_held_by p ~id:dom || P.is_free p || holder_dead_word s
          || not (P.has_request p));
      acquire_slow t ~dom
  end

(* Cold takeover entry: measures request → resume as [token.takeover_ns]. *)
let[@inline never] acquire_cold t ~dom =
  let t0 = Sds_obs.Span.now () in
  acquire_slow t ~dom;
  t.fast_owner <- dom;
  Obs.Metrics.observe h_takeover (Sds_obs.Span.now () - t0)

let acquire t ~dom = if t.fast_owner <> dom then acquire_cold t ~dom

(* ---- the operation window ---- *)

let with_held t ~dom f =
  if t.fast_owner <> dom then acquire_cold t ~dom;
  (* The liveness heartbeat: one plain store per operation (§4.3), so the
     reaper can tell a crashed worker from a busy one. *)
  Rt_dom.beat dom;
  t.inflight <- t.inflight + 1;
  match f () with
  | r ->
    t.inflight <- t.inflight - 1;
    boundary t ~dom;
    r
  | exception e ->
    t.inflight <- t.inflight - 1;
    boundary t ~dom;
    raise e

(* ---- explicit relinquish (EOF / close / ownership transfer) ---- *)

let rec release t ~dom =
  let s = Atomic.get t.state in
  let p = proto s in
  if P.is_held_by p ~id:dom then begin
    t.fast_owner <- -1;
    let p' = P.release p ~id:dom in
    let next =
      if P.has_request p then compose p' ~epoch:(epoch_of (P.requester p))
      else compose p' ~epoch:0
    in
    if Atomic.compare_and_set t.state s next then begin
      if P.has_request p then begin
        t.handoffs <- t.handoffs + 1;
        Obs.Metrics.incr m_handoffs
      end;
      wake_waiters t
    end
    else release t ~dom
  end
