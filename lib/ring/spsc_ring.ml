(* The per-socket allocation-free ring buffer of §4.2 — the real thing.

   Messages are stored back-to-back in one contiguous byte ring: an 8-byte
   header (4-byte length, 2-byte flags, 2-byte checksum of the header) is
   followed immediately by the payload, padded to 8-byte alignment so header
   reads are aligned.  There is no per-packet buffer allocation and no
   metadata ring: enqueue is a bounds check plus two stores and a blit.

   Cross-core operation (OCaml 5 domains).  The ring is safe for one
   producer domain and one consumer domain running concurrently:

   - [tail] is an [Atomic.t].  The producer writes payload bytes first, then
     the header, then publishes with [Atomic.set tail] — an SC store, so by
     the OCaml memory model every plain [Bytes] write the producer made
     happens-before any consumer read that observes the new tail.  The
     consumer polls [Atomic.get tail]; it can never see a half-written
     payload (§4.2's payload-then-header publication argument, with the
     atomic tail store standing in for x86 total store order).
   - [credits] is an [Atomic.t] counter of free bytes.  Only the producer
     subtracts (spend on enqueue) and only the consumer adds (credit
     return), so a check-then-fetch_and_add on the producer side is safe:
     credits can only grow between the check and the subtraction.  The
     credit return also carries the happens-before edge that makes it safe
     for the producer to overwrite the freed region.
   - [head] and the consumer-side counters are consumer-private; the
     producer never reads them (flow control is purely credit-based).
     Producer-private and consumer-private mutable state live in separate
     heap blocks padded to a cache line so the two domains do not false-share.

   The header checksum guards against torn or corrupt headers (e.g. a
   misbehaving peer scribbling on shared memory): it folds all 32 bits of
   the length, the flags, and a non-zero constant — so an all-zero header
   never validates — and a failed check makes the message invisible rather
   than decoding garbage.

   Flow control is credit-based exactly as in the paper: the sender spends
   [credits] bytes per enqueue; the receiver counts consumed bytes and posts
   a credit return once it crosses half the ring, which the transport layer
   delivers back to the sender (in shared memory this is a single flag write;
   under RDMA it rides an RDMA write).  [dequeue ~auto_credit:true] performs
   the return synchronously, which is what a bare in-process queue does.

   Single-producer / single-consumer by design — SocksDirect guarantees one
   active sender and one active receiver per direction via tokens, which is
   precisely what removes the per-operation lock. *)

let header_bytes = 8
let align = 8

(* Unaligned fixed-width access into [Bytes.t] without bounds checks; every
   use is behind an explicit in-range test. *)
external unsafe_get_int32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_int32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_get_int64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_int64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Producer-private mutable state, padded with dummy fields so the block
   spans a cache line of its own.  The stats fields double as this ring's
   observability cells: they are single-writer plain ints, so recording
   costs one add with no sharing — the process-global registry reads them
   through probes (see the Obs integration at the bottom of this file). *)
type prod = {
  mutable enqueued : int;
  mutable enq_bytes : int;  (** payload bytes accepted *)
  mutable batches : int;  (** enqueue_batch calls that published *)
  mutable full_events : int;  (** enqueue attempts rejected for credits *)
  mutable was_full : int;  (** 1 after a rejected attempt, for edge-triggered tracing *)
  mutable tx_need : int;  (** ring bytes the blocked producer is waiting for *)
  mutable p0 : int;
  mutable p1 : int;
}

(* Consumer-private mutable state, same padding trick. *)
type cons = {
  mutable head : int;  (** consumer position (absolute, monotonically grows) *)
  mutable pending_return : int;  (** consumed bytes not yet returned *)
  mutable dequeued : int;
  mutable deq_bytes : int;  (** payload bytes copied out *)
  mutable credit_returns : int;  (** batched credit-return flags posted *)
  mutable c0 : int;
  mutable c1 : int;
  mutable c2 : int;
}

type t = {
  buf : Bytes.t;
  size : int;  (** power of two *)
  mask : int;
  tail : int Atomic.t;  (** producer position (absolute); the publication point *)
  credits : int Atomic.t;  (** free bytes: producer subtracts, consumer adds *)
  prod : prod;
  cons : cons;
  (* §4.4 event notification, stored alongside the ring atomics: the
     producer checks the consumer's parked flag ([rx_waiter]'s state cell)
     with one load after every publication, and the consumer symmetrically
     wakes a credit-starved producer through [tx_waiter] on credit return.
     [rx_waiter] is mutable so N rings can share one waiter ([wait_any],
     the per-process epoll-thread shape). *)
  mutable rx_waiter : Sds_notify.Waiter.t;
  tx_waiter : Sds_notify.Waiter.t;
  rx_ready : unit -> bool;  (** preallocated: ring non-empty *)
  tx_ready : unit -> bool;  (** preallocated: credits cover [prod.tx_need] *)
  (* Span track: preallocated stamp slots correlating publish and dequeue
     times by sequence number ([Sds_obs.Span]).  The producer stamps
     before the tail release, so the stamp rides the same happens-before
     edge as the payload. *)
  span : Sds_obs.Span.track;
  (* Spacer blocks allocated between the two atomics at [create] time, kept
     live here so the atomics stay on distinct cache lines. *)
  _pad0 : int array;
  _pad1 : int array;
}

(* ---- observability integration ----

   The enqueue/dequeue fast paths are too hot for even a sharded registry
   add (the whole budget is a few nanoseconds), so rings keep their stats in
   their own single-writer padded fields and the registry reads them through
   probes at snapshot time.  Live rings are tracked through a weak
   [Sds_obs.Registry] (so observability never extends a ring's lifetime); a
   finalizer folds a dying ring's totals into the [retired] accumulator,
   keeping every probe value monotone across GC.  [retired_mu] is never
   held across a registry walk, so a finalizer running inside one cannot
   find it taken. *)

module Obs = Sds_obs.Obs
module Span = Sds_obs.Span

type retired_totals = {
  mutable r_created : int;
  mutable r_enqueued : int;
  mutable r_enq_bytes : int;
  mutable r_batches : int;
  mutable r_full : int;
  mutable r_dequeued : int;
  mutable r_deq_bytes : int;
  mutable r_credit_returns : int;
}

let retired =
  { r_created = 0; r_enqueued = 0; r_enq_bytes = 0; r_batches = 0; r_full = 0; r_dequeued = 0;
    r_deq_bytes = 0; r_credit_returns = 0 }

let retired_mu = Mutex.create ()
let live : t Sds_obs.Registry.t = Sds_obs.Registry.create 64

let obs_retire t =
  Mutex.lock retired_mu;
  retired.r_enqueued <- retired.r_enqueued + t.prod.enqueued;
  retired.r_enq_bytes <- retired.r_enq_bytes + t.prod.enq_bytes;
  retired.r_batches <- retired.r_batches + t.prod.batches;
  retired.r_full <- retired.r_full + t.prod.full_events;
  retired.r_dequeued <- retired.r_dequeued + t.cons.dequeued;
  retired.r_deq_bytes <- retired.r_deq_bytes + t.cons.deq_bytes;
  retired.r_credit_returns <- retired.r_credit_returns + t.cons.credit_returns;
  Mutex.unlock retired_mu

let obs_register t =
  Mutex.lock retired_mu;
  retired.r_created <- retired.r_created + 1;
  Mutex.unlock retired_mu;
  Sds_obs.Registry.add live t;
  Gc.finalise obs_retire t

let fold_live f base = Sds_obs.Registry.fold live (fun t acc -> acc + f t) base

(* Global histogram of vectored-enqueue batch sizes: one observe per
   [enqueue_batch] call, amortized over the whole batch. *)
let h_batch_size = Obs.Metrics.histogram "ring.batch_size"

let () =
  Obs.Metrics.probe "ring.created" (fun () -> retired.r_created);
  Obs.Metrics.probe "ring.enqueues" (fun () -> fold_live (fun t -> t.prod.enqueued) retired.r_enqueued);
  Obs.Metrics.probe "ring.enqueue_bytes" (fun () -> fold_live (fun t -> t.prod.enq_bytes) retired.r_enq_bytes);
  Obs.Metrics.probe "ring.batches" (fun () -> fold_live (fun t -> t.prod.batches) retired.r_batches);
  Obs.Metrics.probe "ring.full_events" (fun () -> fold_live (fun t -> t.prod.full_events) retired.r_full);
  Obs.Metrics.probe "ring.dequeues" (fun () -> fold_live (fun t -> t.cons.dequeued) retired.r_dequeued);
  Obs.Metrics.probe "ring.dequeue_bytes" (fun () -> fold_live (fun t -> t.cons.deq_bytes) retired.r_deq_bytes);
  Obs.Metrics.probe "ring.credit_returns" (fun () ->
      fold_live (fun t -> t.cons.credit_returns) retired.r_credit_returns);
  (* Flight-recorder state provider: cursors, credits and waiter park flags
     of every live ring — the first thing to read in a deadlock dump. *)
  Sds_obs.Flight.register_state "ring" (fun () ->
      let b = Buffer.create 256 in
      Sds_obs.Registry.iteri live (fun i t ->
          Buffer.add_string b
            (Printf.sprintf
               "ring=%d size=%d tail=%d head=%d credits=%d enqueued=%d dequeued=%d pending_return=%d rx_parked=%b tx_parked=%b\n"
               i t.size (Atomic.get t.tail) t.cons.head (Atomic.get t.credits) t.prod.enqueued
               t.cons.dequeued t.cons.pending_return
               (Sds_notify.Waiter.parked t.rx_waiter)
               (Sds_notify.Waiter.parked t.tx_waiter)));
      Buffer.contents b)

(* Edge-triggered full/stall bookkeeping: counts every rejected attempt but
   emits one trace event per full episode, so a spinning producer cannot
   flood the trace ring. *)
let[@inline] [@sds.hot] note_reject (t : t) tag =
  t.prod.full_events <- t.prod.full_events + 1;
  if t.prod.was_full = 0 then begin
    t.prod.was_full <- 1;
    Obs.Trace.emit tag
  end

let default_size = 64 * 1024

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create_unregistered ?(size = default_size) () =
  if not (is_power_of_two size) then invalid_arg "Spsc_ring.create: size must be a power of two";
  if size < 64 then invalid_arg "Spsc_ring.create: size too small";
  let tail = Atomic.make 0 in
  let pad0 = Array.make 8 0 in
  let credits = Atomic.make size in
  let pad1 = Array.make 8 0 in
  (* [let rec]: the readiness closures are preallocated here, once, so the
     blocking wait paths never build a closure per call. *)
  let rec t =
    {
      buf = Bytes.create size;
      size;
      mask = size - 1;
      tail;
      credits;
      prod =
        { enqueued = 0; enq_bytes = 0; batches = 0; full_events = 0; was_full = 0; tx_need = 0;
          p0 = 0; p1 = 0 };
      cons = { head = 0; pending_return = 0; dequeued = 0; deq_bytes = 0; credit_returns = 0; c0 = 0; c1 = 0; c2 = 0 };
      rx_waiter = Sds_notify.Waiter.create ();
      tx_waiter = Sds_notify.Waiter.create ();
      rx_ready = (fun () -> t.cons.head <> Atomic.get t.tail);
      tx_ready = (fun () -> Atomic.get t.credits >= t.prod.tx_need);
      span = Sds_obs.Span.make_track ();
      _pad0 = pad0;
      _pad1 = pad1;
    }
  in
  t

let create ?size () =
  let t = create_unregistered ?size () in
  obs_register t;
  t

let capacity t = t.size
let credits t = Atomic.get t.credits
let used t = Atomic.get t.tail - t.cons.head
let is_empty t = t.cons.head = Atomic.get t.tail
let enqueued t = t.prod.enqueued
let dequeued t = t.cons.dequeued
let pending_return t = t.cons.pending_return

let record_bytes len = (header_bytes + len + align - 1) land lnot (align - 1)

(* Producer-side API-entry stamp for the message about to be enqueued (its
   sequence number is [prod.enqueued]); lets callers attribute their own
   staging work to [span.app] ahead of the publish stamp. *)
let[@inline] [@sds.hot] stamp_send t = Span.stamp_send t.span ~seq:t.prod.enqueued

(* Wrap-around blit of [len] bytes from [src] into the ring at absolute
   position [pos]. *)
let[@sds.hot] blit_in t src src_off pos len =
  let off = pos land t.mask in
  let first = min len (t.size - off) in
  Bytes.blit src src_off t.buf off first;
  if first < len then Bytes.blit src (src_off + first) t.buf 0 (len - first)

let[@sds.hot] blit_out t pos dst dst_off len =
  let off = pos land t.mask in
  let first = min len (t.size - off) in
  Bytes.blit t.buf off dst dst_off first;
  if first < len then Bytes.blit t.buf 0 dst (dst_off + first) (len - first)

(* Fold all 32 bits of [len] and all 16 of [flags] into 16 bits.  The
   non-zero constant keeps an all-zero header (fresh or zeroed shared
   memory) from validating as an empty message. *)
let[@sds.hot] header_checksum len flags =
  let x = len lxor (len lsr 16) in
  let x = x lxor (x lsl 5) lxor flags lxor 0x9E37 in
  x land 0xFFFF

(* Positions only ever advance by [record_bytes] (a multiple of 8) from 0,
   so the 8-byte header is always contiguous and the fast path below always
   hits; the byte-wise slow path is kept for generality should alignment
   rules ever change. *)
let[@sds.hot] write_header t pos len flags =
  let off = pos land t.mask in
  if off + header_bytes <= t.size then begin
    unsafe_set_int32 t.buf off (Int32.of_int len);
    unsafe_set_int32 t.buf (off + 4)
      (Int32.of_int (flags lor (header_checksum len flags lsl 16)))
  end
  else
    ((* Unreachable while positions stay 8-byte aligned; kept for
        generality and exempt from the hot-alloc rule. *)
     let sum = header_checksum len flags in
     let byte i =
       if i < 4 then (len lsr (8 * i)) land 0xFF
       else if i < 6 then (flags lsr (8 * (i - 4))) land 0xFF
       else (sum lsr (8 * (i - 6))) land 0xFF
     in
     for i = 0 to header_bytes - 1 do
       Bytes.unsafe_set t.buf ((pos + i) land t.mask) (Char.unsafe_chr (byte i))
     done)
    [@sds.cold]

(* Headers decode to a packed immediate — [len lor (flags lsl 32)], or
   [-1] when the checksum rejects — so the hot path allocates nothing. *)
let no_msg = -1

let[@sds.hot] decode_header t pos =
  let off = pos land t.mask in
  if off + header_bytes <= t.size then begin
    let len = Int32.to_int (unsafe_get_int32 t.buf off) in
    let hi = Int32.to_int (unsafe_get_int32 t.buf (off + 4)) land 0xFFFFFFFF in
    let flags = hi land 0xFFFF in
    let sum = (hi lsr 16) land 0xFFFF in
    if sum <> header_checksum len flags || len < 0 || record_bytes len > t.size / 2 then no_msg
    else len lor (flags lsl 32)
  end
  else
    ((* Unreachable while positions stay 8-byte aligned, like the
        [write_header] slow path. *)
     let byte i = Char.code (Bytes.unsafe_get t.buf ((pos + i) land t.mask)) in
     let word i n =
       let rec go k acc = if k = n then acc else go (k + 1) (acc lor (byte (i + k) lsl (8 * k))) in
       go 0 0
     in
     let len = word 0 4 and flags = word 4 2 and sum = word 6 2 in
     if sum <> header_checksum len flags || len < 0 || record_bytes len > t.size / 2 then no_msg
     else len lor (flags lsl 32))
    [@sds.cold]

let[@inline] packed_len p = p land 0xFFFFFFFF
let[@inline] packed_flags p = (p lsr 32) land 0xFFFF

(* ---- page-descriptor records (§4.6 zero-copy handoff) ----

   A record whose header carries [flag_desc] holds no payload bytes: its
   body is a vector of 8-byte page descriptors, each packing
   {page id, offset, length} of a 4 KiB page in a shared [Sds_vm.Pagepool].
   Enqueuing a descriptor vector transfers the pages' references to the
   consumer (ownership handoff); the payload itself never crosses the ring.
   The ring stays pool-agnostic — descriptors are opaque ints here; the
   transport layer pairs them with the pool that gives them meaning. *)

let flag_desc = 0x100

(* Descriptor layout (fits a 63-bit int): bits 0-12 length (<= 4096),
   13-25 offset (< 4096), 26+ page id. *)
let desc_len_mask = 0x1FFF
let desc_max_page = (1 lsl 36) - 1

let desc_entry ~page ~off ~len =
  if len < 0 || len > 4096 then invalid_arg "Spsc_ring.desc_entry: bad length";
  if off < 0 || off >= 4096 then invalid_arg "Spsc_ring.desc_entry: bad offset";
  if page < 0 || page > desc_max_page then invalid_arg "Spsc_ring.desc_entry: bad page id";
  len lor (off lsl 13) lor (page lsl 26)

let[@inline] desc_len e = e land desc_len_mask
let[@inline] desc_off e = (e lsr 13) land desc_len_mask
let[@inline] desc_page e = e lsr 26

let[@inline] is_desc_packed p = packed_flags p land flag_desc <> 0
let[@inline] desc_count_packed p = packed_len p lsr 3

let read_header t pos =
  let p = decode_header t pos in
  if p = no_msg then None else Some (packed_len p, packed_flags p)

(* Attempt to enqueue [len] bytes of [src] (with [flags] in the header).
   Returns [false] when the sender lacks credits — never overwrites. *)
let[@sds.hot] try_enqueue ?(flags = 0) t src ~off ~len =
  if len < 0 || off < 0 || off + len > Bytes.length src then invalid_arg "Spsc_ring.try_enqueue";
  let need = record_bytes len in
  if need > t.size / 2 then invalid_arg "Spsc_ring.try_enqueue: message larger than half ring";
  if need > Atomic.get t.credits then begin
    note_reject t Obs.Trace.Ring_full;
    false
  end
  else begin
    (* Payload first, then the header, then the atomic tail store: the
       consumer acquires through [tail], so it never reads a half-written
       record (§4.2 consistency argument).  The [@sds.model] region below is
       extracted verbatim into the "ring-publication" Interleave model
       (see lib/check/extract.ml) — edits here must keep the golden model in
       test/golden/ in sync, or `sdmodel check` fails CI. *)
    begin
      let tail = Atomic.get t.tail in
      blit_in t src off (tail + header_bytes) len;
      write_header t tail len flags;
      Span.stamp_pub t.span ~seq:t.prod.enqueued;
      (* Spend credits BEFORE publishing the tail.  The consumer can dequeue
         the instant the tail store lands; if its batched credit return fired
         in the publish->spend window, [return_credits] would see
         credits + returned > capacity and reject a correct return.  Spending
         first keeps spends-landed >= published >= consumed at every
         interleaving, so the capacity invariant holds unconditionally. *)
      ignore (Atomic.fetch_and_add t.credits (-need));
      Atomic.set t.tail (tail + need);
      t.prod.enqueued <- t.prod.enqueued + 1;
      t.prod.enq_bytes <- t.prod.enq_bytes + len;
      t.prod.was_full <- 0;
      (* §4.4 sender-mediated wakeup: one load of the consumer's parked flag;
         the mutex path runs at most once per parked episode. *)
      Sds_notify.Waiter.notify t.rx_waiter;
      true
    end [@sds.model "ring-publication/producer"]
  end

(* Vectored enqueue: writes as many of [srcs.(pos .. pos+n-1)] as credits
   allow, publishing the tail once and spending credits once for the whole
   batch — the amortization behind the paper's adaptive batching (§4.2).
   The window lets a caller retry the rest of a batch without copying it.
   Returns how many messages of the window's prefix were enqueued; an
   invalid entry raises before anything is published. *)
let[@sds.hot] enqueue_batch ?(flags = 0) t srcs ~pos ~n =
  if pos < 0 || n < 0 || pos + n > Array.length srcs then invalid_arg "Spsc_ring.enqueue_batch";
  let budget = ref (Atomic.get t.credits) in
  let tail0 = Atomic.get t.tail in
  let tail = ref tail0 in
  let i = ref 0 in
  let bytes = ref 0 in
  let stop = ref false in
  while (not !stop) && !i < n do
    let src, off, len = srcs.(pos + !i) in
    if len < 0 || off < 0 || off + len > Bytes.length src then
      invalid_arg "Spsc_ring.enqueue_batch";
    let need = record_bytes len in
    if need > t.size / 2 then invalid_arg "Spsc_ring.enqueue_batch: message larger than half ring";
    if need > !budget then stop := true
    else begin
      blit_in t src off (!tail + header_bytes) len;
      write_header t !tail len flags;
      tail := !tail + need;
      budget := !budget - need;
      bytes := !bytes + len;
      incr i
    end
  done;
  if !i > 0 then begin
    (* Stamp every sampled sequence of the batch (the consumer derives the
       sampled set from the sequence number alone, so producer and consumer
       must agree even mid-batch); unsampled iterations are one branch. *)
    for j = 0 to !i - 1 do
      Span.stamp_pub t.span ~seq:(t.prod.enqueued + j)
    done;
    (* Spend before publish, as in [try_enqueue]: the consumer must never
       observe a published record whose credit spend hasn't landed. *)
    ignore (Atomic.fetch_and_add t.credits (tail0 - !tail));
    Atomic.set t.tail !tail;
    t.prod.enqueued <- t.prod.enqueued + !i;
    t.prod.enq_bytes <- t.prod.enq_bytes + !bytes;
    t.prod.batches <- t.prod.batches + 1;
    t.prod.was_full <- 0;
    Obs.Metrics.observe h_batch_size !i;
    Obs.Trace.emit_n Obs.Trace.Batch !i;
    (* One wakeup check per published batch (amortized like the tail store). *)
    Sds_notify.Waiter.notify t.rx_waiter
  end;
  if !stop then note_reject t Obs.Trace.Credit_stall;
  !i

(* Enqueue the first [n] descriptors of [entries] as one [flag_desc]
   record.  Same credit/publication discipline as [try_enqueue]; the body
   is written with aligned 8-byte stores (positions advance by multiples of
   8 from 0, so an entry never straddles the wrap).  Publishing transfers
   the page references to the consumer. *)
let[@sds.hot] try_enqueue_descs ?(flags = 0) t entries ~n =
  if n <= 0 || n > Array.length entries then invalid_arg "Spsc_ring.try_enqueue_descs";
  let len = 8 * n in
  let need = record_bytes len in
  if need > t.size / 2 then
    invalid_arg "Spsc_ring.try_enqueue_descs: descriptor vector larger than half ring";
  if need > Atomic.get t.credits then begin
    note_reject t Obs.Trace.Ring_full;
    false
  end
  else begin
    let tail = Atomic.get t.tail in
    for i = 0 to n - 1 do
      unsafe_set_int64 t.buf
        ((tail + header_bytes + (8 * i)) land t.mask)
        (Int64.of_int (Array.unsafe_get entries i))
    done;
    write_header t tail len (flags lor flag_desc);
    Span.stamp_pub t.span ~seq:t.prod.enqueued;
    (* Spend before publish (see [try_enqueue]). *)
    ignore (Atomic.fetch_and_add t.credits (-need));
    Atomic.set t.tail (tail + need);
    t.prod.enqueued <- t.prod.enqueued + 1;
    t.prod.enq_bytes <- t.prod.enq_bytes + len;
    t.prod.was_full <- 0;
    Sds_notify.Waiter.notify t.rx_waiter;
    true
  end

type dequeued = { data : Bytes.t; flags : int }

(* Credit return the consumer owes the producer; the transport delivers it by
   calling [return_credits].  Returns 0 until half the ring has been
   consumed, matching the paper's batched credit-return flag. *)
let[@sds.hot] take_credit_return t =
  if t.cons.pending_return >= t.size / 2 then begin
    let r = t.cons.pending_return in
    t.cons.pending_return <- 0;
    t.cons.credit_returns <- t.cons.credit_returns + 1;
    r
  end
  else 0

let[@sds.hot] return_credits t n =
  if n < 0 || Atomic.get t.credits + n > t.size then invalid_arg "Spsc_ring.return_credits";
  ignore (Atomic.fetch_and_add t.credits n);
  Sds_notify.Waiter.notify t.tx_waiter

(* Consumer-side bookkeeping after a message of ring footprint [consumed]
   (payload [len]) has been copied out. *)
let[@inline] [@sds.hot] consume t consumed len auto_credit =
  Span.note_deq t.span ~seq:t.cons.dequeued;
  t.cons.head <- t.cons.head + consumed;
  t.cons.pending_return <- t.cons.pending_return + consumed;
  t.cons.dequeued <- t.cons.dequeued + 1;
  t.cons.deq_bytes <- t.cons.deq_bytes + len;
  if auto_credit then begin
    let r = t.cons.pending_return in
    t.cons.pending_return <- 0;
    t.cons.credit_returns <- t.cons.credit_returns + 1;
    ignore (Atomic.fetch_and_add t.credits r);
    Sds_notify.Waiter.notify t.tx_waiter
  end

let try_dequeue ?(auto_credit = false) t =
  if is_empty t then None
  else
    match read_header t t.cons.head with
    | None -> None
    | Some (len, flags) ->
      let data = Bytes.create len in
      blit_out t (t.cons.head + header_bytes) data 0 len;
      consume t (record_bytes len) len auto_credit;
      Some { data; flags }

(* The zero-allocation dequeue primitive: copies the next payload straight
   into [dst] and returns the packed [len lor (flags lsl 32)] immediate, or
   [no_msg] (-1) when the ring is empty or the header invalid.  Raises when
   [dst] cannot hold the message (use [peek_packed] to size it). *)
let[@sds.hot] try_dequeue_packed ?(auto_credit = false) t ~dst ~dst_off =
  if is_empty t then no_msg
  else begin
    let p = decode_header t t.cons.head in
    if p = no_msg then no_msg
    else begin
      let len = packed_len p in
      if dst_off < 0 || dst_off + len > Bytes.length dst then
        invalid_arg "Spsc_ring.try_dequeue_into: buffer too small";
      blit_out t (t.cons.head + header_bytes) dst dst_off len;
      consume t (record_bytes len) len auto_credit;
      p
    end
  end

(* Dequeue the next record's descriptor vector into [entries] and return
   the packed immediate ([desc_count_packed] gives the entry count), or
   [no_msg] when the ring is empty/invalid.  The pages' references now
   belong to the caller, which must release (or further hand off) each one.
   Raises if the next record is not descriptor-flagged — callers peek the
   flags first ([peek_packed]). *)
let[@sds.hot] try_dequeue_descs ?(auto_credit = false) t ~entries =
  if is_empty t then no_msg
  else begin
    let p = decode_header t t.cons.head in
    if p = no_msg then no_msg
    else begin
      let len = packed_len p in
      if packed_flags p land flag_desc = 0 then
        invalid_arg "Spsc_ring.try_dequeue_descs: next record is not a descriptor (peek first)";
      let n = len lsr 3 in
      if n > Array.length entries then
        invalid_arg "Spsc_ring.try_dequeue_descs: entries buffer too small";
      for i = 0 to n - 1 do
        Array.unsafe_set entries i
          (Int64.to_int
             (unsafe_get_int64 t.buf ((t.cons.head + header_bytes + (8 * i)) land t.mask)))
      done;
      consume t (record_bytes len) len auto_credit;
      p
    end
  end

(* Option-typed convenience over [try_dequeue_packed] (the [Some] box is
   the only allocation). *)
let try_dequeue_into ?auto_credit t ~dst ~dst_off =
  let p = try_dequeue_packed ?auto_credit t ~dst ~dst_off in
  if p = no_msg then None else Some (packed_len p, packed_flags p)

(* Batched dequeue, the receive-side twin of [enqueue_batch]: copies up to
   [max] consecutive flag-free records, each whole and back to back, into
   [dst.(dst_off .. dst_off+len-1)] and returns the bytes copied.  The tail
   is read once, so the producer's line is touched once per batch, not per
   record.  Stops at the tail snapshot, at a flagged record (FIN,
   descriptor: the caller dispatches those), at a header that fails its
   checksum, at a record that does not fit whole in what is left of [len],
   and after [max] records.  Every record gets [consume]'s bookkeeping;
   credits stay pending for the caller to return once. *)
let[@sds.hot] drain t ~dst ~dst_off ~len ~max =
  if dst_off < 0 || len < 0 || dst_off + len > Bytes.length dst then invalid_arg "Spsc_ring.drain";
  let tail = Atomic.get t.tail in
  let stop = dst_off + len in
  let pos = ref dst_off in
  let k = ref 0 in
  let more = ref true in
  while !more && !k < max && t.cons.head <> tail do
    let p = decode_header t t.cons.head in
    if p = no_msg || packed_flags p <> 0 || !pos + packed_len p > stop then more := false
    else begin
      let l = packed_len p in
      blit_out t (t.cons.head + header_bytes) dst !pos l;
      consume t (record_bytes l) l false;
      pos := !pos + l;
      incr k
    end
  done;
  !pos - dst_off

(* Peek the next message without consuming it: packed immediate, [no_msg]
   when empty or invalid. *)
let[@sds.hot] peek_packed t = if is_empty t then no_msg else decode_header t t.cons.head

let peek_len t =
  let p = peek_packed t in
  if p = no_msg then None else Some (packed_len p)

(* ---- blocking operation, via the §4.4 event-notification subsystem ----

   The consumer parks on [rx_waiter] when the ring is empty; the producer's
   tail publication notifies it (one parked-flag load on the hot path).  A
   credit-starved producer parks on [tx_waiter]; the consumer's credit
   return notifies it.  The readiness closures were preallocated at
   [create], so waiting allocates nothing. *)

let wait_rx t = Sds_notify.Waiter.wait t.rx_waiter ~ready:t.rx_ready

let wait_tx t ~len =
  t.prod.tx_need <- record_bytes len;
  Sds_notify.Waiter.wait t.tx_waiter ~ready:t.tx_ready

let rx_waiter t = t.rx_waiter
let tx_waiter t = t.tx_waiter

(* Share one waiter across N rings for [Waiter.wait_any]; all producers of
   those rings then notify the shared waiter. *)
let set_rx_waiter t w = t.rx_waiter <- w

let rec enqueue_blocking ?(flags = 0) t src ~off ~len =
  if not (try_enqueue ~flags t src ~off ~len) then begin
    wait_tx t ~len;
    enqueue_blocking ~flags t src ~off ~len
  end

(* Blocks while the ring is empty.  A header that fails its checksum (a
   corrupt peer) also reads as "empty", so this parks rather than decoding
   garbage — the non-blocking [try_dequeue_packed] is the probing flavour. *)
let rec dequeue_packed_blocking ?(auto_credit = false) t ~dst ~dst_off =
  let p = try_dequeue_packed ~auto_credit t ~dst ~dst_off in
  if p <> no_msg then p
  else begin
    wait_rx t;
    dequeue_packed_blocking ~auto_credit t ~dst ~dst_off
  end

(* Test-only access to the underlying storage, for corruption-injection
   tests of the header checksum. *)
module For_testing = struct
  let buf t = t.buf
  let head_offset t = t.cons.head land t.mask
end

