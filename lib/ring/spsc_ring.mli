(** The per-socket allocation-free ring buffer of §4.2.

    Single-producer / single-consumer; messages stored back-to-back with an
    8-byte header; credit-based flow control with batched credit return.

    Safe for one producer domain and one consumer domain concurrently: the
    tail is an atomic whose store publishes the payload-then-header writes
    (release/acquire through the OCaml memory model's SC atomics), and the
    credit counter is an atomic that only the producer decrements and only
    the consumer increments.  The non-wrapping fast path performs no
    allocation in either direction ([try_enqueue] / [try_dequeue_into]).

    Invariant: [credits + pending-return + used = capacity] (counting any
    credit return currently in flight between [take_credit_return] and
    [return_credits] as pending), and a message occupies at most half the
    ring, so a blocked sender always becomes unblocked once the consumer
    drains the ring (no credit deadlock). *)

type t

val header_bytes : int

val create : ?size:int -> unit -> t
(** [size] must be a power of two [>= 64]; default 64 KiB. *)

val create_unregistered : ?size:int -> unit -> t
(** [create] left out of the [ring.*] metrics: for placeholders that never
    carry traffic. *)

val capacity : t -> int
val credits : t -> int
(** Producer-side view of free bytes. *)

val used : t -> int
val is_empty : t -> bool
val enqueued : t -> int
val dequeued : t -> int

val pending_return : t -> int
(** Consumer-side bytes consumed but not yet returned as credits. *)

val record_bytes : int -> int
(** Ring bytes occupied by a message of the given payload length. *)

val stamp_send : t -> unit
(** [Sds_obs.Span] API-entry stamp for the message about to be enqueued;
    attributes caller-side staging between here and the publish stamp to
    [span.app].  Sampled and allocation-free (one branch when unsampled). *)

val header_checksum : int -> int -> int
(** [header_checksum len flags] — the 16-bit header guard.  Folds all 32
    bits of [len]; an all-zero header never validates.  Exposed for
    corruption-detection tests. *)

val try_enqueue : ?flags:int -> t -> Bytes.t -> off:int -> len:int -> bool
(** [false] when the sender lacks credits.  Raises [Invalid_argument] when
    the message alone exceeds half the ring (the zero-copy path must be used
    for those).  Allocation-free. *)

val enqueue_batch : ?flags:int -> t -> (Bytes.t * int * int) array -> pos:int -> n:int -> int
(** Vectored enqueue of the [(src, off, len)] messages
    [srcs.(pos .. pos+n-1)]: writes the longest prefix that fits in the
    available credits, publishing the tail and spending credits once for
    the whole batch (§4.2 adaptive batching).  Returns the number of
    messages enqueued.  Raises [Invalid_argument] on a bad window or entry
    (a range outside its buffer, a message over half the ring) before
    publishing anything.  Allocation-free. *)

type dequeued = { data : Bytes.t; flags : int }

val try_dequeue : ?auto_credit:bool -> t -> dequeued option
(** [auto_credit] returns credits synchronously (bare in-process queue); the
    default leaves them pending for the transport to deliver.  Allocates the
    returned payload; the hot path should prefer [try_dequeue_into]. *)

val try_dequeue_into : ?auto_credit:bool -> t -> dst:Bytes.t -> dst_off:int -> (int * int) option
(** Dequeue straight into the caller's buffer; returns [Some (len, flags)].
    Raises [Invalid_argument] when [dst] cannot hold the next message (use
    [peek_len] to size it).  The [Some] box is the only allocation; the
    fully allocation-free primitive underneath is [try_dequeue_packed]. *)

val no_msg : int
(** The [-1] sentinel returned by the packed dequeue/peek primitives. *)

val try_dequeue_packed : ?auto_credit:bool -> t -> dst:Bytes.t -> dst_off:int -> int
(** Zero-allocation dequeue primitive: copies the next payload into [dst]
    and returns the packed immediate [len lor (flags lsl 32)], or [no_msg]
    when the ring is empty / the header fails its checksum.  Decompose with
    [packed_len] / [packed_flags]. *)

val packed_len : int -> int
val packed_flags : int -> int

val peek_packed : t -> int
(** Packed peek of the next message without consuming it; [no_msg] when
    empty or invalid. *)

val drain : t -> dst:Bytes.t -> dst_off:int -> len:int -> max:int -> int
(** Batched dequeue: copies up to [max] consecutive flag-free records, each
    whole and back to back, into [[dst_off, dst_off+len)] and returns the
    bytes copied.  Reads the tail once; stops at that snapshot, at a
    flagged record (left for [peek_packed]), at a header failing its
    checksum and at a record that does not fit whole in the rest of [len].
    Credits stay pending ([take_credit_return]).  Allocation-free. *)

val take_credit_return : t -> int
(** Credits the consumer owes; non-zero only once half the ring has been
    consumed (batched credit-return flag). *)

val return_credits : t -> int -> unit
(** Deliver a credit return to the producer side. *)

val peek_len : t -> int option

(** {1 Page-descriptor records (§4.6 zero-copy handoff)}

    A record flagged [flag_desc] carries a vector of 8-byte page
    descriptors — {page id, offset, length} into a shared
    {!Sds_vm.Pagepool} — instead of payload bytes.  Enqueuing such a
    record transfers the pages' references to the consumer; the payload
    never crosses the ring.  The ring itself is pool-agnostic: descriptors
    are opaque packed ints, paired with a pool by the transport layer. *)

val flag_desc : int
(** Header flag bit marking a descriptor record. *)

val desc_entry : page:int -> off:int -> len:int -> int
(** Pack one descriptor: [len <= 4096], [off < 4096], [page < 2^36]. *)

val desc_page : int -> int
val desc_off : int -> int
val desc_len : int -> int

val is_desc_packed : int -> bool
(** Whether a packed immediate (from peek/dequeue) is descriptor-flagged. *)

val desc_count_packed : int -> int
(** Number of descriptors in a descriptor record's packed immediate. *)

val try_enqueue_descs : ?flags:int -> t -> int array -> n:int -> bool
(** Enqueue the first [n] entries as one descriptor record.  [false] when
    credits are lacking; publication hands the page references off to the
    consumer.  Allocation-free. *)

val try_dequeue_descs : ?auto_credit:bool -> t -> entries:int array -> int
(** Dequeue the next descriptor record's entries into [entries]; returns
    the packed immediate ([no_msg] when empty/invalid).  The caller now
    owns one reference per page and must release each.  Raises if the next
    record is not descriptor-flagged ([peek_packed] first) or [entries] is
    too small.  Allocation-free. *)

(** {1 Event notification (§4.4)}

    Every ring embeds two {!Sds_notify.Waiter} endpoints: consumers park on
    the rx waiter when the ring is empty (the producer's tail publication
    notifies it — one parked-flag load on the enqueue hot path), and
    credit-starved producers park on the tx waiter (the consumer's credit
    return notifies it).  Readiness closures are preallocated at [create],
    so the blocking paths allocate nothing. *)

val wait_rx : t -> unit
(** Consumer side: adaptive spin→backoff→park until the ring is non-empty. *)

val wait_tx : t -> len:int -> unit
(** Producer side: block until the credits cover a [len]-byte message. *)

val rx_waiter : t -> Sds_notify.Waiter.t
val tx_waiter : t -> Sds_notify.Waiter.t

val set_rx_waiter : t -> Sds_notify.Waiter.t -> unit
(** Point N rings at one shared waiter to build a
    {!Sds_notify.Waiter.wait_any} consumer (the per-process epoll-thread
    shape). *)

val enqueue_blocking : ?flags:int -> t -> Bytes.t -> off:int -> len:int -> unit
(** [try_enqueue] that parks on the tx waiter instead of returning [false]. *)

val dequeue_packed_blocking : ?auto_credit:bool -> t -> dst:Bytes.t -> dst_off:int -> int
(** [try_dequeue_packed] that parks on the rx waiter while the ring is
    empty (or the next header fails its checksum). *)

(**/**)

module For_testing : sig
  val buf : t -> Bytes.t
  (** The raw ring storage — for corruption-injection tests only. *)

  val head_offset : t -> int
  (** Byte offset of the next header within [buf]. *)
end
