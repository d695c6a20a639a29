(** Real shared page pool (§4.6): a Bigarray both endpoints of a channel
    address directly, carved into 4 KiB pages.  Each page's whole state is
    one padded atomic word: its owner stamp and its reference count, 0
    meaning free.  Large payloads cross the ring as page descriptors
    (ownership handoff) instead of being blitted.

    Ownership rules:
    - [alloc] returns a page with refcount 1 owned by the caller;
    - publishing a descriptor transfers that reference to the receiver —
      the sender must not touch the page afterwards;
    - the receiver [release]s the page after consuming (or [incref]s first
      to keep a longer-lived view);
    - the last release recycles the page into the releasing handle's local
      free-list cache (batched spill to the shared stack).

    Every transition is one store ([alloc]) or one CAS on the page's word.
    Double release and use-after-release raise [Invalid_argument]. *)

type t

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val page_size : int
(** 4096 bytes. *)

val batch : int
(** Pages moved per global spill/refill. *)

val create : ?pages:int -> unit -> t
val pages : t -> int

(** {1 Per-domain allocation handles} *)

type handle
(** A private free-list cache; single-owner, one per domain (or per sim
    process).  Allocation and release through a handle touch the shared
    stack only in batches of [batch]. *)

val handle : t -> handle
(** A new handle in a free one of the pool's 64 handle slots; raises
    [Invalid_argument] when all are taken. *)

val domain_handle : t -> handle
(** The calling domain's handle (Domain.DLS), created on first use — the
    normal way the data path gets one.  When the domain exits the handle
    retires: its cached free pages go back to the shared stack and its
    slot is free for the next [handle]. *)

val no_page : int
(** [-1]: returned by [alloc] on pool exhaustion. *)

val alloc : handle -> int
(** Allocate a page (refcount 1); [no_page] when the pool is exhausted —
    the caller falls back to the inline-copy path. *)

val release : handle -> int -> unit
(** Drop one reference; the last release recycles the page via the handle's
    cache.  Raises on double release. *)

val release_global : t -> int -> unit
(** [release] without a handle (cleanup paths); last release goes through
    the shared stack under the pool mutex. *)

val incref : t -> int -> unit
(** Add a reference to a live page (sharing).  Raises if the page is free
    or already holds 65535 references. *)

val refcount : t -> int -> int

(** {1 Ownership and crash reclamation (§4.3)}

    Each page's word carries an owner stamp, set at allocation time to the
    allocating handle's owner id (an {!Sds_rt.Rt_dom} slot).  A sender
    publishing a staged page [hand_over]s it to the id its receiver adopts
    from (in [Rt_sock], one id per connection direction); the receiver
    [try_adopt]s it from that id before use.  When an owner dies or a
    connection is abandoned, [reclaim_owners] force-frees every page still
    stamped with its ids.  The CAS on the page's word is the arbitration —
    exactly one of sender, adopter and reclaimer wins each page.  Owner ids
    run from 0 to 2{^46} - 2; the functions below raise [Invalid_argument]
    on one outside that range. *)

val no_owner : int
(** [-1]: the unowned stamp (free pages, or handles never given an id). *)

val set_owner : handle -> int -> unit
(** Stamp [handle] so its future allocations carry this owner id. *)

val owner : t -> int -> int
(** Racy read of a page's owner stamp ([no_owner] if unowned or free). *)

val hand_over : t -> page:int -> from:int -> to_:int -> bool
(** Atomically re-stamp a live page from [from] to [to_].  [false] iff
    the page no longer carries [from] — a reclaimer took it, and the
    payload is lost. *)

val try_adopt : t -> page:int -> from:int -> owner:int -> bool
(** Atomically re-stamp a live page published under [from] with [owner]
    ([true] at once if it already carries [owner]).  [false] if the page
    was reclaimed, is free, or carries any other stamp (reclaimed and
    allocated again) — the payload must then be treated as lost. *)

val owned_pages : t -> owner:int -> int list
(** Racy snapshot of live pages stamped with [owner] (debugging aid). *)

val reclaim_owners : t -> owners:int list -> int
(** Force-free, in one pass, every live page stamped with one of
    [owners]; returns the count freed (bumping [pool.reclaimed_pages]).
    Idempotent; only for owners nobody can still operate under — a dead
    {!Sds_rt.Rt_dom} incarnation, or a connection no endpoint of which is
    reachable or unpoisoned. *)

val reclaim_owner : t -> owner:int -> int
(** [reclaim_owners] of one owner. *)

(** {1 Pressure} *)

val free_pages : t -> int
(** Approximate lock-free count: global stack plus handle caches. *)

val occupancy : t -> float
(** Fraction of pages in use, in [0, 1]; the [Copy_policy] pressure signal. *)

(** {1 Data access} *)

val buffer : t -> buf
val page_base : int -> int
(** Byte offset of a page inside [buffer]. *)

val slice : t -> page:int -> off:int -> len:int -> buf
(** Zero-copy sub-Bigarray view; the caller must hold a reference for the
    slice's lifetime.  Raises on a released page or an out-of-page range. *)

val blit_from_bytes : t -> src:Bytes.t -> src_off:int -> page:int -> off:int -> len:int -> unit
(** Copy [len] bytes of [src] at [src_off] into [page] at [off] (staging).
    Raises [Invalid_argument] on a bad or released page, a range outside
    the page, or a range outside [src] — all checked before one C
    [memcpy] (lib/vm/pagepool_stubs.c) moves any byte. *)

val blit_to_bytes : t -> page:int -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit
(** Copy [len] bytes of [page] at [off] into [dst] at [dst_off] (landing);
    the same checks, in the same order, precede the same [memcpy]. *)

val set_int_le : t -> int -> int -> unit
(** [set_int_le t pos v]: store [v] little-endian at byte [pos] of the
    pool buffer as one 8-byte access; raises if [pos + 8] passes the end
    of the buffer. *)

val get_int_le : t -> int -> int
(** The 8 bytes at [pos], little-endian, as [v land max_int]: bit 63 is
    dropped on the round trip (and the sign bit with it). *)
