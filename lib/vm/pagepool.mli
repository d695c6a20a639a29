(** Real shared page pool (§4.6): a Bigarray both endpoints of a channel
    address directly, carved into 4 KiB pages with padded atomic refcounts.
    Large payloads cross the ring as page descriptors (ownership handoff)
    instead of being blitted.

    Ownership rules:
    - [alloc] returns a page with refcount 1 owned by the caller;
    - publishing a descriptor transfers that reference to the receiver —
      the sender must not touch the page afterwards;
    - the receiver [release]s the page after consuming (or [incref]s first
      to keep a longer-lived view);
    - the last release recycles the page into the releasing handle's local
      free-list cache (batched spill to the shared stack).

    Double release and use-after-release raise [Invalid_argument]. *)

type t

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val page_size : int
(** 4096 bytes. *)

val default_pages : int
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

val domain_handle : t -> handle
(** The calling domain's handle (Domain.DLS), created on first use — the
    normal way the data path gets one. *)

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
(** Add a reference to a live page (sharing).  Raises if the page is free. *)

val refcount : t -> int -> int

(** {1 Crash reclamation (§4.3)}

    Each page carries an owner cell stamped at allocation time with the
    allocating handle's owner id (an {!Sds_rt.Rt_dom} slot).  When that
    incarnation dies, [reclaim_owner] force-frees every page it still
    holds; survivors protect in-flight pages they received by [try_adopt]ing
    them before use.  The owner cell CAS is the arbitration — exactly one
    of adopter and reclaimer wins each page. *)

val no_owner : int
(** [-1]: the unowned stamp (free pages, or handles never given an id). *)

val set_owner : handle -> int -> unit
(** Stamp [handle] so its future allocations carry this owner id. *)

val owner : t -> int -> int
(** Racy read of a page's owner stamp ([no_owner] if unowned or being
    reclaimed). *)

val try_adopt : t -> page:int -> owner:int -> bool
(** Atomically re-stamp a live page with a new owner.  [false] iff the
    page was already reclaimed (or is free) — the payload must then be
    treated as lost. *)

val owned_pages : t -> owner:int -> int list
(** Racy snapshot of live pages stamped with [owner] (debugging aid). *)

val reclaim_owner : t -> owner:int -> int
(** Force-free every live page still stamped with [owner]; returns the
    count freed (bumping [pool.reclaimed_pages]).  Idempotent; must only
    be called for an owner whose incarnation is dead
    ({!Sds_rt.Rt_dom.alive_at} is false). *)

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
val blit_to_bytes : t -> page:int -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit

val set_int_le : t -> int -> int -> unit
(** [set_int_le t pos v]: store [v] little-endian at byte [pos] of the
    pool buffer (63-bit round trip). *)

val get_int_le : t -> int -> int
