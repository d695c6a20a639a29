(** Real-domain sockets: one connection = a lane (an SPSC ring pair) +
    per-direction {!Rt_token}s; every connection of the process stages
    descriptor pages in one 512-page {!Sds_vm.Pagepool}.

    The stream rules are {!Sds_proto.Stream_core}'s, shared with the
    simulator's [Libsd]: each endpoint's adaptive {!Sds_proto.Copy_policy}
    sends a payload inline in ring records or stages it into pool pages
    that cross as page-descriptor records.  [send] may split into several
    records; [recv] returns at most one sender batch of records per call
    ({!Sds_proto.Batch_ctl.initial_budget}), a zero-length FIN-flagged
    record carries EOF.  Every lane registers, once, in the [rt_conn]
    flight-recorder section and holds its current connection, so a
    connection registers nothing and a finished one dies in the minor
    heap.

    A connection both of whose ends sent FIN and dequeued the peer's FIN
    is finished: unless poisoned, its lane goes to a bounded free list the
    next [pair] takes from, so connection set-up costs no ring allocation.
    A poisoned or abandoned lane is never reused.

    Page ownership is per connection: a staged page carries the sending
    slot's stamp, a published one its connection direction's id (fresh per
    connection), and the receiver adopts only from that id.

    Crash compatibility (§4.3): when a domain dies, the tokens it held on
    any lane's current connection are granted to their pending requester
    or freed; then every connection it was involved in is poisoned —
    blocking operations on the surviving end raise
    [Unix.Unix_error (EPIPE, "send", "")] and
    [Unix.Unix_error (ECONNRESET, "recv", "")] instead of hanging, and
    [recv] drops any buffered data (reset semantics) — and the dead
    incarnation's pages and the pair's unadopted published pages are
    reclaimed; a connection the dead domain was not
    involved in keeps the pages it published.  Pages of a connection
    dropped without being finished are reclaimed once its lane is
    collected. *)

type t

val max_inline : int
(** Largest inline chunk of a [send] (8 KiB): {!Sds_proto.Stream_core.max_inline}. *)

val max_desc_per_record : int
(** Pages per descriptor record (256): {!Sds_proto.Stream_core.max_desc_per_record}. *)

val free_lanes_max : int
(** Bound of the recycled-lane free list (16 lanes). *)

val pair : ?ring_size:int -> a_owner:int -> b_owner:int -> unit -> t * t
(** A connected endpoint pair, on a recycled lane of [ring_size] (default
    64 KiB) when one is free, else on a new one; owners are {!Rt_dom}
    slots holding each endpoint's tokens initially ([-1] = tokens start
    free, taken by the first operator — used for dispatched server ends).
    First reclaims the pages of lanes collected unfinished. *)

val lane : t -> int
(** Serial number of the ring pair this endpoint runs on; both endpoints
    of a pair share it, and a recycled lane keeps it. *)

val send : t -> dom:int -> Bytes.t -> off:int -> len:int -> unit
(** Stream [len] bytes as one token-held operation (blocking on ring
    credits); EPIPE after this end's [close] or on a poisoned pair.  One
    copy decision per call, driven by the payload sizes alone: on the
    zero-copy side each descriptor record waits for its ring room,
    stages its pages in the process pool and hands them over to the
    connection direction just before the enqueue, falling back to
    inline copies when the pool is exhausted. *)

val send_burst : t -> dom:int -> (Bytes.t * int * int) array -> n:int -> unit
(** Vectored small-message send of [srcs.(0 .. n-1)] under one token hold;
    each ring batch is bounded by the shared {!Sds_proto.Batch_ctl}
    budget, and a takeover posted meanwhile is served at the operation
    boundary.  Raises [Invalid_argument], having sent nothing, when any
    entry's range lies outside its buffer or its record exceeds half the
    ring. *)

val recv : t -> dom:int -> Bytes.t -> off:int -> len:int -> int
(** Next stream bytes into [[off, off+len)]; 0 at EOF.  An inline record
    shorter than [max_inline] that fits whole brings the ready inline
    records behind it that also fit whole, up to
    {!Sds_proto.Batch_ctl.initial_budget} records in all; a FIN or
    descriptor record is left for the next call, and a [max_inline] slice
    of a split send lands alone.  An empty record (a zero-length
    [send_burst] entry) lands nothing and the call waits on, so only EOF
    returns 0.  A record longer than [len] is returned over several
    calls; the rest of a descriptor record is copied out of its pages at
    the first call, so no page stays held between calls. *)

val close : t -> dom:int -> unit
(** Enqueue EOF, then release both of this endpoint's tokens (the
    cooperative-hold contract). *)

val release_tokens : t -> dom:int -> unit
(** Hand back both tokens without sending EOF — for ownership transfer,
    and for receivers done with a connection. *)

val claim : t -> dom:int -> unit
(** Declare [dom] involved in this endpoint without an operation (an
    acceptor that just popped it): if [dom] dies before its first
    send/recv, crash recovery still poisons the pair. *)

val at_eof : t -> bool
val bytes_sent : t -> int
val bytes_received : t -> int
val send_token : t -> Rt_token.t
val recv_token : t -> Rt_token.t

(** {1 Crash recovery} *)

val poison : t -> unit
(** Declare the pair dead and kick every parked waiter on its rings and
    tokens; blocking operations on either end raise EPIPE (send) or
    ECONNRESET (recv) from then on.  Idempotent.  Called automatically by the {!Rt_dom.on_death}
    hook for connections the dead slot was involved in. *)

val poisoned : t -> bool
