(** The byte-stream core shared by the simulator's [Libsd] and the
    real-domain [Rt_sock] (§4.2, §4.6): the record plan of a send, page
    staging, landing and the partial-read cursor.  A payload moves inline
    through the ring in chunks of at most [max_inline] bytes, or as
    page-descriptor records on a {!Sds_vm.Pagepool}.  Adapters keep their
    transport framing, token handling, cost charging and metric names. *)

val max_inline : int
(** Largest inline chunk of a send (8 KiB). *)

val max_desc_per_record : int
(** Pages per descriptor record (256). *)

val pages_for : int -> int
(** Pages a [len]-byte descriptor record needs. *)

(** {1 Send} *)

type outcome =
  | Copied  (** the policy chose the inline path (or [len] was 0) *)
  | Zero_copy  (** every byte went by descriptor *)
  | Fell_back  (** the pool ran out; the rest went inline *)

val send :
  Copy_policy.t ->
  pool:Sds_vm.Pagepool.t option ->
  off:int ->
  len:int ->
  desc:(off:int -> len:int -> bool) ->
  inline:(off:int -> len:int -> unit) ->
  outcome
(** The record plan of one send of [[off, off+len)]: one
    {!Copy_policy.decide} ([pool] is read for pressure); on the zero-copy
    side [desc] per record of at most [max_desc_per_record] pages until it
    returns [false] (pool exhausted); then [inline] per chunk of at most
    [max_inline] for the rest.  Callbacks run in stream order. *)

val stage :
  Sds_vm.Pagepool.t -> Sds_vm.Pagepool.handle -> Bytes.t -> off:int -> len:int -> int array -> bool
(** [stage pool h buf ~off ~len entries]: allocate [pages_for len] pages
    through [h], copy the bytes into them and pack one descriptor per page
    into [entries].  All or nothing: [false], every page taken released,
    when the pool runs out. *)

(** {1 Receive}

    A receive lands at most [len] bytes and writes only inside
    [[off, off+len)]; the rest of the record stays in the endpoint's
    cursor as bytes.  A descriptor record's remainder is copied to the
    cursor's scratch buffer, so every page of a record is released before
    the call that dequeued it returns, on both backends. *)

type landing =
  | Global  (** no adoption, release through the pool's shared stack (the simulator) *)
  | Owned of { h : Sds_vm.Pagepool.handle; from : int; owner : int }
      (** adopt every page from [from] (the id its sender handed it over
          to) for [owner] first, release through [h]: a crash-safe
          real-domain receiver.  Since no adopted page outlives the
          operation, a dead operator's reclaimed pages are never touched
          again. *)

type cursor
(** One per receiving endpoint, guarded by its receive token. *)

val cursor : unit -> cursor

val pending : cursor -> bool
(** A partly read record must be served by [take] before the next one. *)

val take : cursor -> Bytes.t -> off:int -> len:int -> int
(** Land more of the pending record; 0 if none. *)

val scratch : cursor -> int -> Bytes.t
(** A reused buffer of at least the given length, to dequeue an inline
    record that [len] cannot hold into.  Only while nothing is pending. *)

val entries : cursor -> int array
(** A reused [max_desc_per_record]-entry array to dequeue descriptor
    records into.  Only while nothing is pending. *)

val land_bytes :
  cursor -> Bytes.t -> pos:int -> stop:int -> Bytes.t -> off:int -> len:int -> int
(** [land_bytes c src ~pos ~stop dst ~off ~len] lands the inline record
    [src.[pos..stop)]; the cursor keeps [src] while it is pending. *)

val lost : int
(** [-1]: [land_desc]'s result when a page could not be adopted. *)

val land_desc :
  cursor -> landing -> Sds_vm.Pagepool.t -> int array -> count:int ->
  Bytes.t -> off:int -> len:int -> int
(** Land a freshly dequeued descriptor record (its first [count] entries)
    and release all of its pages; the bytes [len] cannot hold stay pending
    in the cursor's scratch buffer.  [lost] if, under [Owned], a page was
    already reclaimed: the payload died with its sender, and the pages
    adopted so far are released. *)

val drop : cursor -> unit
(** Forget the pending record (reset semantics).  It holds no page. *)
