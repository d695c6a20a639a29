(** Real-domain token handoff (§4.2) over the shared
    {!Sds_proto.Token_proto} state machine.

    One token per socket-queue direction.  The held-by-me fast path is one
    plain compare on entry plus one atomic load at the operation boundary;
    takeover runs request → drain → release-fence → resume through
    {!Sds_notify.Waiter} parking.  Holds are cooperative: grants happen at
    operation boundaries, so a domain done with a socket must [release]
    (the socket layer does at EOF/close).

    Crash liveness (§4.3): the state word is stamped with the holder's
    {!Rt_dom} epoch, so a requester that finds the stamped incarnation
    retired seizes the token with a CAS ([try_seize]) instead of parking
    forever; every park is additionally bounded
    ({!Sds_notify.Waiter.wait_until} + exponential backoff), and an
    {!Rt_dom.on_death} hook grants or frees everything a dead incarnation
    held.  Tokens made by [create] register with the flight recorder
    ([rt_token] state section: holder, epoch, pending requester, in-flight
    count) and that hook; a connection's tokens come from
    [create_unregistered], and {!Rt_sock} shows and reaps them through its
    lanes. *)

type t

val create : ?name:string -> holder:int -> unit -> t
(** [holder] is the owning domain's {!Rt_dom} slot; [-1] creates the token
    free (first operator takes it with one CAS) — for dispatched endpoints
    whose eventual owner is unknown at creation.  The token registers in
    the [rt_token] flight section and the death hook's walk, so it reaches
    the major heap at the next minor collection: for long-lived tokens. *)

val create_unregistered : ?name:string -> holder:int -> unit -> t
(** [create] without the registry: the token dies young with its owner.
    Nothing reaps it when its holder dies, so the owner must keep it
    reachable from something registered and call [reap] from its own
    {!Rt_dom.on_death} hook ([Rt_sock] does, per lane).  Acquire still
    seizes a dead-held token on its own; [reap] only spares a parked
    requester its bounded-park wait. *)

val holder : t -> int
(** Racy snapshot of the holding slot; -1 when free. *)

val handoffs : t -> int
(** Grants served to a pending requester (holder-written; racy read). *)

val acquire : t -> dom:int -> unit
(** Make [dom] the holder: free on the held-by-[dom] fast path, otherwise
    the takeover protocol (observed in the [token.takeover_ns] histogram). *)

val with_held : t -> dom:int -> (unit -> 'a) -> 'a
(** Run [f] as one operation under the token: acquire if needed, run, then
    serve any takeover posted meanwhile at the operation boundary.
    Allocation-free on the held-by-[dom] fast path. *)

val release : t -> dom:int -> unit
(** Relinquish (EOF/close/ownership transfer): grants to a pending
    requester, otherwise frees the token.  No-op when [dom] is not the
    holder. *)

(** {1 Crash recovery} *)

val holder_dead : t -> bool
(** Is the token held by a retired incarnation (crashed/exited holder)?
    Racy snapshot; [false] when free. *)

val try_seize : t -> dom:int -> bool
(** Seize a dead-held token for [dom] (the seize fence: a CAS against the
    exact word proved dead, preserving any other slot's pending request).
    [false] when the token is free, already ours, or the holder is alive.
    Counted as [token.seized_dead]. *)

val reap : t -> unit
(** The death hook's rule for one token: when its stamped holder
    incarnation is dead, grant it to the pending requester (stamping the
    requester's epoch) or free it, and wake the waiters.  No-op otherwise.
    Counted as [token.seized_dead]. *)

val kick : t -> unit
(** Wake every slot parked on this token so it re-checks its condition —
    used when poisoning a connection whose waiters must now fail with
    EPIPE or ECONNRESET. *)
