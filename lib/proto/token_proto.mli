(** Shared token-handoff state machine (§4.1, §4.2).

    The takeover protocol (request → drain → release-fence → resume) as
    pure transitions over a packed-int state: holder id, plus at most one
    pending requester id.  The simulator commits transitions with plain
    stores under its cooperative scheduler; the real-domain backend keeps
    the state in one [Atomic.t] and commits with CAS.  Both call these
    functions — the protocol is written down exactly once. *)

val id_bits : int

val max_id : int
(** Largest valid participant id. *)

val holder : int -> int
val requester : int -> int

val free : int
(** No holder, no pending request. *)

val held : holder:int -> int
(** Held by [holder], no pending request. *)

val is_free : int -> bool
val is_held_by : int -> id:int -> bool
val has_request : int -> bool

type step =
  | Fast  (** caller already holds the token: nothing to write *)
  | Take of int  (** token is free: next state with the caller as holder *)
  | Post of int
      (** held by someone else, request slot empty: next state with the
          caller registered as the pending requester; wait for the grant *)
  | Wait  (** request slot occupied (possibly by us): wait and re-observe *)

val acquire : int -> id:int -> step
(** One acquire attempt from [id] over the observed state; the caller
    commits the returned state (CAS or plain store) and re-observes on a
    lost race. *)

val should_release : int -> id:int -> bool
(** Does holder [id] owe a handoff?  The only check on the data-path fast
    path: one load, one compare. *)

val grant : int -> int
(** The release fence: hand the token to the pending requester. *)

val release : int -> id:int -> int
(** Relinquish without a successor (close/fork/exit): grants when a request
    is pending, otherwise frees the token.  No-op if [id] is not holder. *)

val seize : int -> id:int -> int
(** Monitor-mediated reassignment (sim idle-holder grant, fork
    inheritance): force [id] as holder, preserving another thread's pending
    request. *)
