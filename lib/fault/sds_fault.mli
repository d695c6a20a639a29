(** Deterministic fault injection for the crash-recovery plane (§4.3).

    Named injection sites are compiled into the real-domain stack; a seeded
    {!plan} decides, per crash {!kind}, on which visit of its site the
    {!Crash} exception fires.  With no plan armed a site costs one atomic
    load and a branch — hot paths must write

    {[ if Sds_fault.armed () then Sds_fault.inject "layer.site" ]}

    (enforced by the sdlint [fault-confined] rule). *)

type kind =
  | Crash_before_grant  (** holder dies after the drain, before the grant CAS *)
  | Crash_mid_publish  (** sender dies between records of one stream send *)
  | Crash_holding_pages  (** sender dies with pool pages staged, unpublished *)
  | Monitor_restart  (** worker dies inside accept; a respawn re-registers *)
  | Fork_storm  (** client dies mid-connect, before first operation *)

exception Crash of kind
(** Raised by {!inject} at the armed site.  {!Sds_rt.Rt_dom.spawn} bodies
    that let it escape are declared dead immediately (the [died] hook). *)

val site_of_kind : kind -> string
(** The canonical injection site each kind fires at. *)

(** {1 Plans} *)

type plan

val plan : ?max_skip:int -> seed:int -> kind list -> plan
(** A deterministic schedule: each kind's site lets [mix seed i mod
    max_skip] visits pass (default [max_skip] 4), then fires once.  Same
    seed, same schedule. *)

val seed : plan -> int

val arm : plan -> unit
(** Install [plan] as the process-wide schedule (replacing any other) and
    open the gate. *)

val disarm : unit -> unit
(** Close the gate; sites return to the one-load fast path. *)

val fired_sites : unit -> (string * kind) list
(** Sites that have fired under the current/most recent armed plan, in
    firing order. *)

(** {1 Sites} *)

val armed : unit -> bool
(** The zero-cost disabled check: one atomic load. *)

val inject : string -> unit
(** Visit a named site: no-op unless a plan is armed and this site's
    countdown reaches zero, in which case raises {!Crash}.  Cold beyond
    the gate — from [@sds.hot] code, guard with {!armed}. *)
