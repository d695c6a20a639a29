(** A weak, growable registry of live objects for flight-recorder
    sections and crash-recovery walks.

    Entries are held weakly, so registering never extends an object's
    lifetime.  [add] never drops an entry: it finds a free cell with
    [Weak.check] from a rotating hint and doubles the table when every
    cell still holds an uncollected value.  Only [iter], [fold] and
    [to_list] read entries back with [Weak.get] (which allocates, and
    under OCaml 5 keeps the value alive through the current GC cycle), so
    registration itself stays cheap and keeps nothing alive.

    Registering is not free for the garbage collector, though.  Under
    OCaml 5.1 a young value stored in a [Weak] array is promoted to the
    major heap at the next minor collection, dead or alive: one million
    [add]s of 11-word blocks promoted 10.9 of the 12.8 words allocated per
    insert.  So register long-lived owners, never per-connection or
    per-operation values.  [Rt_sock] registers each ring lane once and
    reaches the lane's current connection through it, so a connection
    that dies young stays in the minor heap. *)

type 'a t

val create : int -> 'a t
(** An empty registry with room for [n] entries before it first grows. *)

val add : 'a t -> 'a -> unit

val fold : 'a t -> ('a -> 'b -> 'b) -> 'b -> 'b
(** Fold over every live entry, under the registry's lock.  [f] must not
    call back into the same registry. *)

val iteri : 'a t -> (int -> 'a -> unit) -> unit
(** [f i v] on the [i]th live entry, under the lock: for rendering. *)

val to_list : 'a t -> 'a list
(** A snapshot of the live entries, to work on without the lock (the
    reapers). *)
