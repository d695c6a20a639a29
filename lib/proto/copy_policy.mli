(** Libra-style selective data copying over the §4.6 remap path.

    Each socket carries one policy instance.  In [Adaptive] mode the
    copy/remap threshold starts at the paper's 16 KiB crossover and is
    re-derived online from the recent payload-size distribution (sizes
    dominating the byte volume pull the threshold down to remap them),
    while pool-occupancy spikes double it immediately (under memory
    pressure, copying is correct) and a period without pressure steps it
    back toward the base.  [Always_copy]/[Never_copy] pin the
    decision — the bench's [--copy-policy] knob and "SD (unopt)". *)

type mode = Always_copy | Never_copy | Adaptive

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t

val create : ?mode:mode -> unit -> t
val mode : t -> mode

val threshold : t -> int
(** Current copy/remap crossover in bytes (adaptive state). *)

val base_threshold : int
(** 16 KiB — the paper's measured crossover; the adaptive start point. *)

val high_water : float
(** Pool-occupancy fraction above which the threshold backs off. *)

val decide : t -> pool:Sds_vm.Pagepool.t option -> len:int -> bool
(** [true] = remap (zero-copy descriptor handoff), [false] = inline copy.
    [pool] is the pool the sender stages into, read for pressure only when
    [len] is at least one page (smaller payloads always copy); [None] when it
    does not exist yet, or when its fill is not memory pressure ([Rt_sock]:
    a lagging receiver's backlog dominates the process pool's fill).  Every decision feeds the size histogram.
    Records the decision in the [pool.remaps]/[pool.copies] counters and
    the [pool.remap_bytes] histogram. *)
