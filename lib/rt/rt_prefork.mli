(** Prefork server harness on real domains: [workers] accept-loop domains
    behind an {!Rt_monitor} listener plus client domains streaming
    [msgs_per_conn] × [payload]-byte messages per connection.  The §4.5.2
    path end to end: round-robin dispatch, idle-worker stealing, token
    handoff, ring + pagepool transport. *)

type stats = {
  workers : int;
  conns : int;
  served : int array;  (** connections each worker accepted *)
  stolen : int array;  (** of those, how many it stole *)
  bytes : int array;  (** payload bytes each worker received *)
  total_bytes : int;
  elapsed_ns : int;
}

val total_served : stats -> int
val total_stolen : stats -> int

val run :
  ?payload:int ->
  ?msgs_per_conn:int ->
  ?conns:int ->
  ?echo:bool ->
  ?burst:int ->
  ?ring_size:int ->
  ?capacity:int ->
  ?client_domains:int ->
  workers:int ->
  unit ->
  stats
(** Defaults: 64-byte payloads, 1000 msgs/conn, [conns = workers], one
    client domain per worker (capped at [conns]), bursts of 32 small
    messages per token hold.  [echo] switches to per-message ping-pong.
    Total domains spawned: [workers + min conns workers]. *)
