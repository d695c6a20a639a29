(* Sds_fault — deterministic fault injection for the crash-recovery plane.

   The data plane's §4.3 compatibility story ("a process can die at any
   instruction and its peers observe EOF/reset, not a wedge") is only
   testable if we can die at *chosen* instructions, repeatably.  This
   module provides named injection sites compiled into the real-domain
   stack (rt_token / rt_sock / rt_monitor) and seeded plans that pick, per
   crash kind, on which visit of its site the crash fires.  The same five
   crash kinds drive the Interleave crash models in [Sds_check.Models], so
   every schedule the chaos soak executes on real domains is also explored
   exhaustively in the model checker.

   Cost discipline: when no plan is armed, a site costs one SC load and a
   branch ([armed ()] — same gate idiom as [Sds_obs.Span]'s sampling
   mask).  Hot-path sites must be written

     if Sds_fault.armed () then Sds_fault.inject "layer.site";

   which the sdlint [fault-confined] rule enforces inside [@sds.hot]
   functions.  Everything behind the gate (the plan lookup, the history
   ring, the metrics) is cold and may lock and allocate. *)

module Obs = Sds_obs.Obs

type kind =
  | Crash_before_grant
  | Crash_mid_publish
  | Crash_holding_pages
  | Monitor_restart
  | Fork_storm

exception Crash of kind

let kind_name = function
  | Crash_before_grant -> "crash-before-grant"
  | Crash_mid_publish -> "crash-mid-publish"
  | Crash_holding_pages -> "crash-holding-pages"
  | Monitor_restart -> "monitor-restart"
  | Fork_storm -> "fork-storm"

(* The canonical site each kind fires at in the real-domain stack. *)
let site_of_kind = function
  | Crash_before_grant -> "rt_token.grant"
  | Crash_mid_publish -> "rt_sock.mid_publish"
  | Crash_holding_pages -> "rt_sock.holding_pages"
  | Monitor_restart -> "rt_monitor.accept"
  | Fork_storm -> "rt_monitor.connect"

let m_site_hits = Obs.Metrics.counter "fault.site_hits"
let m_injected = Obs.Metrics.counter "fault.injected"

(* ---- seeded plans ------------------------------------------------------ *)

type arm = {
  a_site : string;
  a_kind : kind;
  mutable a_countdown : int;  (** site visits to let pass; -1 once fired *)
}

type plan = { p_seed : int; p_arms : arm list }

(* splitmix64-style scramble: a few visits of slack per arm, derived only
   from (seed, arm index) so a plan replays identically. *)
let mix seed i =
  let z = (seed + 1) * 0x9E3779B9 + (i * 0x85EBCA6B) in
  let z = z lxor (z lsr 15) in
  let z = z * 0xC2B2AE35 in
  (z lxor (z lsr 13)) land max_int

let plan ?(max_skip = 4) ~seed kinds =
  if max_skip < 1 then invalid_arg "Sds_fault.plan: max_skip must be >= 1";
  let arms =
    List.mapi
      (fun i k ->
        { a_site = site_of_kind k; a_kind = k; a_countdown = mix seed i mod max_skip })
      kinds
  in
  { p_seed = seed; p_arms = arms }

let seed p = p.p_seed

(* ---- the armed gate ---------------------------------------------------- *)

(* [gate] is the only state a disarmed site ever reads. *)
let gate = Atomic.make 0
let mu = Mutex.create ()
let current : plan option ref = ref None
let fired : (string * kind) list ref = ref []

let[@inline] armed () = Atomic.get gate <> 0

let arm p =
  Mutex.lock mu;
  current := Some p;
  fired := [];
  Mutex.unlock mu;
  Atomic.set gate 1

let disarm () =
  Atomic.set gate 0;
  Mutex.lock mu;
  current := None;
  Mutex.unlock mu

let fired_sites () =
  Mutex.lock mu;
  let f = List.rev !fired in
  Mutex.unlock mu;
  f

(* A site visit while a plan is armed: decrement the matching arm's
   countdown; at zero, record the firing and raise.  The whole body is the
   cold side of the [armed] gate. *)
let inject site =
  if Atomic.get gate <> 0 then begin
    Mutex.lock mu;
    let fire =
      match !current with
      | None -> None
      | Some p -> (
        match
          List.find_opt (fun a -> a.a_site = site && a.a_countdown >= 0) p.p_arms
        with
        | None -> None
        | Some a ->
          Obs.Metrics.incr m_site_hits;
          if a.a_countdown = 0 then begin
            a.a_countdown <- -1;
            fired := (site, a.a_kind) :: !fired;
            Some a.a_kind
          end
          else begin
            a.a_countdown <- a.a_countdown - 1;
            None
          end)
    in
    Mutex.unlock mu;
    match fire with
    | Some k ->
      Obs.Metrics.incr m_injected;
      raise (Crash k)
    | None -> ()
  end

(* ---- flight-recorder section ------------------------------------------- *)

let () =
  Sds_obs.Flight.register_state "fault" (fun () ->
      let b = Buffer.create 128 in
      Mutex.lock mu;
      Buffer.add_string b (Printf.sprintf "armed=%b\n" (Atomic.get gate <> 0));
      (match !current with
      | None -> ()
      | Some p ->
        Buffer.add_string b (Printf.sprintf "seed=%d\n" p.p_seed);
        List.iter
          (fun a ->
            Buffer.add_string b
              (Printf.sprintf "arm site=%s kind=%s countdown=%d\n" a.a_site
                 (kind_name a.a_kind) a.a_countdown))
          p.p_arms);
      List.iter
        (fun (site, k) ->
          Buffer.add_string b (Printf.sprintf "fired site=%s kind=%s\n" site (kind_name k)))
        (List.rev !fired);
      Mutex.unlock mu;
      Buffer.contents b)
