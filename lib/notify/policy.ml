(* The §4.4 polling↔interrupt mode switch as a reusable state machine.

   SocksDirect receivers poll their queues for a bounded number of empty
   rounds (polling mode), then publish that they are going to sleep and hand
   the wakeup responsibility to the sender side (interrupt mode).  This
   module is that decision logic, factored out of both consumers so the
   simulator's cost model ([Libsd.next_msg], [Shm_chan]) and the real
   cross-domain waiter ([Waiter]) run the *same* state machine:

   - the simulator drives it with [adaptive:false] and a fixed budget equal
     to its [yield_rounds] constant, reproducing the paper's fixed polling
     budget exactly (and keeping sim results bit-identical);
   - the real waiter drives it adaptively: a successful spin doubles the
     budget (spinning is paying off — keep doing it), a park halves it
     (spinning was wasted work — on a time-shared core the peer cannot run
     while we burn the quantum, so get out of the way quickly).

   [poll] returns the number of relax/yield units to burn before the next
   readiness check: [1] during the bounded spin phase, a doubling burst
   during the exponential-backoff phase, and [0] when the budget is
   exhausted — at which point the state machine is in [Interrupt] mode and
   the caller must arm a real wakeup (eventcount park, monitor relay, ...)
   before sleeping. *)

type mode = Polling | Interrupt

type t = {
  min_spin : int;
  max_spin : int;
  adaptive : bool;
  backoff_rounds : int;  (** extra checks between spin exhaustion and park *)
  max_relax : int;  (** cap on the backoff burst size *)
  mutable budget : int;  (** current spin budget (checks before backoff) *)
  mutable left : int;  (** spin checks remaining in the current wait *)
  mutable backoff_left : int;
  mutable relax : int;  (** current backoff burst size (doubles per round) *)
  mutable mode : mode;
}

let create ?(min_spin = 4) ?(max_spin = 4096) ?(backoff_rounds = 3) ?(max_relax = 64)
    ?(adaptive = true) ~budget () =
  if budget < 0 then invalid_arg "Policy.create: negative budget";
  {
    min_spin;
    max_spin;
    adaptive;
    backoff_rounds;
    max_relax;
    budget;
    left = 0;
    backoff_left = 0;
    relax = 1;
    mode = Polling;
  }

let mode t = t.mode
let budget t = t.budget
let set_mode t m = t.mode <- m

(* Start a fresh wait: reload the spin budget, reset the backoff curve. *)
let begin_wait t =
  t.left <- t.budget;
  t.backoff_left <- t.backoff_rounds;
  t.relax <- 1;
  t.mode <- Polling

let poll t =
  if t.left > 0 then begin
    t.left <- t.left - 1;
    1
  end
  else if t.backoff_left > 0 then begin
    t.backoff_left <- t.backoff_left - 1;
    let r = t.relax in
    t.relax <- min (2 * r) t.max_relax;
    r
  end
  else begin
    t.mode <- Interrupt;
    0
  end

(* The condition came true while still polling: spinning is winning, so an
   adaptive policy doubles the budget (saturating at [max_spin]). *)
let on_success t =
  t.mode <- Polling;
  if t.adaptive && t.budget < t.max_spin then t.budget <- min t.max_spin (max 1 (2 * t.budget))

(* The wait ended in a park: the whole spin phase was wasted work, so an
   adaptive policy halves the budget (saturating at [min_spin]).  On a
   single time-shared core this converges to a near-zero spin within a few
   waits, which is exactly what a ping-pong workload needs. *)
let on_park t =
  t.mode <- Interrupt;
  if t.adaptive && t.budget > t.min_spin then t.budget <- max t.min_spin (t.budget / 2)

let on_wake t = t.mode <- Polling
