(* §4.5 adaptive batch sizing, shared between backends.

   The budget bounds how many messages one vectored enqueue may carry.  The
   controller rests at [initial_budget] (32 — one cache-resident burst, the
   sweet spot the fixed-32 row measures): it only shrinks when the ring
   actually rejects a whole attempt (credit exhaustion, i.e. observed
   ring-full) and only grows past it, up to [max_budget], under
   caller-declared pressure (the application handed us more than one
   budget's worth of messages, so larger batches amortize tail
   publications).  A partial acceptance means
   the ring absorbed what it had credits for — that is flow control working,
   not a reason to shrink future batches. *)

type t = { mutable budget : int }

let min_budget = 4
let initial_budget = 32
let max_budget = 256
let create () = { budget = initial_budget }
let budget t = t.budget
let reset t = t.budget <- initial_budget

(* Outcome of one vectored-enqueue attempt: [sent] of [attempted] messages
   accepted; [pressure] when the caller still has a backlog beyond this
   batch. *)
let observe t ~sent ~attempted ~pressure =
  if attempted > 0 then begin
    if sent = 0 then begin
      (* Observed ring-full with zero progress: the receiver is behind;
         smaller batches shorten the stall when credits trickle back. *)
      if t.budget > min_budget then t.budget <- t.budget / 2
    end
    else if sent = attempted then begin
      if t.budget < initial_budget then
        (* Recover toward the resting point after a ring-full episode. *)
        t.budget <- min initial_budget (2 * t.budget)
      else if pressure then begin
        if t.budget < max_budget then t.budget <- 2 * t.budget
      end
      else
        (* Backlog gone: rest back at the sweet spot.  Growth past
           [initial_budget] is a loan against declared pressure, not a
           new steady state. *)
        t.budget <- initial_budget
    end
    (* Partial acceptance: keep the budget. *)
  end
