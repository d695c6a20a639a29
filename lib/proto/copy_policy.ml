(* Libra-style programmable selective data copying, layered over the §4.6
   remap path: per-socket, online, driven by the observed payload-size
   distribution and by pool pressure.

   State machine (per socket):

     threshold ∈ [page_size, max_threshold], starts at the paper's 16 KiB
     copy/remap crossover.

     observe(len) every decision; every [adapt_period] observations the
     threshold is re-derived from the recent size histogram: when at least
     half the recent payload *bytes* sit in sizes ≥ threshold/2, the
     threshold halves (pulling mid-size traffic onto the remap path);
     otherwise it moves one step back toward the 16 KiB base: doubling
     from below, or halving from above when the period saw no pressure.

     pressure: when pool occupancy crosses [high_water] when a payload of
     at least [min_threshold] is decided, the threshold doubles immediately
     (decaying the remap path toward copying — under memory pressure
     copying is the correct behaviour); the periodic re-derivation relaxes
     it once a whole period passes without pressure.

   [Always_copy] and [Never_copy] pin the decision for the bench knob
   (--copy-policy) and for "SD (unopt)".  Both socket backends, [Libsd]
   and [Rt_sock], decide through [Stream_core.send]. *)

module Obs = Sds_obs.Obs
module Pagepool = Sds_vm.Pagepool

type mode = Always_copy | Never_copy | Adaptive

let mode_to_string = function
  | Always_copy -> "always"
  | Never_copy -> "never"
  | Adaptive -> "adaptive"

let mode_of_string = function
  | "always" -> Some Always_copy
  | "never" -> Some Never_copy
  | "adaptive" -> Some Adaptive
  | _ -> None

let min_threshold = Pagepool.page_size
let base_threshold = 16 * 1024
let max_threshold = 256 * 1024
let adapt_period = 256
let high_water = 0.75

(* Copy-vs-remap decision counters; the remap-size histogram is what the
   BENCH large-payload rows read back. *)
let m_remaps = Obs.Metrics.counter "pool.remaps"
let m_copies = Obs.Metrics.counter "pool.copies"
let m_pressure_backoffs = Obs.Metrics.counter "pool.pressure_backoffs"
let h_remap_bytes = Obs.Metrics.histogram "pool.remap_bytes"

(* Policy visibility: the crossover a move last set as a gauge (0 until
   the first move; written by moves only, so a domain whose policies never
   move leaves its shard alone), a counter of actual threshold moves, and a
   [Policy_adapt] trace event per move — so span copy/remap histograms can
   be correlated with policy activity. *)
let g_threshold = Obs.Metrics.gauge "copy_policy.threshold"
let m_switches = Obs.Metrics.counter "copy_policy.switches"

let note_threshold_move old_t new_t =
  if new_t <> old_t then begin
    Obs.Metrics.incr m_switches;
    Obs.Metrics.gauge_set g_threshold new_t;
    Obs.Trace.emit_n Obs.Trace.Policy_adapt new_t
  end

let buckets = 32

type t = {
  mode : mode;
  mutable threshold : int;
  recent : int array;  (* log2 payload-size histogram since the last adapt *)
  mutable observed : int;
  mutable pressured : bool;  (* occupancy crossed [high_water] since the last adapt *)
}

let create ?(mode = Adaptive) () =
  { mode; threshold = base_threshold; recent = Array.make buckets 0; observed = 0;
    pressured = false }

let mode t = t.mode
let threshold t = t.threshold

(* Re-derive the threshold from the recent distribution (see header). *)
let adapt t =
  let cut = t.threshold / 2 in
  let total = ref 0 in
  let large = ref 0 in
  (* [observe] fills buckets 1 and up: bucket b holds sizes in
     [2^(b-1), 2^b).  Estimate each by its lower edge, exact for
     power-of-two sizes, so a 4 KiB stream does not count as reaching an
     8 KiB cut and pull the threshold below the copy/remap crossover. *)
  for b = 1 to buckets - 1 do
    let n = t.recent.(b) in
    if n > 0 then begin
      let size = 1 lsl (b - 1) in
      let bytes = n * size in
      total := !total + bytes;
      if size >= cut then large := !large + bytes
    end
  done;
  let old_t = t.threshold in
  if !total > 0 then begin
    if 2 * !large >= !total then begin
      if t.threshold > min_threshold then t.threshold <- t.threshold / 2
    end
    else if t.threshold < base_threshold then t.threshold <- t.threshold * 2
    else if t.threshold > base_threshold && not t.pressured then t.threshold <- t.threshold / 2
  end;
  note_threshold_move old_t t.threshold;
  Array.fill t.recent 0 buckets 0;
  t.observed <- 0;
  t.pressured <- false

let observe t len =
  let b = Obs.log2_floor (if len <= 0 then 1 else len) + 1 in
  let b = if b >= buckets then buckets - 1 else b in
  t.recent.(b) <- t.recent.(b) + 1;
  t.observed <- t.observed + 1;
  if t.observed >= adapt_period then adapt t

(* Decide copy (false) vs remap (true) for a [len]-byte send whose process
   stages descriptors into [pool] ([None] until its first descriptor send). *)
let decide t ~pool ~len =
  let remap =
    match t.mode with
    | Always_copy -> false
    | Never_copy -> len > 0
    | Adaptive ->
      observe t len;
      (* A payload under one page can never reach the threshold, so only
         larger ones pay for the occupancy scan (one read per handle slot). *)
      if
        len >= min_threshold
        && match pool with Some p -> Pagepool.occupancy p > high_water | None -> false
      then begin
        t.pressured <- true;
        if t.threshold < max_threshold then begin
          let old_t = t.threshold in
          t.threshold <- t.threshold * 2;
          Obs.Metrics.incr m_pressure_backoffs;
          note_threshold_move old_t t.threshold
        end
      end;
      len >= t.threshold
  in
  if remap then begin
    Obs.Metrics.incr m_remaps;
    Obs.Metrics.observe h_remap_bytes len
  end
  else Obs.Metrics.incr m_copies;
  remap
