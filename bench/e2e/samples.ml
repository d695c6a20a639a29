(* Timing samples and the summary statistics the benchmark reports.

   A sampler is a preallocated uniform reservoir (Vitter's algorithm R)
   over every observation: memory stays fixed however long the run, so peak
   RSS does not depend on the operation rate, while percentiles still
   describe the whole window.  [seen] and [sum] cover every observation. *)

type t = {
  buf : int array;
  mutable seen : int;
  mutable sum : int;
  mutable rng : int;
}

let create cap = { buf = Array.make cap 0; seen = 0; sum = 0; rng = 0x2545F4914F6CDD1D }

let clear t =
  t.seen <- 0;
  t.sum <- 0

let add t v =
  let cap = Array.length t.buf in
  if t.seen < cap then t.buf.(t.seen) <- v
  else begin
    (* xorshift: allocation-free, and the reservoir slots it picks do not
       depend on the workload seed. *)
    let x = t.rng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    t.rng <- x;
    let j = (x land max_int) mod (t.seen + 1) in
    if j < cap then t.buf.(j) <- v
  end;
  t.seen <- t.seen + 1;
  t.sum <- t.sum + v

let count t = t.seen
let sum t = t.sum

let sorted t =
  let a = Array.sub t.buf 0 (min t.seen (Array.length t.buf)) in
  Array.sort Int.compare a;
  a

(* Nearest-rank percentile of a sorted array, [p] in (0, 1]; 0 when empty. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    float_of_int a.(max 0 (min (n - 1) (rank - 1)))

(* Percentile of a log2-bucket histogram (bucket b >= 1 covers
   [2^(b-1), 2^b)), interpolated log-linearly inside the bucket as
   [Sds_obs.Obs.Metrics.summarize_hist] does; 0 when empty. *)
let bucket_percentile bk p =
  let count = Array.fold_left ( + ) 0 bk in
  if count = 0 then 0.
  else begin
    let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int count))) in
    let rec go b cum =
      if b >= Array.length bk then Float.pow 2. (float_of_int (Array.length bk - 1))
      else
        let cum' = cum + bk.(b) in
        if cum' >= rank then
          if b = 0 then 0.
          else
            let f = float_of_int (rank - cum) /. float_of_int bk.(b) in
            Float.pow 2. (float_of_int (b - 1) +. f)
        else go (b + 1) cum'
    in
    go 0 0
  end

(* Mean of the best quarter of [values] (the highest when [higher], else
   the lowest), at least one value.  Contention from other tenants of a
   time-shared host only ever slows a slice of a run down, so the best
   quarter of a run's slices is the steadiest estimate of what the code
   itself costs. *)
let best_quarter_mean ~higher values =
  let a = Array.of_list values in
  Array.sort (if higher then fun x y -> Float.compare y x else Float.compare) a;
  let k = max 1 (Array.length a / 4) in
  if Array.length a = 0 then nan else Array.fold_left ( +. ) 0. (Array.sub a 0 k) /. float_of_int k

(* Median and quartiles of run-level values, computed exactly as Python's
   [statistics.median] and [statistics.quantiles(values, n=4)] (the default
   exclusive method), so spreads match what other tools report. *)
let median values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld < 2 then
    let v = if ld = 1 then a.(0) else nan in
    (v, v)
  else begin
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)
  end

(* Quartile distance as a share of the median. *)
let spread values =
  let q1, q3 = quartiles values in
  let m = median values in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
