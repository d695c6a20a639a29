(* ratchet: the benchmark regression gate.

   Usage: ratchet.exe BASELINE.json FRESH.json [--tolerance 0.15]

   Both files are BENCH_ring.json snapshots (schema
   socksdirect-ring-bench/2, one row object per line — the shape
   [Ring_bench.write_json] emits; the parser here relies on it and needs
   no JSON library).  The gate fails (exit 1) when:

   - a watched ring row is missing from the fresh run;
   - a watched ring row's ns_per_msg regressed by more than the tolerance
     (default 15%) against the committed baseline;
   - any fresh ring row reports ok=false: either its integrity failed
     (torn read / checksum mismatch) or it missed its own performance bar
     (the prefork scaling target, a stamp-overhead or takeover bar); the
     message says which, with the measured value against the target;
   - the §4.6 invariant breaks: the zero-copy stream at 64 KiB must carry
     at least 2x the MB/s of the forced-copy stream of the same traffic;
   - the page copy falls back to byte speed: the real-domain 16 KiB stream
     (ringNcore stream x1, staged into and landed out of pool pages by
     Stream_core) may cost at most 10x the bare ring's 16 KiB descriptor
     row (ring2core stream) of the same run.  On a 2-vCPU VM, memcpy blits
     read 2.0-2.7x (8.4x in a run with a busy neighbour); byte-per-iteration
     blits read 18-32x.

   Rows present in only one file (renames, new rows) other than the
   watched set are reported but don't fail the gate, so adding a bench row
   doesn't require regenerating the baseline in the same commit. *)

type row = {
  name : string;
  payload : int;
  ns_per_msg : float;
  mb_per_sec : float;
  ok : bool;
  integrity : bool option;  (** absent in snapshots older than the field *)
  missed : string option;  (** the performance bar a row missed, if any *)
}

(* The named rows the ratchet protects: the §4.6 stream points (16/64 KiB
   zero-copy, 64 KiB forced copy), the 8 KiB inline row that must not
   regress when the pool path is in play, the §4.5 adaptive-batch row, and
   the plain single-core loopback as a stable canary.  The third field is
   a per-row tolerance multiplier: the wake_p99 stage-breakdown row is a
   tail percentile of the park→wake edge, far noisier than a throughput
   mean, so it gets a wide band (and is skipped entirely when the baseline
   recorded 0 — nothing parked in that run). *)
let watched =
  [
    ("ring2core stream", 8192, 1.0);
    ("ring2core stream", 16384, 1.0);
    ("ring2core stream", 65536, 1.0);
    ("ring2core stream copy", 65536, 1.0);
    ("ring2core pingpong wake_p99", 64, 10.0);
    ("ring1core enq+deq", 64, 1.0);
    ("ring1core batch=adaptive", 64, 1.0);
    (* Real-domain prefork aggregate rows (§4.5.2): end-to-end throughput
       across worker counts.  They cross domain scheduling, token handoff
       and the monitor, so they are noisier than the single-ring rows —
       hence the wider band.  The takeover row is a p99 of a park→wake
       handoff edge, as noisy as wake_p99. *)
    ("ringNcore stream x1", 64, 2.0);
    ("ringNcore stream x2", 64, 2.0);
    ("ringNcore stream x4", 64, 2.0);
    ("token takeover p99", 0, 10.0);
  ]

(* Absolute bars, checked against the fresh run only: per-message stamp
   overheads are paired-difference medians near zero, where a ratio
   against the baseline is meaningless (a 0.3 → 0.9 ns move is a 200%
   "regression" of nothing).  The row must be present and under the bar.
   The span row predates the §4.3 work; the heartbeat row guards the
   liveness tax [Rt_dom.beat] puts on every fast-path operation. *)
let absolute_bars =
  [ ("ring1core span overhead", 64, 2.0); ("ring1core heartbeat overhead", 64, 2.0) ]

(* Most the real-domain 16 KiB stream may cost, as a multiple of the bare
   ring's 16 KiB descriptor row from the same run (check 5). *)
let copy_bar = 10.0

(* ---- line-oriented field extraction ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1) in
  go 0

let str_field line key =
  match find_sub line (Printf.sprintf "%S: \"" key) with
  | None -> None
  | Some i ->
    let start = i + String.length key + 5 in
    String.index_from_opt line start '"'
    |> Option.map (fun stop -> String.sub line start (stop - start))

let num_field line key =
  match find_sub line (Printf.sprintf "%S: " key) with
  | None -> None
  | Some i ->
    let start = i + String.length key + 4 in
    let stop = ref start in
    let n = String.length line in
    while
      !stop < n
      && (match line.[!stop] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
    do
      incr stop
    done;
    float_of_string_opt (String.sub line start (!stop - start))

let bool_field line key =
  match find_sub line (Printf.sprintf "%S: " key) with
  | None -> None
  | Some i -> (
    let start = i + String.length key + 4 in
    match find_sub (String.sub line start (min 5 (String.length line - start))) "true" with
    | Some 0 -> Some true
    | _ -> Some false)

(* Pull the ring rows out of a snapshot: rows live between the `"ring": [`
   line and its closing bracket, one object per line. *)
let parse_ring path =
  let ic = open_in path in
  let rows = ref [] in
  let in_ring = ref false in
  (try
     while true do
       let line = input_line ic in
       if not !in_ring then begin
         if find_sub line "\"ring\": [" <> None then in_ring := true
       end
       else if find_sub line "]" <> None && find_sub line "\"name\"" = None then raise Exit
       else
         match
           (str_field line "name", num_field line "payload_bytes", num_field line "ns_per_msg",
            num_field line "mb_per_sec", bool_field line "ok")
         with
         | Some name, Some payload, Some ns_per_msg, Some mb_per_sec, Some ok ->
           let integrity = bool_field line "integrity" and missed = str_field line "missed" in
           rows :=
             { name; payload = int_of_float payload; ns_per_msg; mb_per_sec; ok; integrity; missed }
             :: !rows
         | _ -> ()
     done
   with End_of_file | Exit -> ());
  close_in ic;
  List.rev !rows

let lookup rows name payload =
  List.find_opt (fun r -> r.name = name && r.payload = payload) rows

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split tol files = function
    | "--tolerance" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t -> split t files rest
      | None ->
        Fmt.epr "--tolerance requires a float@.";
        exit 2)
    | a :: rest -> split tol (a :: files) rest
    | [] -> (tol, List.rev files)
  in
  let tolerance, files = split 0.15 [] args in
  let baseline_path, fresh_path =
    match files with
    | [ b; f ] -> (b, f)
    | _ ->
      Fmt.epr "usage: ratchet.exe BASELINE.json FRESH.json [--tolerance 0.15]@.";
      exit 2
  in
  let baseline = parse_ring baseline_path in
  let fresh = parse_ring fresh_path in
  if baseline = [] then begin
    Fmt.epr "no ring rows parsed from baseline %s@." baseline_path;
    exit 2
  end;
  if fresh = [] then begin
    Fmt.epr "no ring rows parsed from fresh run %s@." fresh_path;
    exit 2
  end;
  let failures = ref 0 in
  let fail fmt = Fmt.kstr (fun s -> incr failures; Fmt.pr "FAIL %s@." s) fmt in
  (* 1. every fresh row passed: integrity, and its own bar if it has one *)
  List.iter
    (fun r ->
      if not r.ok then
        let why =
          match (r.integrity, r.missed) with
          | Some false, _ -> "integrity failed (checksum or byte count mismatch)"
          | _, Some missed -> "below target: " ^ missed
          | Some true, None | None, None -> "no reason recorded"
        in
        fail "%s %dB: fresh run reports ok=false, %s" r.name r.payload why)
    fresh;
  (* 2. watched rows: present, and within tolerance of the baseline *)
  List.iter
    (fun (name, payload, tol_mult) ->
      match (lookup baseline name payload, lookup fresh name payload) with
      | _, None -> fail "%s %dB: missing from fresh run" name payload
      | None, Some _ -> Fmt.pr "note %s %dB: not in baseline, skipping comparison@." name payload
      | Some b, Some f ->
        if b.ns_per_msg <= 0. then
          (* A 0 baseline (e.g. wake_p99 when nothing parked) carries no
             regression information; ratios against it are meaningless. *)
          Fmt.pr "note %s %dB: baseline is 0, skipping comparison@." name payload
        else begin
          let tol = tolerance *. tol_mult in
          let ratio = f.ns_per_msg /. b.ns_per_msg in
          if ratio > 1.0 +. tol then
            fail "%s %dB: ns_per_msg %.1f vs baseline %.1f (%.0f%% regression > %.0f%%)" name
              payload f.ns_per_msg b.ns_per_msg ((ratio -. 1.0) *. 100.) (tol *. 100.)
          else
            Fmt.pr "ok   %-26s %6dB  %9.1f ns/msg (baseline %9.1f, %+.0f%%)@." name payload
              f.ns_per_msg b.ns_per_msg ((ratio -. 1.0) *. 100.)
        end)
    watched;
  (* 3. absolute bars: stamp overheads stay under their ns/msg ceilings *)
  List.iter
    (fun (name, payload, bar) ->
      match lookup fresh name payload with
      | None -> fail "%s %dB: missing from fresh run" name payload
      | Some f ->
        if f.ns_per_msg > bar then
          fail "%s %dB: %.2f ns/msg over the %.1f ns absolute bar" name payload f.ns_per_msg bar
        else Fmt.pr "ok   %-26s %6dB  %9.2f ns/msg (absolute bar %.1f)@." name payload f.ns_per_msg bar)
    absolute_bars;
  (* 4. §4.6 invariant: zero-copy stream >= 2x forced-copy MB/s at 64 KiB *)
  (match (lookup fresh "ring2core stream" 65536, lookup fresh "ring2core stream copy" 65536) with
  | Some zc, Some cp ->
    if zc.mb_per_sec < 2.0 *. cp.mb_per_sec then
      fail "zero-copy stream 65536B only %.1f MB/s vs copy %.1f MB/s (< 2x)" zc.mb_per_sec
        cp.mb_per_sec
    else
      Fmt.pr "ok   zero-copy 65536B %.1f MB/s >= 2x copy %.1f MB/s@." zc.mb_per_sec cp.mb_per_sec
  | _ -> fail "65536B stream rows missing; cannot check the zero-copy invariant");
  (* 5. page copies at memory speed: the staged-and-landed real-domain
     16 KiB stream within 10x of the bare descriptor ring, same run *)
  (match (lookup fresh "ringNcore stream x1" 16384, lookup fresh "ring2core stream" 16384) with
  | Some rt, Some ring ->
    let ratio = rt.ns_per_msg /. ring.ns_per_msg in
    if ratio > copy_bar then
      fail "ringNcore stream x1 16384B %.1f ns/msg is %.1fx ring2core stream %.1f (> %.0fx)"
        rt.ns_per_msg ratio ring.ns_per_msg copy_bar
    else
      Fmt.pr "ok   ringNcore stream x1 16384B %.1f ns/msg = %.1fx ring2core stream (<= %.0fx)@."
        rt.ns_per_msg ratio copy_bar
  | _ -> fail "16384B stream rows missing; cannot check the page-copy bar");
  if !failures > 0 then begin
    Fmt.pr "ratchet: %d failure(s)@." !failures;
    exit 1
  end;
  Fmt.pr "ratchet: all %d watched rows within %.0f%%, %d absolute bars held@."
    (List.length watched) (tolerance *. 100.) (List.length absolute_bars)
