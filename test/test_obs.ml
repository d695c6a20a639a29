(* Observability substrate tests: sharded metric aggregation, histogram
   bucket boundaries, trace-ring wraparound, Chrome-trace round-trip, and
   the Stats percentile edge cases fixed alongside. *)

module Obs = Sds_obs.Obs
module Metrics = Obs.Metrics
module Trace = Obs.Trace

let test_counter_monotone () =
  let c = Metrics.counter "test.mono" in
  let v0 = Metrics.value c in
  Metrics.incr c;
  Alcotest.(check int) "incr" (v0 + 1) (Metrics.value c);
  Metrics.add c 41;
  Alcotest.(check int) "add" (v0 + 42) (Metrics.value c);
  (* Registration is idempotent: same name, same cells. *)
  let c' = Metrics.counter "test.mono" in
  Metrics.incr c';
  Alcotest.(check int) "same cells" (v0 + 43) (Metrics.value c)

let test_shard_aggregation () =
  let c = Metrics.counter "test.shards" in
  let g = Metrics.gauge "test.shards_gauge" in
  let v0 = Metrics.value c in
  let d =
    Domain.spawn (fun () ->
        for _ = 1 to 1000 do
          Metrics.incr c
        done;
        Metrics.gauge_add g 5)
  in
  for _ = 1 to 1000 do
    Metrics.add c 2
  done;
  Metrics.gauge_add g 7;
  Domain.join d;
  (* Two domains wrote distinct shards; the read aggregates both. *)
  Alcotest.(check int) "counter over 2 domains" (v0 + 3000) (Metrics.value c);
  Alcotest.(check int) "gauge over 2 domains" 12 (Metrics.gauge_value g)

let test_bucket_boundaries () =
  Alcotest.(check int) "v=0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "v<0" 0 (Metrics.bucket_of (-5));
  Alcotest.(check int) "v=1" 1 (Metrics.bucket_of 1);
  (* Bucket b >= 1 covers [2^(b-1), 2^b): each power of two opens a new
     bucket and (2^k - 1) still sits in the previous one. *)
  for k = 1 to 40 do
    let p = 1 lsl k in
    Alcotest.(check int) (Printf.sprintf "v=2^%d" k) (k + 1) (Metrics.bucket_of p);
    Alcotest.(check int) (Printf.sprintf "v=2^%d-1" k) k (Metrics.bucket_of (p - 1))
  done

let test_histogram_summary () =
  let h = Metrics.histogram "test.hist" in
  for _ = 1 to 100 do
    Metrics.observe h 10
  done;
  Metrics.observe h 1_000_000;
  let s = Metrics.summarize_hist h in
  Alcotest.(check int) "count" 101 s.Metrics.hs_count;
  Alcotest.(check int) "sum" ((100 * 10) + 1_000_000) s.Metrics.hs_sum;
  Alcotest.(check int) "min exact" 10 s.Metrics.hs_min;
  Alcotest.(check int) "max exact" 1_000_000 s.Metrics.hs_max;
  (* p50 resolves to the upper edge of 10's bucket [8,16), clamped to at
     least the exact min. *)
  Alcotest.(check bool) "p50 in bucket" true (s.Metrics.hs_p50 >= 10 && s.Metrics.hs_p50 <= 16);
  Alcotest.(check bool) "p order" true
    (s.Metrics.hs_p50 <= s.Metrics.hs_p99
    && s.Metrics.hs_p99 <= s.Metrics.hs_p999
    && s.Metrics.hs_p999 <= s.Metrics.hs_max)

let test_probe_and_reset () =
  let cell = ref 5 in
  Metrics.probe "test.probe" (fun () -> !cell);
  Alcotest.(check int) "probe value" 5 (Metrics.counter_value "test.probe");
  Metrics.reset ();
  Alcotest.(check int) "probe re-based" 0 (Metrics.counter_value "test.probe");
  cell := 8;
  Alcotest.(check int) "probe delta after reset" 3 (Metrics.counter_value "test.probe")

let test_trace_wraparound () =
  Trace.set_capacity 64;
  Trace.clear ();
  for i = 1 to 200 do
    Trace.emit_n Trace.Batch i
  done;
  Alcotest.(check int) "dropped oldest" 136 (Trace.dropped ());
  let events = Trace.drain () in
  Alcotest.(check int) "retained = capacity" 64 (List.length events);
  (* The newest 64 survive, oldest first. *)
  let args = List.map (fun e -> e.Trace.arg) events in
  Alcotest.(check (list int)) "newest retained" (List.init 64 (fun i -> 137 + i)) args;
  Alcotest.(check int) "drain clears" 0 (List.length (Trace.drain ()));
  Trace.set_capacity 4096

let test_chrome_roundtrip () =
  Trace.clear ();
  Trace.emit Trace.Send;
  Trace.emit_n Trace.Recv 64;
  Trace.emit_n Trace.Batch 32;
  Trace.emit Trace.Token_takeover;
  Trace.emit_n Trace.Zerocopy_remap 32768;
  Trace.emit Trace.Ring_full;
  Trace.emit Trace.Fallback;
  let events = Trace.drain () in
  let js = Trace.to_chrome_json events in
  let back = Trace.parse_chrome_json js in
  Alcotest.(check int) "length" (List.length events) (List.length back);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "ts" a.Trace.ts b.Trace.ts;
      Alcotest.(check int) "domain" a.Trace.domain b.Trace.domain;
      Alcotest.(check string) "tag" (Trace.tag_name a.Trace.tag) (Trace.tag_name b.Trace.tag);
      Alcotest.(check int) "arg" a.Trace.arg b.Trace.arg)
    events back

let test_trace_csv () =
  Trace.clear ();
  Trace.emit_n Trace.Send 1;
  Trace.emit_n Trace.Recv 2;
  let events = Trace.drain () in
  let csv = Trace.to_csv events in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + rows" 3 (List.length lines);
  Alcotest.(check string) "header" "ts_ns,domain,event,arg" (List.hd lines)

let test_stats_percentile_edges () =
  let module Stats = Sds_sim.Stats in
  let t = Stats.create () in
  for i = 1 to 1000 do
    Stats.add t (float_of_int i)
  done;
  Alcotest.(check (float 0.)) "p0 is exact min" 1.0 (Stats.percentile t 0.);
  Alcotest.(check (float 0.)) "min_v exact" 1.0 (Stats.min_v t);
  Alcotest.(check (float 0.)) "p999" 999.0 (Stats.percentile t 99.9);
  let s = Stats.summarize t in
  Alcotest.(check (float 0.)) "summary p999" 999.0 s.Stats.p999;
  (* p = 0 defined on a single sample too. *)
  let one = Stats.create () in
  Stats.add one 42.;
  Alcotest.(check (float 0.)) "p0 single" 42.0 (Stats.percentile one 0.)

let test_json_snapshot () =
  let c = Metrics.counter "test.json_counter" in
  Metrics.add c 7;
  let js = Metrics.to_json () in
  let has needle =
    let n = String.length needle and l = String.length js in
    let rec go i = i + n <= l && (String.sub js i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag" true (has "socksdirect-obs/1");
  Alcotest.(check bool) "counter present" true (has "\"test.json_counter\": 7")

(* The weak registry grows instead of dropping: every live entry added
   past its initial size is still walked. *)
let test_registry_grows () =
  let r = Sds_obs.Registry.create 4 in
  let keep = Array.init 100 (fun i -> ref i) in
  Array.iter (Sds_obs.Registry.add r) keep;
  let seen = List.map ( ! ) (Sds_obs.Registry.to_list r) |> List.sort compare in
  Alcotest.(check (list int)) "every live entry is walked" (List.init 100 Fun.id) seen;
  Alcotest.(check int) "fold agrees" 100 (Sds_obs.Registry.fold r (fun _ n -> n + 1) 0);
  ignore (Sys.opaque_identity keep)

let suite =
  [
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotone;
    Alcotest.test_case "shard aggregation over 2 domains" `Quick test_shard_aggregation;
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "histogram summary + percentiles" `Quick test_histogram_summary;
    Alcotest.test_case "probe and reset re-basing" `Quick test_probe_and_reset;
    Alcotest.test_case "trace wraparound drops oldest" `Quick test_trace_wraparound;
    Alcotest.test_case "chrome trace JSON round-trip" `Quick test_chrome_roundtrip;
    Alcotest.test_case "trace CSV shape" `Quick test_trace_csv;
    Alcotest.test_case "stats percentile p0/p999" `Quick test_stats_percentile_edges;
    Alcotest.test_case "metrics JSON snapshot" `Quick test_json_snapshot;
    Alcotest.test_case "weak registry grows instead of dropping" `Quick test_registry_grows;
  ]
