(* The benchmark harness: one runner per paper table and figure (simulated
   experiments calibrated from Table 2/4), plus a Bechamel suite measuring
   the REAL wall-clock cost of the data structures this repo implements
   (the §4.2 ring vs the locked / buffer-allocating baselines, FD tables,
   protocol codecs).

   Usage: main.exe [--json] [--metrics-out FILE] [--copy-policy MODE]
   [experiment ...] with experiments from: table1 table2 table3 table4 fig7
   fig8 fig9 fig10 fig11 fig12 redis rpc connscale ablation micro
   ring2core.  No arguments = all.  With [--json], the micro and ring2core
   results are also written to BENCH_ring.json for the perf trajectory.
   With [--metrics-out FILE], the process-wide Obs metrics snapshot is
   written there as JSON after the runs, next to BENCH_*.json.
   [--copy-policy always|never|adaptive] selects the Libra selective-copy
   mode for the ring2core large-payload stream rows (default adaptive);
   the forced-copy comparison rows always run with [always]. *)

open Sds_experiments

(* ---- Bechamel micro-benchmarks on the real data structures ----

   Each test carries the number of per-message operations one staged run
   performs, so every row reports ns (and minor words) per *message* —
   batched rows included — and rows stay comparable. *)

let bechamel_tests () =
  let open Bechamel in
  let payload = Bytes.make 64 'x' in
  let big = Bytes.make 4096 'y' in
  (* §4.2 per-socket ring: no allocation, no lock.  The dequeue side uses
     [try_dequeue_packed] — the zero-allocation hot path the transport layer
     runs — so minor words/op on this row should read ~0. *)
  let ring = Sds_ring.Spsc_ring.create ~size:(1 lsl 16) () in
  let dst = Bytes.create 8192 in
  let t_ring =
    Test.make ~name:"spsc_ring enq+deq 64B"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Spsc_ring.try_enqueue ring payload ~off:0 ~len:64);
           ignore (Sds_ring.Spsc_ring.try_dequeue_packed ~auto_credit:true ring ~dst ~dst_off:0)))
  in
  let ring4k = Sds_ring.Spsc_ring.create ~size:(1 lsl 16) () in
  let t_ring4k =
    Test.make ~name:"spsc_ring enq+deq 4KiB"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Spsc_ring.try_enqueue ring4k big ~off:0 ~len:4096);
           ignore (Sds_ring.Spsc_ring.try_dequeue_packed ~auto_credit:true ring4k ~dst ~dst_off:0)))
  in
  (* The old allocating dequeue, kept as its own row so the allocation win
     stays visible in the output. *)
  let ring_alloc = Sds_ring.Spsc_ring.create ~size:(1 lsl 16) () in
  let t_ring_alloc =
    Test.make ~name:"spsc_ring enq+deq 64B alloc"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Spsc_ring.try_enqueue ring_alloc payload ~off:0 ~len:64);
           ignore (Sds_ring.Spsc_ring.try_dequeue ~auto_credit:true ring_alloc)))
  in
  (* Vectored enqueue: 32 messages per tail publication (§4.2 batching). *)
  let ring_batch = Sds_ring.Spsc_ring.create ~size:(1 lsl 16) () in
  let batch_srcs = Array.make 32 (payload, 0, 64) in
  let t_ring_batch =
    Test.make ~name:"spsc_ring batch32 64B/msg"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Spsc_ring.enqueue_batch ring_batch batch_srcs ~pos:0 ~n:32);
           for _ = 1 to 32 do
             ignore (Sds_ring.Spsc_ring.try_dequeue_packed ~auto_credit:true ring_batch ~dst ~dst_off:0)
           done))
  in
  (* Baseline: per-FD mutex on every operation (§2.1.1). *)
  let locked = Sds_ring.Locked_queue.create ~capacity_bytes:(1 lsl 16) () in
  let t_locked =
    Test.make ~name:"locked_queue enq+deq 64B"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Locked_queue.try_enqueue locked payload ~off:0 ~len:64);
           ignore (Sds_ring.Locked_queue.try_dequeue locked)))
  in
  (* Baseline: MTU buffer allocated and freed per packet (§2.1.2). *)
  let alloc = Sds_ring.Alloc_queue.create ~slots:1024 ~buffer_size:4096 () in
  let t_alloc =
    Test.make ~name:"alloc_queue enq+deq 64B"
      (Staged.stage (fun () ->
           ignore (Sds_ring.Alloc_queue.try_enqueue alloc payload ~off:0 ~len:64);
           ignore (Sds_ring.Alloc_queue.try_dequeue alloc)))
  in
  (* Lowest-FD allocation table (§4.5.1). *)
  let fds = Sds_kernel.Fd_table.create () in
  let t_fd =
    Test.make ~name:"fd_table alloc+close"
      (Staged.stage (fun () ->
           let fd = Sds_kernel.Fd_table.alloc fds () in
           ignore (Sds_kernel.Fd_table.close fds fd)))
  in
  (* Event-queue heap (simulator substrate). *)
  let heap = Sds_sim.Heap.create ~less:(fun a b -> a < b) ~dummy:0 () in
  let cnt = ref 0 in
  let t_heap =
    Test.make ~name:"heap push+pop"
      (Staged.stage (fun () ->
           incr cnt;
           Sds_sim.Heap.push heap (!cnt * 7919 mod 65536);
           ignore (Sds_sim.Heap.pop heap)))
  in
  (* Protocol codecs used by the application benchmarks. *)
  let req = "GET /bytes/4096 HTTP/1.1" in
  let t_http =
    Test.make ~name:"http request-line parse"
      (Staged.stage (fun () ->
           match String.split_on_char ' ' req with
           | [ m; p; v ] -> ignore (m, p, v)
           | _ -> assert false))
  in
  (* Allocation-free RPC codec: frame into a reused buffer, parse through
     the in-place field accessors (no method string, no payload copy). *)
  let rpc_payload = Bytes.make 1024 'r' in
  let rpc_buf = Bytes.create 2048 in
  let rpc_sink = ref 0 in
  let t_rpc =
    Test.make ~name:"rpc frame+parse 1KiB"
      (Staged.stage (fun () ->
           let total =
             Sds_apps.Rpc.frame_into ~buf:rpc_buf ~call_id:42 ~meth:"echo" ~payload:rpc_payload
           in
           rpc_sink :=
             !rpc_sink + total + Sds_apps.Rpc.frame_call_id rpc_buf
             + Sds_apps.Rpc.frame_payload_len rpc_buf))
  in
  (* §4.4 notification primitives: the hot-path sender cost (notify with no
     one parked) and the waiter's spin-phase arm/disarm. *)
  let w = Sds_notify.Waiter.create () in
  let t_notify =
    Test.make ~name:"notify unparked"
      (Staged.stage (fun () -> Sds_notify.Waiter.notify w))
  in
  let t_prepare =
    Test.make ~name:"waiter prepare+cancel"
      (Staged.stage (fun () ->
           ignore (Sds_notify.Waiter.prepare_wait w);
           Sds_notify.Waiter.cancel w))
  in
  [
    (t_ring, 1); (t_ring4k, 1); (t_ring_alloc, 1); (t_ring_batch, 32); (t_locked, 1);
    (t_alloc, 1); (t_fd, 1); (t_heap, 1); (t_http, 1); (t_rpc, 1); (t_notify, 1); (t_prepare, 1);
  ]

(* Runs the Bechamel suite measuring both wall clock and minor-heap words
   per op; returns [(name, ns_per_op, minor_words_per_op)] rows. *)
let run_bechamel () =
  let open Bechamel in
  Fmt.pr "@.== Bechamel: real wall-clock cost of the implemented data structures ==@.";
  Fmt.pr "%-30s %12s %16s@." "benchmark" "ns/op" "minor words/op";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let minor = Toolkit.Instance.minor_allocated in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  (* Each grouped run holds exactly one test; grab its single estimate
     whatever key Analyze filed it under. *)
  let estimate results _name =
    Hashtbl.fold
      (fun _ v acc ->
        match acc with
        | Some _ -> acc
        | None -> ( match Analyze.OLS.estimates v with Some [ est ] -> Some est | _ -> None))
      results None
  in
  List.filter_map
    (fun (test, units) ->
      let name = Test.name test in
      let raw = Benchmark.all cfg [ clock; minor ] (Test.make_grouped ~name:"g" [ test ]) in
      let ns = estimate (Analyze.all ols clock raw) name in
      let words = estimate (Analyze.all ols minor raw) name in
      match (ns, words) with
      | Some ns, Some words ->
        (* Per-message normalization: a staged run of a batched test covers
           [units] messages. *)
        let ns = ns /. float_of_int units and words = words /. float_of_int units in
        Fmt.pr "%-30s %12.1f %16.3f@." name ns words;
        Some (name, ns, words)
      | _ ->
        Fmt.pr "%-30s %12s %16s@." name "n/a" "n/a";
        None)
    (bechamel_tests ())

(* ---- experiment registry ---- *)

(* JSON sink: "micro" and "ring2core" deposit their rows here; when --json
   was given, main writes them to BENCH_ring.json at exit. *)
let json_micro : (string * float * float) list ref = ref []
let json_ring : Ring_bench.result list ref = ref []

(* --copy-policy knob for the ring2core stream rows (Libra selective
   copying); set from argv before the experiments run. *)
let copy_mode = ref Sds_proto.Copy_policy.Adaptive

let experiments : (string * (unit -> unit)) list =
  [
    (* micro runs first: Bechamel's wall-clock measurements are cleanest
       before the simulation experiments grow the heap. *)
    ("micro", fun () -> json_micro := run_bechamel ());
    ("ring2core", fun () -> json_ring := Ring_bench.run_all ~copy_mode:!copy_mode ());
    ("table1", fun () -> Tables.run_table1 ());
    ("table2", fun () -> Tables.run_table2 ());
    ("table3", fun () -> Tables.run_table3 ());
    ("table4", fun () -> Tables.run_table4 ());
    ("fig7", fun () -> ignore (Fig78.run_fig7 ()));
    ("fig8", fun () -> ignore (Fig78.run_fig8 ()));
    ("fig9", fun () -> ignore (Fig9.run ()));
    ("fig10", fun () -> ignore (Fig10.run ()));
    ("fig11", fun () -> ignore (Fig11.run ()));
    ("fig12", fun () -> ignore (Fig12.run ()));
    ("redis", fun () -> ignore (Apps_exp.run_redis ()));
    ("rpc", fun () -> ignore (Apps_exp.run_rpc ()));
    ("connscale", fun () -> ignore (Connscale.run ()));
    ("qpscale", fun () -> ignore (Qpscale.run ()));
    ("loss", fun () -> ignore (Loss.run ()));
    ("mix", fun () -> ignore (Mix.run_mix ()));
    ("loadlat", fun () -> ignore (Mix.run_loadlat ()));
    ("acceptscale", fun () -> ignore (Accept_scale.run ()));
    ("qos", fun () -> ignore (Qos.run ()));
    ("ablation", fun () -> ignore (Ablation.run ()));
  ]

let () =
  (* Crash/SIGQUIT flight-recorder dump: a wedged bench run leaves a
     postmortem with the last spans and ring/pool state. *)
  Sds_obs.Flight.install ();
  let args = List.tl (Array.to_list Sys.argv) in
  let json = List.mem "--json" args in
  (* --metrics-out FILE: consume the flag and its argument. *)
  let rec extract_metrics_out acc = function
    | "--metrics-out" :: path :: rest -> (Some path, List.rev_append acc rest)
    | "--metrics-out" :: [] ->
      Fmt.epr "--metrics-out requires a file argument@.";
      exit 1
    | a :: rest -> extract_metrics_out (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let metrics_out, args = extract_metrics_out [] args in
  (* --copy-policy MODE: consume the flag and its argument. *)
  let rec extract_copy_policy acc = function
    | "--copy-policy" :: m :: rest -> (
      match Sds_proto.Copy_policy.mode_of_string m with
      | Some mode ->
        copy_mode := mode;
        List.rev_append acc rest
      | None ->
        Fmt.epr "--copy-policy must be one of: always never adaptive@.";
        exit 1)
    | "--copy-policy" :: [] ->
      Fmt.epr "--copy-policy requires a mode argument@.";
      exit 1
    | a :: rest -> extract_copy_policy (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract_copy_policy [] args in
  let requested =
    match List.filter (fun a -> a <> "--json") args with
    | _ :: _ as names -> names
    | [] -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run ->
        let t0 = Unix.gettimeofday () in
        run ();
        Fmt.pr "(%s finished in %.1fs wall clock)@." name (Unix.gettimeofday () -. t0)
      | None ->
        Fmt.epr "unknown experiment %S; available: %s@." name
          (String.concat " " (List.map fst experiments));
        exit 1)
    requested;
  if json then begin
    (* micro --json implies the ring2core rows too: the file is the ring
       perf trajectory, so always carry the cross-domain numbers. *)
    if !json_ring = [] && List.mem "micro" requested then
      json_ring := Ring_bench.run_all ~copy_mode:!copy_mode ();
    Ring_bench.write_json ~path:"BENCH_ring.json" ~micro:!json_micro !json_ring
  end;
  match metrics_out with
  | Some path ->
    Out_channel.with_open_text path (fun oc -> output_string oc (Sds_obs.Obs.Metrics.to_json ()));
    Fmt.pr "metrics snapshot written to %s@." path
  | None -> ()
