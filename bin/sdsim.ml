(* sdsim: command-line driver for the SocksDirect reproduction experiments.

     sdsim list                 show available experiments
     sdsim run fig7 fig8 ...    run selected experiments
     sdsim run --all            run everything
     sdsim stats [--json]       exercise the data path, dump the metrics *)

open Cmdliner
module Obs = Sds_obs.Obs
module Common = Sds_experiments.Common

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table1", "overhead inventory and solutions", fun () -> Sds_experiments.Tables.run_table1 ());
    ("table2", "micro-operation latency/throughput", fun () -> Sds_experiments.Tables.run_table2 ());
    ("table3", "socket system feature matrix", fun () -> Sds_experiments.Tables.run_table3 ());
    ("table4", "latency breakdown per stack", fun () -> Sds_experiments.Tables.run_table4 ());
    ("fig7", "intra-host tput/latency vs message size", fun () -> ignore (Sds_experiments.Fig78.run_fig7 ()));
    ("fig8", "inter-host tput/latency vs message size", fun () -> ignore (Sds_experiments.Fig78.run_fig8 ()));
    ("fig9", "8-byte throughput vs cores", fun () -> ignore (Sds_experiments.Fig9.run ()));
    ("fig10", "latency vs processes per core", fun () -> ignore (Sds_experiments.Fig10.run ()));
    ("fig11", "Nginx HTTP latency vs response size", fun () -> ignore (Sds_experiments.Fig11.run ()));
    ("fig12", "NF pipeline throughput vs #NFs", fun () -> ignore (Sds_experiments.Fig12.run ()));
    ("redis", "Redis GET latency", fun () -> ignore (Sds_experiments.Apps_exp.run_redis ()));
    ("rpc", "RPClib 1 KiB RPC latency", fun () -> ignore (Sds_experiments.Apps_exp.run_rpc ()));
    ("connscale", "connection setup scalability", fun () -> ignore (Sds_experiments.Connscale.run ()));
    ("qpscale", "latency vs live QPs (NIC cache)", fun () -> ignore (Sds_experiments.Qpscale.run ()));
    ("loss", "lossy fabric: go-back-N vs selective", fun () -> ignore (Sds_experiments.Loss.run ()));
    ("mix", "goodput on the wide-area size mix", fun () -> ignore (Sds_experiments.Mix.run_mix ()));
    ("loadlat", "latency vs offered load", fun () -> ignore (Sds_experiments.Mix.run_loadlat ()));
    ("acceptscale", "pre-fork accept scaling", fun () -> ignore (Sds_experiments.Accept_scale.run ()));
    ("qos", "NIC-offloaded per-flow rate limiting", fun () -> ignore (Sds_experiments.Qos.run ()));
    ("ablation", "design-choice ablations", fun () -> ignore (Sds_experiments.Ablation.run ()));
  ]

let list_cmd =
  let doc = "List available experiments." in
  let run () = List.iter (fun (name, doc, _) -> Fmt.pr "%-10s %s@." name doc) experiments in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run selected experiments (or --all)." in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let run all names =
    let selected = if all || names = [] then List.map (fun (n, _, _) -> n) experiments else names in
    List.iter
      (fun name ->
        match List.find_opt (fun (n, _, _) -> n = name) experiments with
        | Some (_, _, f) -> f ()
        | None -> Fmt.epr "unknown experiment %S (try: sdsim list)@." name)
      selected
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ all $ names)

(* A short representative workload that lights up every instrumented layer:
   an intra-host ping-pong (SHM rings, monitor dispatch, token fast path),
   an intra-host large-message ping-pong (the §4.6 shared page pool:
   pool.* alloc/release churn, descriptor remaps, selective-copy policy),
   and an inter-host large-message ping-pong (RDMA QPs, NIC wire bytes,
   zero-copy page remapping). *)
let stats_workload () =
  let w = Common.make_world () in
  Sds_sim.Engine.install_trace_clock w.Common.engine;
  Sds_sim.Engine.install_span_clock w.Common.engine;
  let h = Common.add_host w in
  ignore
    (Common.pingpong
       (module Sds_apps.Sock_api.Sds)
       w ~client_host:h ~server_host:h ~size:64 ~rounds:512 ~warmup:32);
  let w1 = Common.make_world () in
  Sds_sim.Engine.install_trace_clock w1.Common.engine;
  Sds_sim.Engine.install_span_clock w1.Common.engine;
  let h1 = Common.add_host w1 in
  ignore
    (Common.pingpong
       (module Sds_apps.Sock_api.Sds)
       w1 ~client_host:h1 ~server_host:h1 ~size:32768 ~rounds:64 ~warmup:8);
  let w2 = Common.make_world () in
  Sds_sim.Engine.install_trace_clock w2.Common.engine;
  Sds_sim.Engine.install_span_clock w2.Common.engine;
  let a = Common.add_host w2 in
  let b = Common.add_host w2 in
  ignore
    (Common.pingpong
       (module Sds_apps.Sock_api.Sds)
       w2 ~client_host:a ~server_host:b ~size:32768 ~rounds:64 ~warmup:8)

let stats_cmd =
  let doc = "Run a representative workload and print the metrics snapshot." in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Emit the snapshot as JSON.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Also write the snapshot as JSON to $(docv).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the event trace as Chrome trace-event JSON to $(docv).")
  in
  let run json out trace_out =
    Obs.Metrics.reset ();
    Obs.Trace.clear ();
    stats_workload ();
    let js = Obs.Metrics.to_json () in
    if json then print_string js else print_string (Obs.Metrics.to_text ());
    (match out with
    | Some f -> Out_channel.with_open_text f (fun oc -> output_string oc js)
    | None -> ());
    match trace_out with
    | Some f ->
      let events = Obs.Trace.drain () in
      Out_channel.with_open_text f (fun oc -> output_string oc (Obs.Trace.to_chrome_json events))
    | None -> ()
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ json $ out $ trace_out)

(* `sdsim top`: a lightweight live view.  Each frame re-runs a short
   workload and renders per-stage span percentiles plus pool/ring
   occupancy, overwriting the screen — the text-mode analogue of watching
   latency attribution move as the data path runs. *)

let top_frame_workload () =
  let w = Common.make_world () in
  Sds_sim.Engine.install_trace_clock w.Common.engine;
  Sds_sim.Engine.install_span_clock w.Common.engine;
  let h = Common.add_host w in
  ignore
    (Common.pingpong
       (module Sds_apps.Sock_api.Sds)
       w ~client_host:h ~server_host:h ~size:64 ~rounds:256 ~warmup:16);
  let w1 = Common.make_world () in
  Sds_sim.Engine.install_trace_clock w1.Common.engine;
  Sds_sim.Engine.install_span_clock w1.Common.engine;
  let h1 = Common.add_host w1 in
  ignore
    (Common.pingpong
       (module Sds_apps.Sock_api.Sds)
       w1 ~client_host:h1 ~server_host:h1 ~size:32768 ~rounds:32 ~warmup:4)

let render_top ~frame ~frames =
  let snap = Obs.Metrics.snapshot () in
  let counter name =
    match List.assoc_opt name snap.Obs.Metrics.counters with Some v -> v | None -> 0
  in
  let gauge name =
    match List.assoc_opt name snap.Obs.Metrics.gauges with Some v -> v | None -> 0
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "sdsim top — frame %d/%d  (spans in simulated ns)\n\n" frame frames);
  Buffer.add_string b
    (Printf.sprintf "%-12s %10s %10s %10s %10s\n" "stage" "count" "p50" "p99" "p999");
  List.iter
    (fun (name, hs) ->
      if String.length name > 5 && String.sub name 0 5 = "span." then
        Buffer.add_string b
          (Printf.sprintf "%-12s %10d %10d %10d %10d\n" name hs.Obs.Metrics.hs_count
             hs.Obs.Metrics.hs_p50 hs.Obs.Metrics.hs_p99 hs.Obs.Metrics.hs_p999))
    snap.Obs.Metrics.histograms;
  let pages = gauge "pool.pages" and in_use = gauge "pool.pages_in_use" in
  let occ = if pages > 0 then 100. *. float_of_int in_use /. float_of_int pages else 0. in
  Buffer.add_string b
    (Printf.sprintf "\npool: %d/%d pages in use (%.1f%%)   copy threshold: %d B (%d switches)\n"
       in_use pages occ
       (match gauge "copy_policy.threshold" with
       | 0 -> Sds_proto.Copy_policy.base_threshold (* no move yet *)
       | t -> t)
       (counter "copy_policy.switches"));
  Buffer.add_string b
    (Printf.sprintf "ring: %d enq / %d deq (backlog %d)   parks: %d  wakes: %d\n"
       (counter "ring.enqueues") (counter "ring.dequeues")
       (counter "ring.enqueues" - counter "ring.dequeues")
       (counter "notify.parks") (counter "notify.wakes"));
  Buffer.contents b

let top_cmd =
  let doc = "Live text view: per-stage span percentiles and occupancy." in
  let frames =
    Arg.(value & opt int 5 & info [ "frames" ] ~docv:"N" ~doc:"Number of frames to render.")
  in
  let no_clear =
    Arg.(value & flag & info [ "no-clear" ] ~doc:"Do not clear the screen between frames.")
  in
  let interval =
    Arg.(
      value
      & opt float 0.2
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Delay between frames.")
  in
  let run frames no_clear interval =
    for frame = 1 to frames do
      Obs.Metrics.reset ();
      top_frame_workload ();
      if not no_clear then print_string "\027[2J\027[H";
      print_string (render_top ~frame ~frames);
      flush stdout;
      if frame < frames && interval > 0. then Unix.sleepf interval
    done
  in
  Cmd.v (Cmd.info "top" ~doc) Term.(const run $ frames $ no_clear $ interval)

let () =
  Sds_obs.Flight.install ();
  let doc = "SocksDirect (SIGCOMM'19) reproduction experiment driver" in
  let info = Cmd.info "sdsim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ list_cmd; run_cmd; stats_cmd; top_cmd ]))
