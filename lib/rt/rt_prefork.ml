(* Prefork server harness on real domains (§4.5.2 end to end).

   [run ~workers] spawns [workers] worker domains that register with an
   [Rt_monitor] listener and sit in accept loops, plus client domains that
   connect, stream [msgs_per_conn] messages of [payload] bytes per
   connection, and close.  Small payloads go through [Rt_sock.send_burst]
   (token-held, [Batch_ctl]-bounded vectored sends), larger ones through
   [Rt_sock.send] and its copy policy.  Workers drain each connection to
   EOF (optionally echoing) and release their tokens — the cooperative-hold
   contract.

   Returns per-worker accept/steal/byte distributions plus wall time, so
   callers (bench rows, the sim-equivalence test) can check §4.5.2
   invariants: every byte arrives exactly once, accepts spread round-robin,
   idle workers steal rather than idle. *)

type stats = {
  workers : int;
  conns : int;
  served : int array;  (** connections each worker accepted *)
  stolen : int array;  (** of those, how many it stole *)
  bytes : int array;  (** payload bytes each worker received *)
  total_bytes : int;
  elapsed_ns : int;
}

let total_served s = Array.fold_left ( + ) 0 s.served
let total_stolen s = Array.fold_left ( + ) 0 s.stolen

let worker_loop mon ~index ~echo ~payload ~bytes =
  let w = Rt_monitor.register mon ~index in
  let buf = Bytes.create (max payload Rt_sock.max_inline) in
  let dom = Rt_dom.self () in
  let rec serve () =
    match Rt_monitor.accept mon ~index with
    | None -> ()
    | Some sock ->
      let rec drain () =
        let n = Rt_sock.recv sock ~dom buf ~off:0 ~len:(Bytes.length buf) in
        if n > 0 then begin
          bytes.(index) <- bytes.(index) + n;
          if echo then Rt_sock.send sock ~dom buf ~off:0 ~len:n;
          drain ()
        end
      in
      drain ();
      if echo then Rt_sock.close sock ~dom else Rt_sock.release_tokens sock ~dom;
      serve ()
  in
  serve ();
  w

let client_conn mon ~dom ~payload ~msgs ~burst ~echo buf entries =
  let sock = Rt_monitor.connect mon ~dom in
  if echo then begin
    (* Ping-pong: one message in flight keeps the echo ring bounded. *)
    let rbuf = Bytes.create (max payload Rt_sock.max_inline) in
    for _ = 1 to msgs do
      Rt_sock.send sock ~dom buf ~off:0 ~len:payload;
      let got = ref 0 in
      while !got < payload do
        let n = Rt_sock.recv sock ~dom rbuf ~off:0 ~len:(Bytes.length rbuf) in
        if n = 0 then failwith "Rt_prefork: echo stream ended early";
        got := !got + n
      done
    done;
    Rt_sock.close sock ~dom;
    (* Drain the server's FIN so its close completes cleanly. *)
    while Rt_sock.recv sock ~dom rbuf ~off:0 ~len:(Bytes.length rbuf) > 0 do
      ()
    done
  end
  else if payload < Sds_proto.Copy_policy.base_threshold && burst > 1 then begin
    let sent = ref 0 in
    while !sent < msgs do
      let n = min burst (msgs - !sent) in
      Rt_sock.send_burst sock ~dom entries ~n;
      sent := !sent + n
    done;
    Rt_sock.close sock ~dom
  end
  else begin
    for _ = 1 to msgs do
      Rt_sock.send sock ~dom buf ~off:0 ~len:payload
    done;
    Rt_sock.close sock ~dom
  end

let run ?(payload = 64) ?(msgs_per_conn = 1000) ?conns ?(echo = false) ?(burst = 32)
    ?ring_size ?capacity ?client_domains ~workers () =
  if workers < 1 then invalid_arg "Rt_prefork.run";
  let conns = match conns with Some c -> c | None -> workers in
  let client_domains =
    match client_domains with Some c -> max 1 (min c conns) | None -> min conns (max 1 workers)
  in
  let mon = Rt_monitor.create ?ring_size ?capacity ~workers () in
  let bytes = Array.make workers 0 in
  let worker_handles =
    Array.init workers (fun index ->
        Rt_dom.spawn (fun () -> worker_loop mon ~index ~echo ~payload ~bytes))
  in
  (* Barrier: dispatch needs the full worker array before any connect. *)
  while Rt_monitor.registered mon < workers do
    Domain.cpu_relax ()
  done;
  let t0 = Sds_obs.Span.now () in
  let clients =
    Array.init client_domains (fun c ->
        Rt_dom.spawn (fun () ->
            let dom = Rt_dom.self () in
            let buf = Bytes.make payload (Char.chr (65 + (c mod 26))) in
            let entries = Array.make (max burst 1) (buf, 0, payload) in
            (* Client [c] owns connections c, c+client_domains, ... *)
            let i = ref c in
            while !i < conns do
              client_conn mon ~dom ~payload ~msgs:msgs_per_conn ~burst ~echo buf entries;
              i := !i + client_domains
            done))
  in
  Array.iter Domain.join clients;
  Rt_monitor.close_listener mon;
  let worker_stats = Array.map Domain.join worker_handles in
  let elapsed_ns = Sds_obs.Span.now () - t0 in
  {
    workers;
    conns;
    served = Array.map Rt_monitor.served worker_stats;
    stolen = Array.map Rt_monitor.stolen worker_stats;
    bytes;
    total_bytes = Array.fold_left ( + ) 0 bytes;
    elapsed_ns;
  }
