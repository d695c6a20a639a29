(* Host canary: the rpc_small and stream_16k shapes over kernel AF_UNIX
   stream sockets between the main domain and one spawned domain.  Nothing
   here runs repo code, so when these numbers move between runs of the same
   commit, the machine moved — and they are the kernel-socket baseline the
   real-domain stack is compared against. *)

let now = Sds_obs.Span.monotonic_ns

let rec read_exact fd buf off len =
  len = 0
  ||
  let n = Unix.read fd buf off len in
  n > 0 && read_exact fd buf (off + n) (len - n)

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ a; b ]) (fun () -> f a b)

(* Median 64-byte round trip, in microseconds, over [seconds] after a
   warm-up of a tenth of that. *)
let rtt_us ~seconds =
  with_pair (fun a b ->
      let echo =
        Domain.spawn (fun () ->
            let buf = Bytes.create 64 in
            while read_exact b buf 0 64 do
              ignore (Unix.write b buf 0 64)
            done)
      in
      let buf = Bytes.make 64 'k' in
      let lat = Samples.create (1 lsl 16) in
      let t = ref (now ()) in
      let warm_end = !t + int_of_float (seconds *. 0.1e9) in
      let stop = warm_end + int_of_float (seconds *. 1e9) in
      while !t < stop do
        ignore (Unix.write a buf 0 64);
        if not (read_exact a buf 0 64) then failwith "canary: echo ended early";
        let t' = now () in
        if !t >= warm_end then Samples.add lat (t' - !t);
        t := t'
      done;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Domain.join echo;
      Samples.percentile (Samples.sorted lat) 0.5 /. 1e3)

(* One-way 16 KiB writes for [seconds]; MB/s (10^6 bytes) the receiver
   drained, timed from the first write to the receiver reaching EOF. *)
let stream_mb_s ~seconds =
  with_pair (fun a b ->
      let sink =
        Domain.spawn (fun () ->
            let buf = Bytes.create (64 * 1024) in
            let total = ref 0 in
            let rec go () =
              let n = Unix.read b buf 0 (Bytes.length buf) in
              if n > 0 then begin
                total := !total + n;
                go ()
              end
            in
            go ();
            !total)
      in
      let chunk = Bytes.make (16 * 1024) 's' in
      let t0 = now () in
      let stop = t0 + int_of_float (seconds *. 1e9) in
      while now () < stop do
        ignore (Unix.write a chunk 0 (Bytes.length chunk))
      done;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      let total = Domain.join sink in
      float_of_int total /. (float_of_int (now () - t0) /. 1e9) /. 1e6)
