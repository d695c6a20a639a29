(* The real-domain backend: shared protocol cores (Token_proto, Batch_ctl,
   Dispatch_core), the §4.2 token handoff on actual OCaml domains, the
   ring+pagepool socket layer, and the §4.5.2 prefork monitor — including
   the sim-vs-rt equivalence check that both backends drive the SAME
   dispatch policy code. *)

module P = Sds_proto.Token_proto
module B = Sds_proto.Batch_ctl
module D = Sds_proto.Dispatch_core
module Rt_dom = Sds_rt.Rt_dom
module Rt_token = Sds_rt.Rt_token
module Rt_sock = Sds_rt.Rt_sock
module Rt_monitor = Sds_rt.Rt_monitor
module Obs = Sds_obs.Obs

(* ---- shared protocol cores ---- *)

let test_token_proto () =
  let s = P.held ~holder:3 in
  Alcotest.(check bool) "held" true (P.is_held_by s ~id:3);
  Alcotest.(check bool) "not held by other" false (P.is_held_by s ~id:4);
  Alcotest.(check bool) "no request yet" false (P.has_request s);
  (* Same-holder acquire is the fast path. *)
  (match P.acquire s ~id:3 with
  | P.Fast -> ()
  | _ -> Alcotest.fail "holder re-acquire must be Fast");
  (* A free token is taken directly. *)
  (match P.acquire P.free ~id:7 with
  | P.Take s' -> Alcotest.(check bool) "taken" true (P.is_held_by s' ~id:7)
  | _ -> Alcotest.fail "free token must be Take");
  (* A held token gets a posted request; the slot then makes others Wait. *)
  let s' =
    match P.acquire s ~id:5 with
    | P.Post s' ->
      Alcotest.(check int) "requester recorded" 5 (P.requester s');
      Alcotest.(check bool) "still held" true (P.is_held_by s' ~id:3);
      s'
    | _ -> Alcotest.fail "first contender must Post"
  in
  (match P.acquire s' ~id:6 with
  | P.Wait -> ()
  | _ -> Alcotest.fail "second contender must Wait");
  (* The release fence: grant moves holdership to the requester. *)
  Alcotest.(check bool) "should_release" true (P.should_release s' ~id:3);
  let g = P.grant s' in
  Alcotest.(check bool) "granted" true (P.is_held_by g ~id:5);
  Alcotest.(check bool) "request slot cleared" false (P.has_request g);
  (* Release without a pending request frees the token. *)
  Alcotest.(check bool) "release frees" true (P.is_free (P.release s ~id:3));
  (* Release with a pending request grants instead. *)
  Alcotest.(check bool) "release grants" true (P.is_held_by (P.release s' ~id:3) ~id:5);
  (* Fork-time seize forces holdership, preserving a stranger's request. *)
  Alcotest.(check bool) "seize" true (P.is_held_by (P.seize s' ~id:9) ~id:9);
  Alcotest.(check int) "seize keeps request" 5 (P.requester (P.seize s' ~id:9))

let test_batch_ctl () =
  let c = B.create () in
  Alcotest.(check int) "starts at initial" 32 (B.budget c);
  (* Full acceptance with no backlog: rest at the initial budget. *)
  B.observe c ~sent:32 ~attempted:32 ~pressure:false;
  Alcotest.(check int) "full acceptance rests at initial" 32 (B.budget c);
  (* Partial acceptance: no change. *)
  B.observe c ~sent:10 ~attempted:32 ~pressure:false;
  Alcotest.(check int) "partial acceptance keeps budget" 32 (B.budget c);
  (* Only an observed ring-full (zero progress) halves. *)
  B.observe c ~sent:0 ~attempted:32 ~pressure:false;
  Alcotest.(check int) "ring-full halves" 16 (B.budget c);
  B.observe c ~sent:0 ~attempted:16 ~pressure:false;
  B.observe c ~sent:0 ~attempted:8 ~pressure:false;
  B.observe c ~sent:0 ~attempted:4 ~pressure:false;
  Alcotest.(check int) "floor at min" 4 (B.budget c);
  (* Recovery climbs back toward initial on full acceptance... *)
  B.observe c ~sent:4 ~attempted:4 ~pressure:false;
  Alcotest.(check int) "recovers toward initial" 8 (B.budget c);
  B.observe c ~sent:8 ~attempted:8 ~pressure:false;
  B.observe c ~sent:16 ~attempted:16 ~pressure:false;
  B.observe c ~sent:32 ~attempted:32 ~pressure:false;
  Alcotest.(check int) "rests at initial again" 32 (B.budget c);
  (* ...and grows past it only under caller backlog pressure. *)
  B.observe c ~sent:32 ~attempted:32 ~pressure:true;
  Alcotest.(check int) "pressure grows past initial" 64 (B.budget c);
  B.observe c ~sent:64 ~attempted:64 ~pressure:true;
  B.observe c ~sent:128 ~attempted:128 ~pressure:true;
  Alcotest.(check int) "capped at max" 256 (B.budget c);
  B.observe c ~sent:256 ~attempted:256 ~pressure:false;
  Alcotest.(check int) "no pressure rests back at initial" 32 (B.budget c);
  B.reset c;
  Alcotest.(check int) "reset" 32 (B.budget c)

let test_dispatch_core () =
  (* Round-robin over equal backlogs is a deterministic cycle. *)
  let lens = [| 0; 0; 0; 0 |] in
  let rr = ref 0 in
  let picks =
    List.init 8 (fun _ ->
        match D.pick ~n:4 ~rr:!rr ~length:(fun i -> lens.(i)) ~capacity:(fun _ -> 8) with
        | Some i ->
          rr := (i + 1) mod 4;
          i
        | None -> Alcotest.fail "pick must succeed with room")
  in
  Alcotest.(check (list int)) "round-robin cycle" [ 0; 1; 2; 3; 0; 1; 2; 3 ] picks;
  (* Full backlogs are skipped. *)
  let lens = [| 8; 0; 8; 1 |] in
  (match D.pick ~n:4 ~rr:0 ~length:(fun i -> lens.(i)) ~capacity:(fun _ -> 8) with
  | Some 1 -> ()
  | _ -> Alcotest.fail "must skip full worker 0");
  (* All full: None. *)
  (match D.pick ~n:2 ~rr:0 ~length:(fun _ -> 8) ~capacity:(fun _ -> 8) with
  | None -> ()
  | Some _ -> Alcotest.fail "all-full pick must be None");
  (* Steal from the strictly longest sibling; ties break to earlier index. *)
  let lens = [| 0; 3; 5; 5 |] in
  (match D.steal_victim ~n:4 ~self:0 ~length:(fun i -> lens.(i)) with
  | Some 2 -> ()
  | _ -> Alcotest.fail "must steal from earliest longest backlog");
  (match D.steal_victim ~n:4 ~self:2 ~length:(fun i -> lens.(i)) with
  | Some 3 -> ()
  | _ -> Alcotest.fail "must exclude self");
  match D.steal_victim ~n:3 ~self:1 ~length:(fun _ -> 0) with
  | None -> ()
  | Some _ -> Alcotest.fail "empty siblings must be None"

(* ---- Rt_token on real domains ---- *)

let test_token_fast_path () =
  let dom = Rt_dom.self () in
  let tok = Rt_token.create ~name:"fast" ~holder:dom () in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    Rt_token.with_held tok ~dom (fun () -> incr hits)
  done;
  Alcotest.(check int) "every op ran" 10_000 !hits;
  Alcotest.(check int) "same-domain ops never hand off" 0 (Rt_token.handoffs tok);
  Alcotest.(check int) "still held" dom (Rt_token.holder tok)

let test_token_free_start () =
  let tok = Rt_token.create ~name:"free" ~holder:(-1) () in
  Alcotest.(check int) "starts free" (-1) (Rt_token.holder tok);
  let dom = Rt_dom.self () in
  Rt_token.with_held tok ~dom (fun () -> ());
  Alcotest.(check int) "first operator took it" dom (Rt_token.holder tok)

(* Two domains churn one token; the plainly-shared counter is correct only
   if with_held provides mutual exclusion across the takeovers (the grant
   is the release fence that publishes the counter writes). *)
let test_token_two_domain_handoff () =
  let tok = Rt_token.create ~name:"pair" ~holder:(-1) () in
  let counter = ref 0 in
  let expected = Atomic.make 0 in
  let ops = 20_000 in
  let churn () =
    let dom = Rt_dom.self () in
    let mine = ref 0 in
    for _ = 1 to ops do
      Rt_token.with_held tok ~dom (fun () -> incr counter);
      incr mine
    done;
    (* On a single-core box one domain can run its whole churn before the
       other is ever scheduled — the latecomer then takes a *free* token
       and no handoff happens.  Keep operating until a takeover has been
       served: while we hold, the peer's acquire must go through a grant,
       and if the peer holds, our own with_held forces one. *)
    while Rt_token.handoffs tok = 0 do
      Rt_token.with_held tok ~dom (fun () -> incr counter);
      incr mine
    done;
    (* Cooperative-hold contract: done with the token, hand it back. *)
    Rt_token.release tok ~dom;
    ignore (Atomic.fetch_and_add expected !mine)
  in
  let a = Rt_dom.spawn churn in
  let b = Rt_dom.spawn churn in
  Domain.join a;
  Domain.join b;
  Alcotest.(check int) "no lost updates across takeovers" (Atomic.get expected) !counter;
  Alcotest.(check bool) "takeovers actually happened" true (Rt_token.handoffs tok > 0)

(* A holder that stops operating must release; the release serves a
   pending requester without the holder ever running another op. *)
let test_token_release_grants () =
  let dom = Rt_dom.self () in
  let tok = Rt_token.create ~name:"coop" ~holder:dom () in
  let resumed = Atomic.make false in
  let requester =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        Rt_token.acquire tok ~dom:d;
        Atomic.set resumed true)
  in
  (* Give the requester time to post its takeover and park; the main
     domain runs no further ops, so only release can serve it. *)
  Unix.sleepf 0.05;
  Alcotest.(check bool) "requester is blocked on an idle holder" false (Atomic.get resumed);
  Rt_token.release tok ~dom;
  Domain.join requester;
  Alcotest.(check bool) "release served the pending requester" true (Atomic.get resumed)

(* The §4.2 soak the issue asks for: 4 domains, 500k token-guarded ops.
   Every boundary with a pending request grants, so contending domains
   ping-pong holdership; how often they actually contend is up to the OS
   scheduler (a single-core box serializes domains in long slices), so the
   handoff assertion is existence, made deterministic the same way as the
   two-domain test: late finishers keep operating until a takeover has
   been served. *)
let test_token_soak_4dom () =
  let tok = Rt_token.create ~name:"soak" ~holder:(-1) () in
  let counter = ref 0 in
  let expected = Atomic.make 0 in
  let domains = 4 in
  let ops = 125_000 in
  let churn () =
    let dom = Rt_dom.self () in
    let mine = ref 0 in
    for _ = 1 to ops do
      Rt_token.with_held tok ~dom (fun () -> incr counter);
      incr mine
    done;
    while Rt_token.handoffs tok = 0 do
      Rt_token.with_held tok ~dom (fun () -> incr counter);
      incr mine
    done;
    Rt_token.release tok ~dom;
    ignore (Atomic.fetch_and_add expected !mine)
  in
  let ds = Array.init domains (fun _ -> Rt_dom.spawn churn) in
  Array.iter Domain.join ds;
  Alcotest.(check bool) "at least 500k ops ran" true (Atomic.get expected >= domains * ops);
  Alcotest.(check int) "zero lost updates" (Atomic.get expected) !counter;
  Alcotest.(check bool) "takeovers happened" true (Rt_token.handoffs tok > 0)

(* ---- Rt_sock ---- *)

(* A byte stream promises the bytes in order, not one message per call:
   each returned chunk is checked against the stream at its offset. *)
let test_sock_inline_loopback () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let msg = Bytes.of_string "hello, real domains" in
  let n_msgs = 100 in
  for _ = 1 to n_msgs do
    Rt_sock.send a ~dom msg ~off:0 ~len:(Bytes.length msg)
  done;
  Rt_sock.close a ~dom;
  let stream = String.concat "" (List.init n_msgs (fun _ -> Bytes.to_string msg)) in
  let dst = Bytes.create Rt_sock.max_inline in
  let got = ref 0 in
  let rec drain () =
    let n = Rt_sock.recv b ~dom dst ~off:0 ~len:(Bytes.length dst) in
    if n > 0 then begin
      if !got + n > String.length stream then Alcotest.failf "%d bytes past the stream" (!got + n);
      Alcotest.(check string) "chunk matches the stream at its offset" (String.sub stream !got n)
        (Bytes.sub_string dst 0 n);
      got := !got + n;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "every byte arrived" (n_msgs * Bytes.length msg) !got;
  Alcotest.(check bool) "EOF latched" true (Rt_sock.at_eof b);
  Alcotest.(check int) "recv after EOF stays 0" 0
    (Rt_sock.recv b ~dom dst ~off:0 ~len:(Bytes.length dst));
  Alcotest.(check int) "bytes_sent" (n_msgs * Bytes.length msg) (Rt_sock.bytes_sent a);
  Alcotest.(check int) "bytes_received" (n_msgs * Bytes.length msg) (Rt_sock.bytes_received b)

(* Payloads above the crossover go through pagepool descriptor records;
   the stream must reassemble exactly, across a real domain boundary. *)
let test_sock_desc_path () =
  let dom = Rt_dom.self () in
  let payload = Sds_proto.Copy_policy.base_threshold + 4097 in
  let msgs = 50 in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:(-1) () in
  let receiver =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        let dst = Bytes.create (Rt_sock.max_desc_per_record * 4096) in
        let total = ref 0 in
        let sum = ref 0 in
        let rec go () =
          let n = Rt_sock.recv b ~dom:d dst ~off:0 ~len:(Bytes.length dst) in
          if n > 0 then begin
            for i = 0 to n - 1 do
              sum := !sum + Char.code (Bytes.get dst i)
            done;
            total := !total + n;
            go ()
          end
        in
        go ();
        (!total, !sum))
  in
  let src = Bytes.create payload in
  for i = 0 to payload - 1 do
    Bytes.set src i (Char.chr (i land 0x7F))
  done;
  let expected_one = ref 0 in
  for i = 0 to payload - 1 do
    expected_one := !expected_one + (i land 0x7F)
  done;
  for _ = 1 to msgs do
    Rt_sock.send a ~dom src ~off:0 ~len:payload
  done;
  Rt_sock.close a ~dom;
  let total, sum = Domain.join receiver in
  Alcotest.(check int) "every byte crossed the descriptor path" (msgs * payload) total;
  Alcotest.(check int) "payload bytes intact" (msgs * !expected_one) sum

let test_sock_send_burst () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let payload = 64 in
  let buf = Bytes.make payload 'z' in
  let n = 1000 in
  let entries = Array.make 100 (buf, 0, payload) in
  let sent = ref 0 in
  while !sent < n do
    let k = min 100 (n - !sent) in
    Rt_sock.send_burst a ~dom entries ~n:k;
    sent := !sent + k;
    (* Interleave draining so the burst never wedges on ring credits. *)
    let dst = Bytes.create Rt_sock.max_inline in
    let continue = ref true in
    while !continue do
      if Rt_sock.bytes_received b >= !sent * payload then continue := false
      else if Rt_sock.recv b ~dom dst ~off:0 ~len:(Bytes.length dst) = 0 then continue := false
    done
  done;
  Alcotest.(check int) "burst bytes all received" (n * payload) (Rt_sock.bytes_received b)

(* ---- receive-side batching ---- *)

let small_msg i len = Bytes.init len (fun j -> Char.chr (((i * 37) + j) land 0xff))

(* Queued data, then a FIN: the first call lands the data and stops before
   the FIN, the next returns 0 and latches EOF. *)
let test_sock_drain_stops_at_fin () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let msgs = List.init 3 (fun i -> small_msg i 10) in
  List.iter (fun m -> Rt_sock.send a ~dom m ~off:0 ~len:10) msgs;
  Rt_sock.close a ~dom;
  let dst = Bytes.create 1000 in
  Alcotest.(check int) "the data first" 30 (Rt_sock.recv b ~dom dst ~off:0 ~len:1000);
  Alcotest.(check string) "in order" (Bytes.to_string (Bytes.concat Bytes.empty msgs))
    (Bytes.sub_string dst 0 30);
  Alcotest.(check bool) "EOF not yet latched" false (Rt_sock.at_eof b);
  Alcotest.(check int) "then 0" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:1000);
  Alcotest.(check bool) "EOF latched" true (Rt_sock.at_eof b)

(* The drain stops before a descriptor record; the next call lands it. *)
let test_sock_drain_stops_at_desc () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  let big = Bytes.init size (fun i -> Char.chr ((i * 11) land 0xff)) in
  let desc0 = Obs.Metrics.counter_value "rt.desc_sends" in
  Rt_sock.send a ~dom (small_msg 1 10) ~off:0 ~len:10;
  Rt_sock.send a ~dom (small_msg 2 10) ~off:0 ~len:10;
  Rt_sock.send a ~dom big ~off:0 ~len:size;
  Rt_sock.send a ~dom (small_msg 3 10) ~off:0 ~len:10;
  Alcotest.(check int) "one descriptor record" 1 (Obs.Metrics.counter_value "rt.desc_sends" - desc0);
  let dst = Bytes.create (2 * size) in
  Alcotest.(check int) "the inline records" 20 (Rt_sock.recv b ~dom dst ~off:0 ~len:(2 * size));
  Alcotest.(check int) "then the descriptor record" size
    (Rt_sock.recv b ~dom dst ~off:0 ~len:(2 * size));
  Alcotest.(check bool) "its bytes" true (Bytes.equal (Bytes.sub dst 0 size) big);
  Alcotest.(check int) "then the last record" 10 (Rt_sock.recv b ~dom dst ~off:0 ~len:(2 * size));
  Alcotest.(check string) "its bytes" (Bytes.to_string (small_msg 3 10)) (Bytes.sub_string dst 0 10);
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

(* Only whole records join a call, and nothing is written outside
   [off, off+len). *)
let test_sock_drain_whole_records () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let msgs = List.init 3 (fun i -> small_msg i 10) in
  List.iter (fun m -> Rt_sock.send a ~dom m ~off:0 ~len:10) msgs;
  let dst = Bytes.make 40 '#' in
  Alcotest.(check int) "two whole records" 20 (Rt_sock.recv b ~dom dst ~off:5 ~len:25);
  Alcotest.(check string) "nothing before off" "#####" (Bytes.sub_string dst 0 5);
  Alcotest.(check string) "the two records"
    (Bytes.to_string (Bytes.concat Bytes.empty [ List.nth msgs 0; List.nth msgs 1 ]))
    (Bytes.sub_string dst 5 20);
  Alcotest.(check string) "nothing past the records" (String.make 15 '#') (Bytes.sub_string dst 25 15);
  Alcotest.(check int) "the third next" 10 (Rt_sock.recv b ~dom dst ~off:0 ~len:40);
  Alcotest.(check string) "its bytes" (Bytes.to_string (List.nth msgs 2)) (Bytes.sub_string dst 0 10);
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

(* One call lands at most one sender batch. *)
let test_sock_drain_one_batch () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let srcs = Array.init 33 (fun i -> (small_msg i 64, 0, 64)) in
  Rt_sock.send_burst a ~dom srcs ~n:33;
  let dst = Bytes.create 8192 in
  let calls0 = Obs.Metrics.counter_value "rt.recvs" in
  Alcotest.(check int) "32 records" (32 * 64) (Rt_sock.recv b ~dom dst ~off:0 ~len:8192);
  Alcotest.(check int) "then the 33rd" 64 (Rt_sock.recv b ~dom dst ~off:0 ~len:8192);
  Alcotest.(check string) "its bytes" (Bytes.to_string (small_msg 32 64)) (Bytes.sub_string dst 0 64);
  Alcotest.(check int) "two calls counted" 2 (Obs.Metrics.counter_value "rt.recvs" - calls0);
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

(* Sixteen rings' worth of small records through a receiver on another
   domain that drains into a large buffer: credits come back in time and
   every byte arrives in order. *)
let test_sock_drain_no_credit_wedge () =
  let dom = Rt_dom.self () in
  let ring_size = 4096 in
  let a, b = Rt_sock.pair ~ring_size ~a_owner:dom ~b_owner:(-1) () in
  let total = 16 * ring_size in
  let byte i = Char.chr ((i * 7) land 0xff) in
  let receiver =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        let dst = Bytes.create 8192 in
        let got = ref 0 and bad = ref 0 in
        let rec go () =
          let n = Rt_sock.recv b ~dom:d dst ~off:0 ~len:(Bytes.length dst) in
          if n > 0 then begin
            for i = 0 to n - 1 do
              if Bytes.get dst i <> byte (!got + i) then incr bad
            done;
            got := !got + n;
            go ()
          end
        in
        go ();
        (!got, !bad))
  in
  let stream = Bytes.init total byte in
  let burst = 24 and size = 40 in
  let srcs = Array.make burst (stream, 0, size) in
  let pos = ref 0 in
  while !pos < total do
    let n = min burst ((total - !pos) / size) in
    for i = 0 to n - 1 do
      srcs.(i) <- (stream, !pos + (i * size), size)
    done;
    Rt_sock.send_burst a ~dom srcs ~n;
    pos := !pos + (n * size);
    if n = 0 then begin
      Rt_sock.send a ~dom stream ~off:!pos ~len:(total - !pos);
      pos := total
    end
  done;
  Rt_sock.close a ~dom;
  let got, bad = Domain.join receiver in
  Alcotest.(check int) "every byte arrived" total got;
  Alcotest.(check int) "in order" 0 bad

(* A zero-length burst entry is an empty record: [recv] passes over it
   and returns 0 only at EOF. *)
let test_sock_empty_record_not_eof () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let m = Bytes.of_string "hi" in
  let dst = Bytes.create 64 in
  Rt_sock.send_burst a ~dom [| (m, 0, 0) |] ~n:1;
  Rt_sock.send a ~dom m ~off:0 ~len:2;
  Alcotest.(check int) "the bytes behind it" 2 (Rt_sock.recv b ~dom dst ~off:0 ~len:64);
  Rt_sock.send_burst a ~dom [| (m, 0, 0) |] ~n:1;
  Rt_sock.close a ~dom;
  Alcotest.(check int) "then EOF" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:64);
  Alcotest.(check bool) "a real EOF" true (Rt_sock.at_eof b)

(* A burst with one bad entry is refused whole: nothing reaches the
   peer, even though the entries before it would fill several batches. *)
let test_sock_burst_invalid_sends_nothing () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let m = Bytes.make 64 'v' in
  let srcs = Array.make 40 (m, 0, 64) in
  srcs.(35) <- (m, 32, 64);
  Alcotest.check_raises "bad range" (Invalid_argument "Rt_sock.send_burst") (fun () ->
      Rt_sock.send_burst a ~dom srcs ~n:40);
  srcs.(35) <- (Bytes.create (40 * 1024), 0, 40 * 1024);
  Alcotest.check_raises "over half the ring" (Invalid_argument "Rt_sock.send_burst") (fun () ->
      Rt_sock.send_burst a ~dom srcs ~n:40);
  Alcotest.(check int) "bytes_sent" 0 (Rt_sock.bytes_sent a);
  Rt_sock.close a ~dom;
  Alcotest.(check int) "the peer sees only EOF" 0 (Rt_sock.recv b ~dom (Bytes.create 4096) ~off:0 ~len:4096);
  Alcotest.(check int) "bytes_received" 0 (Rt_sock.bytes_received b)

(* A record longer than [len] comes back over several calls: [recv] never
   returns more than [len] nor writes outside [off, off+len). *)
let test_sock_short_read_inline () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let src = Bytes.init 1000 (fun i -> Char.chr (i land 0xff)) in
  Rt_sock.send a ~dom src ~off:0 ~len:1000;
  let dst = Bytes.make 2000 '#' in
  Alcotest.(check int) "first read capped at len" 100 (Rt_sock.recv b ~dom dst ~off:0 ~len:100);
  Alcotest.(check string) "head intact" (Bytes.sub_string src 0 100) (Bytes.sub_string dst 0 100);
  Alcotest.(check string) "nothing written past off+len" (String.make 1900 '#')
    (Bytes.sub_string dst 100 1900);
  Alcotest.(check int) "the rest of the record" 900 (Rt_sock.recv b ~dom dst ~off:100 ~len:1900);
  Alcotest.(check string) "whole record intact" (Bytes.to_string src) (Bytes.sub_string dst 0 1000);
  Rt_sock.close a ~dom;
  Alcotest.(check int) "then EOF" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:1000)

let pages_in_use () =
  Option.value ~default:0 (List.assoc_opt "pool.pages_in_use" (Obs.Metrics.snapshot ()).gauges)

(* A 16 KiB descriptor record read through a 4 KiB buffer: four full
   reads, every page released as soon as it has landed. *)
let test_sock_short_read_desc () =
  let dom = Rt_dom.self () in
  let in_use0 = pages_in_use () in
  let desc0 = Obs.Metrics.counter_value "rt.desc_sends" in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  let src = Bytes.init size (fun i -> Char.chr ((i * 31) land 0xff)) in
  Rt_sock.send a ~dom src ~off:0 ~len:size;
  Alcotest.(check int) "one descriptor record" 1
    (Obs.Metrics.counter_value "rt.desc_sends" - desc0);
  let dst = Bytes.create 4096 in
  let got = Buffer.create size in
  for i = 1 to 4 do
    let n = Rt_sock.recv b ~dom dst ~off:0 ~len:4096 in
    Alcotest.(check int) (Printf.sprintf "read %d is a full buffer" i) 4096 n;
    if i = 1 then
      Alcotest.(check int) "no page held between reads" in_use0 (pages_in_use ());
    Buffer.add_subbytes got dst 0 n
  done;
  Alcotest.(check string) "bytes intact" (Bytes.to_string src) (Buffer.contents got);
  Rt_sock.close a ~dom;
  Alcotest.(check int) "then EOF" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:4096);
  Alcotest.(check int) "no page left in use" in_use0 (pages_in_use ())

(* Poison with a descriptor record half landed: the next recv raises
   ECONNRESET and drops the rest of the record; no page stays in use. *)
let test_sock_poison_drops_cursor () =
  let dom = Rt_dom.self () in
  let in_use0 = pages_in_use () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  Rt_sock.send a ~dom (Bytes.make size 'p') ~off:0 ~len:size;
  let dst = Bytes.create 4096 in
  Alcotest.(check int) "first quarter" 4096 (Rt_sock.recv b ~dom dst ~off:0 ~len:4096);
  Rt_sock.poison a;
  Helpers.check_errno "reset" Unix.ECONNRESET (fun () -> Rt_sock.recv b ~dom dst ~off:0 ~len:4096);
  Alcotest.(check int) "no page left in use" in_use0 (pages_in_use ())

(* A receiver that lags fills the process pool past the policy's high
   water; [Rt_sock] decides on payload size alone, so every 16 KiB send
   still goes by descriptor (4 pages each) and the stream is intact. *)
let test_sock_backlog_stays_zero_copy () =
  let dom = Rt_dom.self () in
  let in_use0 = pages_in_use () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  let sends = 99 (* 396 of 512 pages: past the 75% high water *) in
  for i = 1 to sends do
    Rt_sock.send a ~dom (Bytes.make size (Char.chr (i land 0x7F))) ~off:0 ~len:size
  done;
  Alcotest.(check int) "every send staged its pages" (in_use0 + (4 * sends)) (pages_in_use ());
  let dst = Bytes.create size in
  for i = 1 to sends do
    Alcotest.(check int) "one record per send" size (Rt_sock.recv b ~dom dst ~off:0 ~len:size);
    Alcotest.(check bool) "payload intact" true
      (Bytes.for_all (fun c -> c = Char.chr (i land 0x7F)) dst)
  done;
  Rt_sock.close a ~dom;
  Alcotest.(check int) "then EOF" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:size);
  Alcotest.(check int) "no page left in use" in_use0 (pages_in_use ())

(* ---- Rt_monitor prefork ---- *)

(* The §4.5.2 prefork shape on Rt_monitor + Rt_sock: [workers] domains in
   accept loops drain each connection to EOF (echoing it back when
   [echo]), and [min conns workers] client domains share [conns]
   connections of [msgs] messages of [payload] bytes — ping-pong when
   [echo], else 32-message bursts below the copy threshold and plain sends
   above it. *)
type prefork = { served : int array; bytes : int array; total_bytes : int }

let total_served s = Array.fold_left ( + ) 0 s.served

let prefork ?(echo = false) ~workers ~conns ~msgs ~payload () =
  let mon = Rt_monitor.create ~workers () in
  let bytes = Array.make workers 0 in
  let serve index () =
    let w = Rt_monitor.register mon ~index in
    let dom = Rt_dom.self () in
    let buf = Bytes.create (max payload Rt_sock.max_inline) in
    let rec accept () =
      match Rt_monitor.accept mon ~index with
      | None -> Rt_monitor.served w
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
        accept ()
    in
    accept ()
  in
  let connection ~dom buf =
    let sock = Rt_monitor.connect mon ~dom in
    if echo then begin
      let rbuf = Bytes.create (max payload Rt_sock.max_inline) in
      for _ = 1 to msgs do
        Rt_sock.send sock ~dom buf ~off:0 ~len:payload;
        let got = ref 0 in
        while !got < payload do
          let n = Rt_sock.recv sock ~dom rbuf ~off:0 ~len:(Bytes.length rbuf) in
          if n = 0 then failwith "prefork: echo stream ended early";
          got := !got + n
        done
      done;
      Rt_sock.close sock ~dom;
      (* Drain the server's FIN so its close completes cleanly. *)
      while Rt_sock.recv sock ~dom rbuf ~off:0 ~len:(Bytes.length rbuf) > 0 do
        ()
      done
    end
    else begin
      if payload < Sds_proto.Copy_policy.base_threshold then begin
        let entries = Array.make 32 (buf, 0, payload) in
        let sent = ref 0 in
        while !sent < msgs do
          let n = min 32 (msgs - !sent) in
          Rt_sock.send_burst sock ~dom entries ~n;
          sent := !sent + n
        done
      end
      else
        for _ = 1 to msgs do
          Rt_sock.send sock ~dom buf ~off:0 ~len:payload
        done;
      Rt_sock.close sock ~dom
    end
  in
  let clients = min conns workers in
  (* Client [c] owns connections c, c + clients, ... *)
  let client c () =
    let dom = Rt_dom.self () in
    let buf = Bytes.make payload (Char.chr (65 + c)) in
    let i = ref c in
    while !i < conns do
      connection ~dom buf;
      i := !i + clients
    done
  in
  let servers = Array.init workers (fun index -> Rt_dom.spawn (serve index)) in
  while Rt_monitor.registered mon < workers do
    Domain.cpu_relax ()
  done;
  Array.iter Domain.join (Array.init clients (fun c -> Rt_dom.spawn (client c)));
  Rt_monitor.close_listener mon;
  let served = Array.map Domain.join servers in
  { served; bytes; total_bytes = Array.fold_left ( + ) 0 bytes }

let test_prefork_echo () =
  let workers = 2 and conns = 4 and msgs = 50 and payload = 256 in
  let s = prefork ~echo:true ~workers ~conns ~msgs ~payload () in
  Alcotest.(check int) "every connection served once" conns (total_served s);
  Alcotest.(check int) "every byte arrived exactly once" (conns * msgs * payload) s.total_bytes

let test_prefork_invariants () =
  let workers = 4 and conns = 24 and msgs = 200 and payload = 64 in
  let s = prefork ~workers ~conns ~msgs ~payload () in
  Alcotest.(check int) "conns served" conns (total_served s);
  Alcotest.(check int) "bytes exact" (conns * msgs * payload) s.total_bytes;
  Alcotest.(check int) "per-worker served sums" conns (Array.fold_left ( + ) 0 s.served);
  Array.iter (fun b -> Alcotest.(check bool) "no negative byte counts" true (b >= 0)) s.bytes

(* Descriptor-path traffic through the full prefork stack. *)
let test_prefork_zero_copy () =
  let workers = 2 and conns = 2 and msgs = 40 in
  let payload = Sds_proto.Copy_policy.base_threshold in
  let s = prefork ~workers ~conns ~msgs ~payload () in
  Alcotest.(check int) "16KiB payloads all arrive" (conns * msgs * payload) s.total_bytes

(* An idle worker must steal from a busy sibling's backlog (§4.5.2): park
   worker 1 without accepting and let worker 0 drain everything. *)
let test_monitor_steal () =
  let mon = Rt_monitor.create ~workers:2 () in
  let release_w1 = Atomic.make false in
  let w1 =
    Rt_dom.spawn (fun () ->
        ignore (Rt_monitor.register mon ~index:1);
        while not (Atomic.get release_w1) do
          Unix.sleepf 0.001
        done)
  in
  let conns = 6 in
  let served = Atomic.make 0 in
  let stolen = Atomic.make 0 in
  let w0 =
    Rt_dom.spawn (fun () ->
        let w = Rt_monitor.register mon ~index:0 in
        let d = Rt_dom.self () in
        let buf = Bytes.create Rt_sock.max_inline in
        let rec serve () =
          match Rt_monitor.accept mon ~index:0 with
          | None -> ()
          | Some sock ->
            while Rt_sock.recv sock ~dom:d buf ~off:0 ~len:(Bytes.length buf) > 0 do
              ()
            done;
            Rt_sock.release_tokens sock ~dom:d;
            Atomic.incr served;
            serve ()
        in
        serve ();
        Atomic.set stolen (Rt_monitor.stolen w))
  in
  while Rt_monitor.registered mon < 2 do
    Domain.cpu_relax ()
  done;
  let dom = Rt_dom.self () in
  for _ = 1 to conns do
    let sock = Rt_monitor.connect mon ~dom in
    Rt_sock.close sock ~dom
  done;
  (* Round-robin put half the backlog on the parked worker 1; worker 0
     can only reach [conns] by stealing those. *)
  while Atomic.get served < conns do
    Unix.sleepf 0.001
  done;
  Rt_monitor.close_listener mon;
  Domain.join w0;
  Atomic.set release_w1 true;
  Domain.join w1;
  Alcotest.(check int) "every connection served by worker 0" conns (Atomic.get served);
  Alcotest.(check bool) "some of them were stolen from worker 1" true (Atomic.get stolen > 0)

(* ---- flight-recorder state providers ---- *)

let test_flight_providers () =
  let dom = Rt_dom.self () in
  let tok = Rt_token.create ~name:"flighttok" ~holder:dom () in
  Rt_token.with_held tok ~dom (fun () -> ());
  let a, _b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Rt_sock.send a ~dom (Bytes.make 8 'f') ~off:0 ~len:8;
  let dump = Sds_obs.Flight.render ~reason:"test" () in
  let has sub =
    let n = String.length dump and m = String.length sub in
    let rec go i = i + m <= n && (String.sub dump i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "rt_token section present" true (has "rt_token");
  Alcotest.(check bool) "token line shows holder" true (has "flighttok#");
  Alcotest.(check bool) "rt_conn section present" true (has "rt_conn");
  Alcotest.(check bool) "rt_monitor section present" true (has "rt_monitor");
  (* The registries hold tokens/socks weakly; keep them live past the
     render or the GC erases their lines from the dump. *)
  Alcotest.(check int) "token still held" dom (Rt_token.holder tok);
  Rt_sock.close a ~dom

(* ---- sim-vs-rt equivalence (the tentpole acceptance check) ----

   The same prefork workload shape — W workers, C connections, one 8-byte
   echo per connection — through the simulator backend and the real-domain
   backend.  Both must satisfy identical §4.5.2 invariants, and both must
   have gone through the one shared [Dispatch_core] policy, observed here
   by the shared monitor.dispatch.rr counter advancing by exactly C on
   each side. *)

let test_sim_rt_equivalence () =
  let module L = Socksdirect.Libsd in
  let module Prefork = Sds_apps.Prefork_server in
  let workers = 4 and conns_per_worker = 3 in
  let conns = workers * conns_per_worker in
  let payload = 8 in
  (* -- simulator backend -- *)
  let rr0 = Obs.Metrics.counter_value "monitor.dispatch.rr" in
  let w = Helpers.make_world () in
  let h = Helpers.add_host w in
  let server = Prefork.create h ~port:9300 ~workers in
  let ready = ref false in
  Prefork.start server ~engine:w.Helpers.engine ~conns_per_worker
    ~handler:Prefork.echo_handler ~on_ready:(fun () -> ready := true);
  let sim_client_bytes = ref 0 in
  Helpers.run w (fun () ->
      Helpers.wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:30 () in
      let buf = Bytes.create payload in
      for _ = 1 to conns do
        let fd = L.socket th in
        L.connect th fd ~dst:h ~port:9300;
        ignore (L.send th fd (Bytes.make payload 'e') ~off:0 ~len:payload);
        let got = ref 0 in
        while !got < payload do
          let n = L.recv th fd buf ~off:!got ~len:(payload - !got) in
          if n = 0 then failwith "eq-client: eof";
          got := !got + n
        done;
        sim_client_bytes := !sim_client_bytes + !got;
        L.close th fd
      done;
      Sds_sim.Proc.sleep_ns 1_000_000);
  let sim_served = Prefork.served server in
  let rr1 = Obs.Metrics.counter_value "monitor.dispatch.rr" in
  (* -- real-domain backend, identical workload shape -- *)
  let rt = prefork ~echo:true ~workers ~conns ~msgs:1 ~payload () in
  let rr2 = Obs.Metrics.counter_value "monitor.dispatch.rr" in
  (* Identical §4.5.2 invariants on both backends. *)
  Alcotest.(check int) "sim served every connection" conns
    (Array.fold_left ( + ) 0 sim_served);
  Alcotest.(check int) "rt served every connection" conns (total_served rt);
  Alcotest.(check int) "sim echoed every byte" (conns * payload) !sim_client_bytes;
  Alcotest.(check int) "rt received every byte" (conns * payload) rt.total_bytes;
  (* Both backends drove the SAME shared dispatch policy: the one
     monitor.dispatch.rr series advanced by exactly [conns] each time. *)
  Alcotest.(check int) "sim dispatched through Dispatch_core" conns (rr1 - rr0);
  Alcotest.(check int) "rt dispatched through Dispatch_core" conns (rr2 - rr1)

(* ---- differential: one stream script through both backends ----

   A seeded script of sends whose sizes straddle the 8 KiB inline chunk,
   the 16 KiB copy threshold and the 256-page record, read back through
   seeded short buffers, runs through the simulator's [Libsd] and through
   [Rt_sock].  Each send is drained before the next, so neither the ring
   nor the pool fills.  Both stacks must deliver the same bytes with the
   same sequence of [recv] return values — so they cut records in the
   same places — and reach EOF at the same point. *)

let diff_sizes = [ 0; 1; 8191; 8192; 8193; 16383; 16384; 16385; 40960; (1 lsl 20) + 1 ]
let diff_lens = [| 1; 100; 4096; 8192; 64 * 1024 |]

let diff_payloads seed =
  let st = Random.State.make [| seed |] in
  List.map (fun n -> (Random.State.bits st, n)) diff_sizes
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (_, n) -> Bytes.init n (fun i -> Char.chr ((i * 7 + n + seed) land 0xff)))

(* Read one [size]-byte payload back through buffers of seeded lengths,
   logging every return value and the bytes delivered. *)
let drain_payload st ~recv dst size trace out =
  let got = ref 0 in
  while !got < size do
    let n = recv dst ~len:diff_lens.(Random.State.int st (Array.length diff_lens)) in
    if n = 0 then Alcotest.failf "EOF %d bytes into a %d-byte payload" !got size;
    trace := n :: !trace;
    Buffer.add_subbytes out dst 0 n;
    got := !got + n
  done

type diff_run = { returns : int list; delivered : string; eof : int }

let diff_dst () = Bytes.create (Array.fold_left max 0 diff_lens)

let diff_rt seed =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let st = Random.State.make [| seed; 1 |] in
  let trace = ref [] and out = Buffer.create 0 and dst = diff_dst () in
  let recv dst ~len = Rt_sock.recv b ~dom dst ~off:0 ~len in
  List.iter
    (fun p ->
      Rt_sock.send a ~dom p ~off:0 ~len:(Bytes.length p);
      drain_payload st ~recv dst (Bytes.length p) trace out)
    (diff_payloads seed);
  Rt_sock.close a ~dom;
  { returns = List.rev !trace; delivered = Buffer.contents out; eof = recv dst ~len:4096 }

let diff_sim seed =
  let module L = Socksdirect.Libsd in
  let w = Helpers.make_world () in
  let h = Helpers.add_host w in
  let payloads = diff_payloads seed in
  let ready = ref false and drained = ref 0 and eof = ref (-1) in
  let trace = ref [] and out = Buffer.create 0 in
  ignore
    (Helpers.spawn w "diff-receiver" (fun () ->
         let th = L.create_thread (L.init h) ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:9400;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         let st = Random.State.make [| seed; 1 |] and dst = diff_dst () in
         let recv dst ~len = L.recv th fd dst ~off:0 ~len in
         List.iter
           (fun p ->
             drain_payload st ~recv dst (Bytes.length p) trace out;
             incr drained)
           payloads;
         eof := recv dst ~len:4096));
  Helpers.run w (fun () ->
      Helpers.wait_for ready;
      let th = L.create_thread (L.init h) ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:9400;
      List.iteri
        (fun i p ->
          while !drained < i do
            Sds_sim.Proc.sleep_ns 1_000
          done;
          ignore (L.send th fd p ~off:0 ~len:(Bytes.length p)))
        payloads;
      while !drained < List.length payloads do
        Sds_sim.Proc.sleep_ns 1_000
      done;
      L.close th fd;
      while !eof < 0 do
        Sds_sim.Proc.sleep_ns 1_000
      done);
  { returns = List.rev !trace; delivered = Buffer.contents out; eof = !eof }

let test_differential_stream () =
  List.iter
    (fun seed ->
      let sent = String.concat "" (List.map Bytes.to_string (diff_payloads seed)) in
      let sim = diff_sim seed and rt = diff_rt seed in
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check bool) (name "sim delivers the stream") true (String.equal sent sim.delivered);
      Alcotest.(check bool) (name "rt delivers the stream") true (String.equal sent rt.delivered);
      Alcotest.(check (list int)) (name "same recv return values") sim.returns rt.returns;
      Alcotest.(check int) (name "sim EOF after the stream") 0 sim.eof;
      Alcotest.(check int) (name "rt EOF after the stream") 0 rt.eof)
    (List.init 30 (fun i -> i + 1))

(* ---- one pool per process: connection-scoped page ownership ---- *)

(* Slot S publishes a 16 KiB descriptor record, then slot T sends on the
   same endpoint, so S is no longer involved in the connection.  When S
   dies the reaper frees S's pages across the process pool; the record S
   published carries the connection direction's stamp, so it survives and
   the receiver reads S's bytes intact. *)
let test_sock_dead_sender_pages_survive () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  let src = Bytes.init size (fun i -> Char.chr ((i * 13) land 0xff)) in
  let desc0 = Obs.Metrics.counter_value "rt.desc_sends" in
  let published = Atomic.make false and die = Atomic.make false in
  let s =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        Rt_sock.send a ~dom:d src ~off:0 ~len:size;
        Rt_sock.release_tokens a ~dom:d;
        Atomic.set published true;
        while not (Atomic.get die) do
          Unix.sleepf 0.0005
        done;
        failwith "the first sender dies")
  in
  while not (Atomic.get published) do
    Unix.sleepf 0.0005
  done;
  Alcotest.(check int) "S's send went by descriptor" 1
    (Obs.Metrics.counter_value "rt.desc_sends" - desc0);
  Rt_sock.send a ~dom (Bytes.of_string "tail") ~off:0 ~len:4;
  Atomic.set die true;
  (match Domain.join s with
  | () -> Alcotest.fail "S should have died"
  | exception Failure _ -> ());
  Alcotest.(check bool) "the pair is not poisoned" false (Rt_sock.poisoned b);
  let dst = Bytes.create size in
  Alcotest.(check int) "S's record arrives whole" size (Rt_sock.recv b ~dom dst ~off:0 ~len:size);
  Alcotest.(check bool) "S's bytes intact" true (Bytes.equal dst src);
  Alcotest.(check int) "then T's bytes" 4 (Rt_sock.recv b ~dom dst ~off:0 ~len:size);
  Alcotest.(check string) "T's bytes intact" "tail" (Bytes.sub_string dst 0 4);
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

let[@inline never] abandon_pair ~dom ~sends =
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let size = Sds_proto.Copy_policy.base_threshold in
  let src = Bytes.make size 'x' in
  for _ = 1 to sends do
    Rt_sock.send a ~dom src ~off:0 ~len:size
  done;
  ignore (Sys.opaque_identity b)

(* A pair dropped with published, unread records gives its pages back:
   once its lane is collected, the next [pair] reclaims them. *)
let test_sock_abandoned_pair_pages () =
  let dom = Rt_dom.self () in
  (* Settle lanes earlier tests dropped, so the baseline is stable. *)
  Gc.full_major ();
  ignore (Sys.opaque_identity (Rt_sock.pair ~a_owner:dom ~b_owner:dom ()));
  let in_use0 = pages_in_use () in
  abandon_pair ~dom ~sends:8;
  Alcotest.(check int) "8 unread 16 KiB records hold 32 pages" (in_use0 + 32) (pages_in_use ());
  Gc.full_major ();
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Alcotest.(check int) "the next pair reclaims them" in_use0 (pages_in_use ());
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

(* ---- recycled ring lanes ---- *)

let ring_created () = Obs.Metrics.counter_value "ring.created"

(* 1,000 connect/echo/close cycles through the monitor deliver every byte
   and allocate no more rings than the lanes in flight at once plus the
   free list can hold. *)
let test_lanes_recycle_through_monitor () =
  let mon = Rt_monitor.create ~workers:1 () in
  let echoed = Atomic.make 0 in
  let w =
    Rt_dom.spawn (fun () ->
        ignore (Rt_monitor.register mon ~index:0);
        let d = Rt_dom.self () in
        let buf = Bytes.create 64 in
        let rec serve () =
          match Rt_monitor.accept mon ~index:0 with
          | None -> ()
          | Some s ->
            let rec echo () =
              let n = Rt_sock.recv s ~dom:d buf ~off:0 ~len:64 in
              if n > 0 then begin
                Rt_sock.send s ~dom:d buf ~off:0 ~len:n;
                ignore (Atomic.fetch_and_add echoed n);
                echo ()
              end
            in
            echo ();
            Rt_sock.close s ~dom:d;
            serve ()
        in
        serve ())
  in
  while Rt_monitor.registered mon < 1 do
    Domain.cpu_relax ()
  done;
  let dom = Rt_dom.self () in
  let created0 = ring_created () in
  let back = Bytes.create 64 in
  let cycles = 1000 in
  for i = 1 to cycles do
    let msg = Bytes.of_string (Printf.sprintf "ping %04d" i) in
    let s = Rt_monitor.connect mon ~dom in
    Rt_sock.send s ~dom msg ~off:0 ~len:(Bytes.length msg);
    let n = Rt_sock.recv s ~dom back ~off:0 ~len:64 in
    if Bytes.sub back 0 n <> msg then Alcotest.failf "cycle %d: bad echo" i;
    Rt_sock.close s ~dom;
    if Rt_sock.recv s ~dom back ~off:0 ~len:64 <> 0 then Alcotest.failf "cycle %d: no EOF" i
  done;
  Rt_monitor.close_listener mon;
  Domain.join w;
  Alcotest.(check int) "every byte echoed" (cycles * 9) (Atomic.get echoed);
  let created = ring_created () - created0 in
  if created > 2 * (Rt_sock.free_lanes_max + 1) then
    Alcotest.failf "%d rings created for %d connections" created cycles

(* Open, close both ways, drain both FINs: a finished pair; its lane. *)
let finished_pair_lane ~dom =
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  let dst = Bytes.create 8 in
  Rt_sock.close a ~dom;
  Rt_sock.close b ~dom;
  Alcotest.(check int) "a reads EOF" 0 (Rt_sock.recv a ~dom dst ~off:0 ~len:8);
  Alcotest.(check int) "b reads EOF" 0 (Rt_sock.recv b ~dom dst ~off:0 ~len:8);
  Rt_sock.lane a

let check_never_reused ~dom lane =
  for _ = 1 to 2 * (Rt_sock.free_lanes_max + 1) do
    if finished_pair_lane ~dom = lane then Alcotest.fail "the lane was handed out again"
  done

let test_lanes_poisoned_never_reused () =
  let dom = Rt_dom.self () in
  let finished = finished_pair_lane ~dom in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Alcotest.(check int) "a finished pair's lane is the next pair's" finished (Rt_sock.lane a);
  Rt_sock.poison a;
  Rt_sock.close a ~dom;
  Rt_sock.close b ~dom;
  check_never_reused ~dom (Rt_sock.lane a)

let test_lanes_half_closed_not_recycled () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Rt_sock.close a ~dom;
  Alcotest.(check int) "b reads EOF" 0 (Rt_sock.recv b ~dom (Bytes.create 8) ~off:0 ~len:8);
  Rt_sock.release_tokens b ~dom;
  check_never_reused ~dom (Rt_sock.lane a)

(* ---- connections that die young ---- *)

(* pair, 64 B each way, close both ends, drain both FINs. *)
let conn_cycle ~dom msg back =
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Rt_sock.send a ~dom msg ~off:0 ~len:64;
  ignore (Rt_sock.recv b ~dom back ~off:0 ~len:64);
  Rt_sock.send b ~dom msg ~off:0 ~len:64;
  ignore (Rt_sock.recv a ~dom back ~off:0 ~len:64);
  Rt_sock.close a ~dom;
  Rt_sock.close b ~dom;
  if Rt_sock.recv a ~dom back ~off:0 ~len:64 <> 0 then Alcotest.fail "a: no EOF";
  if Rt_sock.recv b ~dom back ~off:0 ~len:64 <> 0 then Alcotest.fail "b: no EOF"

(* Only lanes are registered, and a recycled lane drops its connection, so
   a finished connection is garbage before the next minor collection: a
   cycle promotes (almost) nothing.  A connection registered in a weak
   table is promoted whole, about 200 words. *)
let test_conn_cycle_stays_minor () =
  let dom = Rt_dom.self () in
  let msg = Bytes.make 64 'y' and back = Bytes.create 64 in
  for _ = 1 to 200 do
    conn_cycle ~dom msg back
  done;
  let cycles = 2_000 in
  let s0 = Gc.quick_stat () in
  for _ = 1 to cycles do
    conn_cycle ~dom msg back
  done;
  let s1 = Gc.quick_stat () in
  let promoted = (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. float_of_int cycles in
  if promoted > 8. then Alcotest.failf "%.1f promoted words per connection cycle" promoted

(* A connection's tokens are not in [Rt_token]'s registry: [Rt_sock]'s
   death hook reaps them through the lanes before it poisons. *)
let test_dead_holder_conn_tokens_reaped () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:dom () in
  let held = Atomic.make (-1) in
  let victim =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        Rt_sock.send a ~dom:d (Bytes.make 64 'd') ~off:0 ~len:64;
        Atomic.set held (Rt_token.holder (Rt_sock.send_token a));
        failwith "dies holding a's send token")
  in
  (try Domain.join victim with Failure _ -> ());
  Alcotest.(check bool) "the victim held a's send token" true (Atomic.get held >= 0);
  List.iteri
    (fun i tok ->
      Alcotest.(check bool) (Printf.sprintf "token %d is live-or-free" i) false
        (Rt_token.holder_dead tok))
    [ Rt_sock.send_token a; Rt_sock.recv_token a; Rt_sock.send_token b; Rt_sock.recv_token b ];
  Alcotest.(check int) "a's send token was freed" (-1) (Rt_token.holder (Rt_sock.send_token a));
  Alcotest.(check bool) "the pair is poisoned" true (Rt_sock.poisoned b);
  Rt_sock.release_tokens b ~dom

(* The walk judges involvement on each lane's current connection: a domain
   that only operated the lane's previous, finished connection dies while
   the lane carries a new one between two other domains. *)
let test_old_operator_spares_next_conn () =
  let lane = Atomic.make (-1) and die = Atomic.make false in
  let old_op =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        Atomic.set lane (finished_pair_lane ~dom:d);
        while not (Atomic.get die) do
          Thread.delay 0.001
        done;
        failwith "the old operator dies")
  in
  let other = Atomic.make (-1) and quit = Atomic.make false in
  let peer =
    Rt_dom.spawn (fun () ->
        Atomic.set other (Rt_dom.self ());
        while not (Atomic.get quit) do
          Thread.delay 0.001
        done)
  in
  while Atomic.get lane < 0 || Atomic.get other < 0 do
    Thread.delay 0.001
  done;
  let dom = Rt_dom.self () and other = Atomic.get other in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:other () in
  Alcotest.(check int) "the new pair runs on the finished pair's lane" (Atomic.get lane)
    (Rt_sock.lane a);
  Atomic.set die true;
  (try Domain.join old_op with Failure _ -> ());
  Alcotest.(check bool) "the new connection is not poisoned" false (Rt_sock.poisoned a);
  let holders t = (Rt_token.holder (Rt_sock.send_token t), Rt_token.holder (Rt_sock.recv_token t)) in
  Alcotest.(check (pair int int)) "a's tokens keep their holder" (dom, dom) (holders a);
  Alcotest.(check (pair int int)) "b's tokens keep their holder" (other, other) (holders b);
  Atomic.set quit true;
  Domain.join peer;
  Rt_sock.release_tokens a ~dom

(* The [rt_conn] section shows each endpoint's token holders, since a
   connection's tokens no longer appear in the [rt_token] section. *)
let test_flight_conn_token_holders () =
  let dom = Rt_dom.self () in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:(-1) () in
  let dump = Sds_obs.Flight.render ~reason:"test" () in
  let has hay sub =
    let n = String.length hay and m = String.length sub in
    let rec go i = i + m <= n && (String.sub hay i m = sub || go (i + 1)) in
    go 0
  in
  let lines =
    List.filter
      (fun l -> has l (Printf.sprintf " lane=%d " (Rt_sock.lane a)))
      (String.split_on_char '\n' dump)
  in
  Alcotest.(check int) "one line per endpoint" 2 (List.length lines);
  let shows holders = List.exists (fun l -> has l holders) lines in
  Alcotest.(check bool) "a's holders" true
    (shows (Printf.sprintf "send_holder=%d recv_holder=%d" dom dom));
  Alcotest.(check bool) "b's tokens are free" true (shows "send_holder=-1 recv_holder=-1");
  Rt_sock.release_tokens a ~dom;
  ignore (Sys.opaque_identity b)

(* ---- differential: one errno surface ----

   The same three failures on the simulator's [Libsd] and on [Rt_sock],
   matched on the errno alone: a send after this end's own shutdown, then
   a recv and a send on the survivor of a peer that crashed before EOF. *)

let errno_cases =
  [ ("send after own shutdown", Unix.EPIPE); ("recv after the peer's crash", Unix.ECONNRESET);
    ("send after the peer's crash", Unix.EPIPE) ]

let errnos_rt () =
  let dom = Rt_dom.self () in
  let buf = Bytes.make 8 'e' in
  let a, b = Rt_sock.pair ~a_owner:dom ~b_owner:dom () in
  Rt_sock.close a ~dom;
  let shut = Helpers.errno_of (fun () -> Rt_sock.send a ~dom buf ~off:0 ~len:8) in
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom;
  let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:dom () in
  let peer =
    Rt_dom.spawn (fun () ->
        Rt_sock.claim a ~dom:(Rt_dom.self ());
        failwith "the peer crashes")
  in
  (match Domain.join peer with
  | () -> Alcotest.fail "the peer should have died"
  | exception Failure _ -> ());
  let reset = Helpers.errno_of (fun () -> Rt_sock.recv b ~dom buf ~off:0 ~len:8) in
  let pipe = Helpers.errno_of (fun () -> Rt_sock.send b ~dom buf ~off:0 ~len:8) in
  Rt_sock.release_tokens b ~dom;
  [ shut; reset; pipe ]

let errnos_sim () =
  let module L = Socksdirect.Libsd in
  let w = Helpers.make_world () in
  let h = Helpers.add_host w in
  let ready = ref false and connected = ref false and crashed = ref false in
  let errnos = ref [] in
  ignore
    (Helpers.spawn w "errno-peer" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:9401;
         L.listen th lfd;
         ready := true;
         ignore (L.accept th lfd);
         ignore (L.accept th lfd);
         Helpers.wait_for connected;
         L.simulate_abort ctx;
         crashed := true));
  Helpers.run w (fun () ->
      Helpers.wait_for ready;
      let th = L.create_thread (L.init h) ~core:0 () in
      let buf = Bytes.make 8 'e' in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:9401;
      L.shutdown th fd `Send;
      let shut = Helpers.errno_of (fun () -> L.send th fd buf ~off:0 ~len:8) in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:9401;
      connected := true;
      Helpers.wait_for crashed;
      let reset = Helpers.errno_of (fun () -> L.recv th fd buf ~off:0 ~len:8) in
      let pipe = Helpers.errno_of (fun () -> L.send th fd buf ~off:0 ~len:8) in
      errnos := [ shut; reset; pipe ]);
  !errnos

let test_differential_errno () =
  let sim = errnos_sim () and rt = errnos_rt () in
  List.iter2
    (fun (case, expected) (sim, rt) ->
      Alcotest.(check (option Helpers.errno)) ("sim: " ^ case) (Some expected) sim;
      Alcotest.(check (option Helpers.errno)) ("rt: " ^ case) (Some expected) rt)
    errno_cases (List.combine sim rt)

let suite =
  [
    Alcotest.test_case "proto: token transitions" `Quick test_token_proto;
    Alcotest.test_case "proto: batch controller" `Quick test_batch_ctl;
    Alcotest.test_case "proto: dispatch policy" `Quick test_dispatch_core;
    Alcotest.test_case "token: same-domain fast path" `Quick test_token_fast_path;
    Alcotest.test_case "token: free-start direct take" `Quick test_token_free_start;
    Alcotest.test_case "token: two-domain handoff" `Quick test_token_two_domain_handoff;
    Alcotest.test_case "token: release grants pending requester" `Quick test_token_release_grants;
    Alcotest.test_case "token: 4-domain 500k-op takeover soak" `Slow test_token_soak_4dom;
    Alcotest.test_case "sock: inline loopback + EOF" `Quick test_sock_inline_loopback;
    Alcotest.test_case "sock: descriptor path cross-domain" `Quick test_sock_desc_path;
    Alcotest.test_case "sock: vectored burst send" `Quick test_sock_send_burst;
    Alcotest.test_case "sock: an invalid burst sends nothing" `Quick
      test_sock_burst_invalid_sends_nothing;
    Alcotest.test_case "sock: an empty record is not EOF" `Quick test_sock_empty_record_not_eof;
    Alcotest.test_case "drain: stops before a FIN" `Quick test_sock_drain_stops_at_fin;
    Alcotest.test_case "drain: stops before a descriptor record" `Quick
      test_sock_drain_stops_at_desc;
    Alcotest.test_case "drain: whole records inside off+len" `Quick test_sock_drain_whole_records;
    Alcotest.test_case "drain: one call lands one sender batch" `Quick test_sock_drain_one_batch;
    Alcotest.test_case "drain: a ring-sized stream never wedges on credits" `Quick
      test_sock_drain_no_credit_wedge;
    Alcotest.test_case "prefork: echo smoke" `Quick test_prefork_echo;
    Alcotest.test_case "prefork: dispatch invariants" `Quick test_prefork_invariants;
    Alcotest.test_case "prefork: zero-copy payloads" `Quick test_prefork_zero_copy;
    Alcotest.test_case "monitor: idle worker steals" `Quick test_monitor_steal;
    Alcotest.test_case "flight: rt state providers" `Quick test_flight_providers;
    Alcotest.test_case "equivalence: sim and rt share the protocol core" `Quick
      test_sim_rt_equivalence;
    Alcotest.test_case "differential: sim and rt cut the same stream" `Quick
      test_differential_stream;
    Alcotest.test_case "sock: short read of an inline record" `Quick test_sock_short_read_inline;
    Alcotest.test_case "sock: short reads of a descriptor record" `Quick
      test_sock_short_read_desc;
    Alcotest.test_case "sock: poison drops a partly read record" `Quick
      test_sock_poison_drops_cursor;
    Alcotest.test_case "sock: a backlogged pool stays zero-copy" `Quick
      test_sock_backlog_stays_zero_copy;
    Alcotest.test_case "sock: a dead sender's published pages survive" `Quick
      test_sock_dead_sender_pages_survive;
    Alcotest.test_case "sock: an abandoned pair gives its pages back" `Quick
      test_sock_abandoned_pair_pages;
    Alcotest.test_case "lanes: 1,000 monitor connections recycle their rings" `Quick
      test_lanes_recycle_through_monitor;
    Alcotest.test_case "lanes: a poisoned pair's rings are never reused" `Quick
      test_lanes_poisoned_never_reused;
    Alcotest.test_case "lanes: a pair closed on one side is not recycled" `Quick
      test_lanes_half_closed_not_recycled;
    Alcotest.test_case "lanes: a connection cycle leaves nothing for the major heap" `Quick
      test_conn_cycle_stays_minor;
    Alcotest.test_case "recovery: a dead holder's connection tokens are reaped" `Quick
      test_dead_holder_conn_tokens_reaped;
    Alcotest.test_case "recovery: a finished connection's operator spares the next" `Quick
      test_old_operator_spares_next_conn;
    Alcotest.test_case "flight: rt_conn shows each endpoint's token holders" `Quick
      test_flight_conn_token_holders;
    Alcotest.test_case "differential: sim and rt raise the same errno" `Quick
      test_differential_errno;
  ]
