(* Cross-domain stress tests for the §4.2 SPSC ring: a real producer Domain
   and a real consumer Domain hammering one ring, guarding the atomic
   payload-then-header-then-tail publication.

   Contents are position-dependent (seeded from the sequence number), and
   the consumer folds every byte into a running FNV-1a hash that must equal
   the producer-side hash computed independently — a torn read, reordered
   publication, or credit-accounting bug shows up as a hash mismatch or a
   stuck test. *)

module R = Sds_ring.Spsc_ring

(* Spin briefly, then sleep: on a single-core box a bare spin burns the
   whole timeslice before the peer can run; yielding the CPU keeps the
   stress test fast everywhere. *)
let backoff spins =
  if !spins < 200 then begin
    Domain.cpu_relax ();
    incr spins
  end
  else begin
    spins := 0;
    Unix.sleepf 1e-6
  end

let fnv1a h b =
  let h = h lxor b in
  h * 0x100000001B3 land max_int

(* Deterministic message for sequence [seq]: variable length, every byte a
   function of (seq, position). *)
let fill buf seq =
  let len = 1 + ((seq * 7919) mod 120) in
  for i = 0 to len - 1 do
    Bytes.unsafe_set buf i (Char.unsafe_chr ((seq + (i * 131)) land 0xFF))
  done;
  len

let hash_payload h buf len =
  let acc = ref h in
  for i = 0 to len - 1 do
    acc := fnv1a !acc (Char.code (Bytes.unsafe_get buf i))
  done;
  !acc

let stress ~msgs ~ring_size () =
  let r = R.create ~size:ring_size () in
  let consumer_hash = ref 0 in
  let consumer_msgs = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let dst = Bytes.create 128 in
        let spins = ref 0 in
        while !consumer_msgs < msgs do
          let p = R.try_dequeue_packed r ~dst ~dst_off:0 in
          if p <> R.no_msg then begin
            consumer_hash := hash_payload !consumer_hash dst (R.packed_len p);
            incr consumer_msgs;
            let c = R.take_credit_return r in
            if c > 0 then R.return_credits r c
          end
          else backoff spins
        done)
  in
  let src = Bytes.create 128 in
  let producer_hash = ref 0 in
  let spins = ref 0 in
  for seq = 0 to msgs - 1 do
    let len = fill src seq in
    producer_hash := hash_payload !producer_hash src len;
    while not (R.try_enqueue r src ~off:0 ~len) do
      backoff spins
    done
  done;
  Domain.join consumer;
  (r, !producer_hash, !consumer_hash)

let test_two_domain_stress () =
  let msgs = 1_000_000 in
  let r, ph, ch = stress ~msgs ~ring_size:(1 lsl 16) () in
  Alcotest.(check int) "all messages crossed" msgs (R.dequeued r);
  Alcotest.(check bool) "checksums match (no torn reads)" true (ph = ch);
  Alcotest.(check bool) "ring drained" true (R.is_empty r);
  (* After the final sub-half-ring credit return is accounted, the ring is
     whole again: credits + pending = capacity. *)
  let tail = R.take_credit_return r in
  if tail > 0 then R.return_credits r tail;
  Alcotest.(check int) "credit invariant" (R.capacity r) (R.credits r + R.pending_return r)

(* Same stress through the vectored (batched) producer path. *)
let test_two_domain_batched () =
  let msgs = 200_000 in
  let batch = 16 in
  let r = R.create ~size:(1 lsl 16) () in
  let consumer_hash = ref 0 in
  let consumer_msgs = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let dst = Bytes.create 128 in
        let spins = ref 0 in
        while !consumer_msgs < msgs do
          let p = R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0 in
          if p <> R.no_msg then begin
            consumer_hash := hash_payload !consumer_hash dst (R.packed_len p);
            incr consumer_msgs
          end
          else backoff spins
        done)
  in
  let bufs = Array.init batch (fun _ -> Bytes.create 128) in
  let producer_hash = ref 0 in
  let sent = ref 0 in
  while !sent < msgs do
    let n = min batch (msgs - !sent) in
    let srcs =
      Array.init n (fun i ->
          let len = fill bufs.(i) (!sent + i) in
          producer_hash := hash_payload !producer_hash bufs.(i) len;
          (bufs.(i), 0, len))
    in
    let off = ref 0 in
    let spins = ref 0 in
    while !off < n do
      let accepted = R.enqueue_batch r srcs ~pos:!off ~n:(n - !off) in
      if accepted = 0 then backoff spins else off := !off + accepted
    done;
    sent := !sent + n
  done;
  Domain.join consumer;
  Alcotest.(check bool) "batched checksums match" true (!producer_hash = !consumer_hash);
  Alcotest.(check bool) "ring drained" true (R.is_empty r)

(* Batched on both ends: windowed [enqueue_batch] against [drain] into
   buffers of random length, on a small ring so both wrap and stall on
   credits often.  The consumer walks each drained chunk record by record
   (every length and byte is a function of the sequence number), so a
   reordered, torn or partly copied record fails the byte check, and it
   checks the credit invariant after every drain.  [used] is read before
   [credits]: the producer only lowers credits and raises the tail, so
   the sum read in that order can only fall short of the capacity. *)
let test_two_domain_batched_drain () =
  let msgs = 200_000 in
  let r = R.create ~size:(1 lsl 12) () in
  let bad = Atomic.make 0 in
  let consumer =
    Domain.spawn (fun () ->
        let st = Random.State.make [| 7 |] in
        let dst = Bytes.create 1024 in
        let expect = Bytes.create 128 in
        let seq = ref 0 and spins = ref 0 in
        while !seq < msgs do
          let before = R.dequeued r in
          let n = R.drain r ~dst ~dst_off:0 ~len:(Random.State.int st 1025) ~max:32 in
          let records = R.dequeued r - before in
          if records = 0 then backoff spins
          else begin
            let pos = ref 0 in
            for _ = 1 to records do
              let len = fill expect !seq in
              if not (Bytes.equal (Bytes.sub dst !pos len) (Bytes.sub expect 0 len)) then
                Atomic.incr bad;
              pos := !pos + len;
              incr seq
            done;
            if !pos <> n then Atomic.incr bad;
            let c = R.take_credit_return r in
            if c > 0 then R.return_credits r c;
            let used = R.used r in
            let credits = R.credits r in
            if credits + R.pending_return r + used > R.capacity r then Atomic.incr bad
          end
        done)
  in
  let st = Random.State.make [| 11 |] in
  let bufs = Array.init 48 (fun _ -> Bytes.create 128) in
  let srcs = Array.make 48 (bufs.(0), 0, 0) in
  let sent = ref 0 and spins = ref 0 in
  while !sent < msgs do
    let n = min (1 + Random.State.int st 48) (msgs - !sent) in
    for i = 0 to n - 1 do
      srcs.(i) <- (bufs.(i), 0, fill bufs.(i) (!sent + i))
    done;
    let off = ref 0 in
    while !off < n do
      let accepted = R.enqueue_batch r srcs ~pos:!off ~n:(n - !off) in
      if accepted = 0 then backoff spins else off := !off + accepted
    done;
    sent := !sent + n
  done;
  Domain.join consumer;
  Alcotest.(check int) "records in order, whole and untorn" 0 (Atomic.get bad);
  Alcotest.(check int) "all messages crossed" msgs (R.dequeued r);
  Alcotest.(check bool) "ring drained" true (R.is_empty r);
  let c = R.take_credit_return r in
  if c > 0 then R.return_credits r c;
  Alcotest.(check int) "credit invariant" (R.capacity r) (R.credits r + R.pending_return r)

(* ---- §4.6 descriptor handoff soak: refcount transfer across domains ----

   Producer domain: allocate a page from its pool handle, stamp it with a
   seed-derived integer, publish a one-entry descriptor record (the
   ownership transfer).  Consumer domain: dequeue the descriptor, dawdle a
   pseudo-random while (so releases land at unpredictable points relative
   to the producer's allocations), verify the stamp, release the page via
   its own handle.  Recycled pages flow back to the producer through the
   pool's spill/refill machinery; at the end every page must be free and
   every stamp must have matched. *)
let test_two_domain_desc_handoff () =
  let module Pp = Sds_vm.Pagepool in
  let msgs = 200_000 in
  let npages = 512 in
  let pool = Pp.create ~pages:npages () in
  let r = R.create ~size:(1 lsl 14) () in
  let bad_stamps = ref 0 in
  let consumer_msgs = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let h = Pp.handle pool in
        let entries = Array.make 4 0 in
        let spins = ref 0 in
        let delay = ref 0x9E3779B9 in
        while !consumer_msgs < msgs do
          if R.is_empty r then backoff spins
          else begin
            let p = R.try_dequeue_descs ~auto_credit:true r ~entries in
            if p <> R.no_msg then begin
              (* Randomized consume delay: a xorshift-driven pause between
                 taking ownership and releasing. *)
              delay := !delay lxor (!delay lsl 13);
              delay := !delay lxor (!delay lsr 7);
              for _ = 1 to !delay land 0x3F do
                Domain.cpu_relax ()
              done;
              let page = R.desc_page entries.(0) in
              let stamp = Pp.get_int_le pool (Pp.page_base page + R.desc_off entries.(0)) in
              if stamp <> (!consumer_msgs * 2654435761) land 0xFFFF_FFFF then incr bad_stamps;
              Pp.release h page;
              incr consumer_msgs
            end
            else backoff spins
          end
        done)
  in
  let h = Pp.handle pool in
  let spins = ref 0 in
  for seq = 0 to msgs - 1 do
    let page = ref (Pp.alloc h) in
    while !page = Pp.no_page do
      (* Consumer hasn't recycled yet; wait for pages to flow back. *)
      backoff spins;
      page := Pp.alloc h
    done;
    let off = (seq * 8) land 0xFF8 in
    Pp.set_int_le pool (Pp.page_base !page + off) ((seq * 2654435761) land 0xFFFF_FFFF);
    let e = R.desc_entry ~page:!page ~off ~len:8 in
    while not (R.try_enqueue_descs r [| e |] ~n:1) do
      backoff spins
    done
  done;
  Domain.join consumer;
  Alcotest.(check int) "every stamp matched" 0 !bad_stamps;
  Alcotest.(check bool) "ring drained" true (R.is_empty r);
  Alcotest.(check int) "every page back home (no leak, no double free)" npages
    (Pp.free_pages pool)

let suite =
  [
    Alcotest.test_case "two-domain stress 1M msgs" `Quick test_two_domain_stress;
    Alcotest.test_case "two-domain batched stress" `Quick test_two_domain_batched;
    Alcotest.test_case "two-domain batch vs drain stress" `Quick test_two_domain_batched_drain;
    Alcotest.test_case "two-domain descriptor handoff soak" `Quick test_two_domain_desc_handoff;
  ]
