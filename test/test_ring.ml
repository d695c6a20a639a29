(* Tests for the ring-buffer library: the §4.2 SPSC ring plus the locked and
   buffer-allocating baselines.  Includes qcheck properties on FIFO order,
   credit conservation and the no-overwrite guarantee. *)

module R = Sds_ring.Spsc_ring

let enq r s = R.try_enqueue r (Bytes.of_string s) ~off:0 ~len:(String.length s)

let deq r =
  match R.try_dequeue ~auto_credit:true r with
  | Some { R.data; _ } -> Some (Bytes.to_string data)
  | None -> None

let test_fifo () =
  let r = R.create ~size:1024 () in
  Alcotest.(check bool) "enq a" true (enq r "alpha");
  Alcotest.(check bool) "enq b" true (enq r "bravo!");
  Alcotest.(check bool) "enq c" true (enq r "");
  Alcotest.(check (option string)) "deq a" (Some "alpha") (deq r);
  Alcotest.(check (option string)) "deq b" (Some "bravo!") (deq r);
  Alcotest.(check (option string)) "deq empty msg" (Some "") (deq r);
  Alcotest.(check (option string)) "drained" None (deq r)

let test_backpressure_no_overwrite () =
  let r = R.create ~size:256 () in
  (* Fill the ring; the enqueue that does not fit must be refused. *)
  let msg = String.make 56 'z' in
  let accepted = ref 0 in
  while enq r msg do
    incr accepted
  done;
  Alcotest.(check bool) "some accepted" true (!accepted > 0);
  (* Every accepted message is intact. *)
  for _ = 1 to !accepted do
    Alcotest.(check (option string)) "intact" (Some msg) (deq r)
  done;
  Alcotest.(check (option string)) "exactly as many out as in" None (deq r)

let test_wraparound () =
  let r = R.create ~size:128 () in
  (* Cycle enough to wrap many times. *)
  for i = 1 to 500 do
    let s = Printf.sprintf "m%04d" i in
    Alcotest.(check bool) "enq" true (enq r s);
    Alcotest.(check (option string)) "deq" (Some s) (deq r)
  done

let test_credit_return_batched () =
  let r = R.create ~size:1024 () in
  (* Without auto-credit, credits deplete until the consumer crosses half
     the ring, then return in one batch (§4.2). *)
  let sent = ref 0 in
  while R.try_enqueue r (Bytes.make 56 'x') ~off:0 ~len:56 do
    incr sent
  done;
  Alcotest.(check int) "ring filled" (1024 / 64) !sent;
  (* Drain without credit return: producer still blocked. *)
  let drained = ref 0 in
  let returned = ref 0 in
  let rec drain () =
    match R.try_dequeue r with
    | Some _ ->
      incr drained;
      let c = R.take_credit_return r in
      if c > 0 then returned := !returned + c;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all drained" !sent !drained;
  Alcotest.(check bool) "credit came back in >= half-ring batches" true (!returned >= 512);
  R.return_credits r !returned;
  Alcotest.(check int) "credits restored" 1024 (R.credits r)

let test_message_too_large () =
  let r = R.create ~size:256 () in
  Alcotest.check_raises "over half ring rejected"
    (Invalid_argument "Spsc_ring.try_enqueue: message larger than half ring") (fun () ->
      ignore (R.try_enqueue r (Bytes.create 200) ~off:0 ~len:200))

let test_flags_roundtrip () =
  let r = R.create ~size:1024 () in
  ignore (R.try_enqueue ~flags:0x2A r (Bytes.of_string "x") ~off:0 ~len:1);
  match R.try_dequeue ~auto_credit:true r with
  | Some { R.flags; _ } -> Alcotest.(check int) "flags" 0x2A flags
  | None -> Alcotest.fail "expected message"

let test_peek_len () =
  let r = R.create ~size:1024 () in
  Alcotest.(check (option int)) "empty peek" None (R.peek_len r);
  ignore (enq r "hello");
  Alcotest.(check (option int)) "peek len" (Some 5) (R.peek_len r);
  ignore (deq r)

(* ---- zero-allocation / batched APIs ---- *)

let test_dequeue_into () =
  let r = R.create ~size:1024 () in
  ignore (enq r "hello");
  ignore (R.try_enqueue ~flags:7 r (Bytes.of_string "world!") ~off:0 ~len:6);
  let dst = Bytes.make 16 '.' in
  (match R.try_dequeue_into ~auto_credit:true r ~dst ~dst_off:2 with
  | Some (len, flags) ->
    Alcotest.(check int) "len" 5 len;
    Alcotest.(check int) "flags" 0 flags;
    Alcotest.(check string) "copied at offset" "..hello" (Bytes.sub_string dst 0 7)
  | None -> Alcotest.fail "expected message");
  (match R.try_dequeue_into ~auto_credit:true r ~dst ~dst_off:0 with
  | Some (len, flags) ->
    Alcotest.(check int) "len 2" 6 len;
    Alcotest.(check int) "flags 2" 7 flags;
    Alcotest.(check string) "content 2" "world!" (Bytes.sub_string dst 0 6)
  | None -> Alcotest.fail "expected second message");
  Alcotest.(check bool) "drained" true (R.try_dequeue_into r ~dst ~dst_off:0 = None)

let test_dequeue_into_too_small () =
  let r = R.create ~size:1024 () in
  ignore (enq r "a long-ish message");
  let dst = Bytes.create 4 in
  Alcotest.check_raises "small buffer rejected"
    (Invalid_argument "Spsc_ring.try_dequeue_into: buffer too small") (fun () ->
      ignore (R.try_dequeue_into r ~dst ~dst_off:0));
  (* The message is still there, undamaged. *)
  Alcotest.(check (option string)) "intact after reject" (Some "a long-ish message") (deq r)

let test_enqueue_batch_prefix () =
  let r = R.create ~size:256 () in
  (* Each 56B message occupies 64 ring bytes; only 4 fit in a 256B ring. *)
  let m = Bytes.make 56 'q' in
  let srcs = Array.make 6 (m, 0, 56) in
  Alcotest.(check int) "prefix enqueued" 4 (R.enqueue_batch r srcs ~pos:0 ~n:6);
  Alcotest.(check int) "no credits left" 0 (R.credits r);
  Alcotest.(check int) "batch counted" 4 (R.enqueued r);
  let dst = Bytes.create 1024 in
  Alcotest.(check int) "all out" (4 * 56) (R.drain r ~dst ~dst_off:0 ~len:1024 ~max:10);
  Alcotest.(check int) "four records" 4 (R.dequeued r);
  Alcotest.(check bytes) "content" (Bytes.make (4 * 56) 'q') (Bytes.sub dst 0 (4 * 56))

(* The window retries the rest of a batch without copying it, and a bad
   entry anywhere in the window raises before anything is published. *)
let test_enqueue_batch_window () =
  let r = R.create ~size:1024 () in
  let srcs = Array.init 5 (fun i -> (Bytes.make 8 (Char.chr (Char.code 'a' + i)), 0, 8)) in
  Alcotest.(check int) "window enqueued" 3 (R.enqueue_batch r srcs ~pos:1 ~n:3);
  let dst = Bytes.create 64 in
  Alcotest.(check int) "window out" 24 (R.drain r ~dst ~dst_off:0 ~len:64 ~max:8);
  Alcotest.(check string) "entries 1..3" "bbbbbbbbccccccccdddddddd" (Bytes.sub_string dst 0 24);
  Alcotest.check_raises "window past the array" (Invalid_argument "Spsc_ring.enqueue_batch")
    (fun () -> ignore (R.enqueue_batch r srcs ~pos:3 ~n:3));
  let bad = Array.append srcs [| (Bytes.create 4, 2, 8) |] in
  Alcotest.check_raises "bad entry" (Invalid_argument "Spsc_ring.enqueue_batch") (fun () ->
      ignore (R.enqueue_batch r bad ~pos:0 ~n:6));
  Alcotest.(check bool) "nothing published" true (R.is_empty r);
  Alcotest.(check int) "nothing counted" 3 (R.enqueued r)

let test_drain_max () =
  let r = R.create ~size:1024 () in
  List.iter (fun s -> ignore (enq r s)) [ "a"; "bb"; "ccc"; "dddd" ];
  let dst = Bytes.create 64 in
  Alcotest.(check int) "first three" 6 (R.drain r ~dst ~dst_off:0 ~len:64 ~max:3);
  Alcotest.(check string) "first three, back to back" "abbccc" (Bytes.sub_string dst 0 6);
  Alcotest.(check int) "remainder" 4 (R.drain r ~dst ~dst_off:0 ~len:64 ~max:3);
  Alcotest.(check string) "remainder bytes" "dddd" (Bytes.sub_string dst 0 4);
  Alcotest.(check int) "empty ring" 0 (R.drain r ~dst ~dst_off:0 ~len:64 ~max:3)

(* The drain stops at a flagged record, at a record that does not fit
   whole, and at a corrupt header; credits stay pending. *)
let test_drain_stops () =
  let r = R.create ~size:1024 () in
  ignore (enq r "one");
  ignore (R.try_enqueue ~flags:0x200 r (Bytes.create 0) ~off:0 ~len:0);
  ignore (enq r "three");
  ignore (enq r "four");
  let dst = Bytes.make 16 '#' in
  Alcotest.(check int) "up to the flagged record" 3 (R.drain r ~dst ~dst_off:2 ~len:14 ~max:32);
  Alcotest.(check string) "at dst_off" "##one" (Bytes.sub_string dst 0 5);
  Alcotest.(check int) "flagged record stays" 0x200 (R.packed_flags (R.peek_packed r));
  Alcotest.(check int) "credits pending" (R.record_bytes 3) (R.pending_return r);
  ignore (R.try_dequeue_packed r ~dst ~dst_off:0);
  Alcotest.(check int) "only whole records" 5 (R.drain r ~dst ~dst_off:0 ~len:8 ~max:32);
  Alcotest.(check string) "three" "three" (Bytes.sub_string dst 0 5);
  Alcotest.(check string) "nothing past the record" (String.make 11 '#') (Bytes.sub_string dst 5 11);
  Alcotest.(check (option int)) "four stays" (Some 4) (R.peek_len r);
  Bytes.set (R.For_testing.buf r) (R.For_testing.head_offset r) '\xff';
  Alcotest.(check int) "corrupt header stops it" 0 (R.drain r ~dst ~dst_off:0 ~len:16 ~max:32);
  Alcotest.check_raises "range checked" (Invalid_argument "Spsc_ring.drain") (fun () ->
      ignore (R.drain r ~dst ~dst_off:10 ~len:7 ~max:1))

(* ---- page-descriptor records (§4.6 zero-copy handoff) ---- *)

let test_desc_entry_roundtrip () =
  let e = R.desc_entry ~page:123_456 ~off:712 ~len:4096 in
  Alcotest.(check int) "len" 4096 (R.desc_len e);
  Alcotest.(check int) "off" 712 (R.desc_off e);
  Alcotest.(check int) "page" 123_456 (R.desc_page e);
  Alcotest.check_raises "oversized len"
    (Invalid_argument "Spsc_ring.desc_entry: bad length") (fun () ->
      ignore (R.desc_entry ~page:0 ~off:0 ~len:4097));
  Alcotest.check_raises "bad offset"
    (Invalid_argument "Spsc_ring.desc_entry: bad offset") (fun () ->
      ignore (R.desc_entry ~page:0 ~off:4096 ~len:1))

let test_desc_enqueue_dequeue () =
  let r = R.create ~size:1024 () in
  let entries = [| R.desc_entry ~page:7 ~off:0 ~len:4096; R.desc_entry ~page:9 ~off:128 ~len:1000 |] in
  Alcotest.(check bool) "enqueued" true (R.try_enqueue_descs ~flags:0x3 r entries ~n:2);
  (* Interleave with an inline message: kinds must not mix up. *)
  ignore (enq r "inline");
  let peeked = R.peek_packed r in
  Alcotest.(check bool) "peek flags descriptor kind" true (R.is_desc_packed peeked);
  let out = Array.make 8 0 in
  let p = R.try_dequeue_descs ~auto_credit:true r ~entries:out in
  Alcotest.(check bool) "got a record" true (p <> R.no_msg);
  Alcotest.(check int) "entry count" 2 (R.desc_count_packed p);
  Alcotest.(check int) "flags preserved alongside flag_desc" 0x3
    (R.packed_flags p land lnot R.flag_desc);
  Alcotest.(check int) "first page" 7 (R.desc_page out.(0));
  Alcotest.(check int) "second off" 128 (R.desc_off out.(1));
  Alcotest.(check int) "second len" 1000 (R.desc_len out.(1));
  (* The inline message follows, un-corrupted, through the normal path. *)
  Alcotest.(check bool) "next is not a descriptor" false (R.is_desc_packed (R.peek_packed r));
  Alcotest.(check (option string)) "inline intact" (Some "inline") (deq r);
  Alcotest.(check (option string)) "drained" None (deq r)

let test_desc_wrong_kind_raises () =
  let r = R.create ~size:1024 () in
  ignore (enq r "not-a-descriptor");
  let out = Array.make 4 0 in
  Alcotest.check_raises "inline record via desc dequeue"
    (Invalid_argument "Spsc_ring.try_dequeue_descs: next record is not a descriptor (peek first)")
    (fun () -> ignore (R.try_dequeue_descs r ~entries:out));
  (* And the record survives the rejection. *)
  Alcotest.(check (option string)) "intact" (Some "not-a-descriptor") (deq r);
  ignore (R.try_enqueue_descs r [| R.desc_entry ~page:1 ~off:0 ~len:8 |] ~n:1);
  Alcotest.check_raises "entries buffer too small"
    (Invalid_argument "Spsc_ring.try_dequeue_descs: entries buffer too small") (fun () ->
      ignore (R.try_dequeue_descs r ~entries:[||]))

let test_desc_wraparound () =
  (* Drive descriptor records around the ring many times, mixed with inline
     records, so the 8-byte body stores cross the wrap point. *)
  let r = R.create ~size:256 () in
  let out = Array.make 4 0 in
  for i = 0 to 499 do
    let e0 = R.desc_entry ~page:(i * 2) ~off:(i mod 4096) ~len:(1 + (i mod 4096)) in
    let e1 = R.desc_entry ~page:((i * 2) + 1) ~off:0 ~len:4096 in
    Alcotest.(check bool) "enq descs" true (R.try_enqueue_descs r [| e0; e1 |] ~n:2);
    let s = Printf.sprintf "i%04d" i in
    Alcotest.(check bool) "enq inline" true (enq r s);
    let p = R.try_dequeue_descs ~auto_credit:true r ~entries:out in
    Alcotest.(check bool) "deq descs" true (p <> R.no_msg && R.desc_count_packed p = 2);
    if R.desc_page out.(0) <> i * 2 || R.desc_off out.(0) <> i mod 4096
       || R.desc_len out.(0) <> 1 + (i mod 4096)
       || R.desc_page out.(1) <> (i * 2) + 1
    then Alcotest.failf "iteration %d: descriptor corrupted across wrap" i;
    Alcotest.(check (option string)) "deq inline" (Some s) (deq r)
  done

(* ---- header checksum hardening ---- *)

let test_checksum_mixes_high_bits () =
  (* Lengths differing only in bits 16..31 must checksum differently: a torn
     or scribbled high half can not alias a valid header. *)
  for bit = 16 to 30 do
    let len = 5 lor (1 lsl bit) in
    Alcotest.(check bool)
      (Printf.sprintf "bit %d folds into checksum" bit)
      false
      (R.header_checksum len 0 = R.header_checksum 5 0)
  done

let test_zero_header_invalid () =
  (* An all-zero header (zeroed shared memory) must not validate. *)
  Alcotest.(check bool) "zero header rejected" false (R.header_checksum 0 0 = 0)

let test_corrupt_header_not_decoded () =
  (* Flip each byte of a live header in place: the message must become
     invisible (checksum failure), never decode as garbage. *)
  for i = 0 to R.header_bytes - 1 do
    let r = R.create ~size:1024 () in
    ignore (R.try_enqueue ~flags:3 r (Bytes.of_string "payload") ~off:0 ~len:7);
    let buf = R.For_testing.buf r in
    let off = R.For_testing.head_offset r + i in
    Bytes.set buf off (Char.chr (Char.code (Bytes.get buf off) lxor 0xFF));
    Alcotest.(check bool)
      (Printf.sprintf "corrupt byte %d hides message" i)
      true
      (R.try_dequeue ~auto_credit:true r = None)
  done

(* ---- randomized model-based test with the credit invariant ---- *)

(* Drive the ring with a random enqueue / dequeue / credit-return schedule,
   mirror it against a reference [Queue], and assert the documented
   invariant [credits + pending_return + in_flight + used = capacity] after
   every single step (credit returns taken by the consumer ride "in flight"
   until the scheduled delivery). *)
let test_model_invariant () =
  let rng = Random.State.make [| 0xC0FFEE |] in
  let r = R.create ~size:256 () in
  let model : string Queue.t = Queue.create () in
  let in_flight = ref 0 in
  let dst = Bytes.create 256 in
  let check_invariant step =
    let sum = R.credits r + R.pending_return r + !in_flight + R.used r in
    if sum <> R.capacity r then
      Alcotest.failf "step %d: credits %d + pending %d + in-flight %d + used %d <> capacity %d" step
        (R.credits r) (R.pending_return r) !in_flight (R.used r) (R.capacity r)
  in
  for step = 1 to 20_000 do
    (match Random.State.int rng 100 with
    | n when n < 45 ->
      (* Enqueue a random-length message (may be refused on no credits). *)
      let len = Random.State.int rng 90 in
      let s = String.init len (fun i -> Char.chr ((step + i) land 0xFF)) in
      if R.try_enqueue r (Bytes.of_string s) ~off:0 ~len then Queue.push s model
    | n when n < 90 ->
      (* Dequeue, alternating between the allocating and the into-buffer
         flavours; contents must match the model exactly. *)
      if Random.State.bool rng then (
        match (R.try_dequeue r, Queue.take_opt model) with
        | Some { R.data; _ }, Some expected ->
          Alcotest.(check string) "dequeue matches model" expected (Bytes.to_string data)
        | None, None -> ()
        | Some _, None -> Alcotest.fail "ring had message, model empty"
        | None, Some _ -> Alcotest.fail "model had message, ring empty")
      else (
        match (R.try_dequeue_into r ~dst ~dst_off:0, Queue.take_opt model) with
        | Some (len, _), Some expected ->
          Alcotest.(check string) "dequeue_into matches model" expected (Bytes.sub_string dst 0 len)
        | None, None -> ()
        | Some _, None -> Alcotest.fail "ring had message, model empty"
        | None, Some _ -> Alcotest.fail "model had message, ring empty")
    | _ ->
      (* Transport tick: pick up a batched credit return and/or deliver. *)
      let c = R.take_credit_return r in
      in_flight := !in_flight + c;
      if Random.State.bool rng && !in_flight > 0 then begin
        R.return_credits r !in_flight;
        in_flight := 0
      end);
    check_invariant step
  done;
  (* Drain everything and deliver all credits: the ring must end whole. *)
  let rec drain () =
    match R.try_dequeue r with
    | Some { R.data; _ } ->
      (match Queue.take_opt model with
      | Some expected -> Alcotest.(check string) "tail drain matches" expected (Bytes.to_string data)
      | None -> Alcotest.fail "extra message at drain");
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "model drained too" 0 (Queue.length model);
  let tail_credit = R.take_credit_return r in
  R.return_credits r (!in_flight + tail_credit);
  Alcotest.(check bool) "empty" true (R.is_empty r);
  (* Whatever is still pending below the half-ring threshold accounts for
     the remainder: credits + pending = capacity. *)
  Alcotest.(check int) "ring whole" (R.capacity r) (R.credits r + R.pending_return r)

(* Property: any sequence of enqueues (that the ring accepts) dequeues in
   FIFO order with intact contents. *)
let prop_fifo_intact =
  QCheck.Test.make ~name:"spsc ring preserves order and content" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 64) (string_of_size (Gen.int_range 0 100)))
    (fun msgs ->
      let r = R.create ~size:4096 () in
      let accepted =
        List.filter (fun m -> R.try_enqueue r (Bytes.of_string m) ~off:0 ~len:(String.length m)) msgs
      in
      let out = ref [] in
      let rec drain () =
        match R.try_dequeue ~auto_credit:true r with
        | Some { R.data; _ } ->
          out := Bytes.to_string data :: !out;
          drain ()
        | None -> ()
      in
      drain ();
      List.rev !out = accepted)

(* Property: interleaved produce/consume conserves the credit invariant
   credits + used + pending-return = capacity. *)
let prop_credit_conservation =
  QCheck.Test.make ~name:"credit conservation invariant" ~count:200
    QCheck.(list (pair bool (int_range 0 80)))
    (fun ops ->
      let r = R.create ~size:1024 () in
      let pending = ref 0 in
      List.iter
        (fun (is_enq, len) ->
          if is_enq then ignore (R.try_enqueue r (Bytes.create len) ~off:0 ~len)
          else begin
            ignore (R.try_dequeue r);
            let c = R.take_credit_return r in
            pending := !pending + c
          end)
        ops;
      (* Deliver outstanding credit returns. *)
      R.return_credits r !pending;
      let leftover = ref 0 in
      let rec drain () =
        match R.try_dequeue r with
        | Some _ ->
          leftover := !leftover + R.take_credit_return r;
          drain ()
        | None -> leftover := !leftover + R.take_credit_return r
      in
      drain ();
      (* After full drain and final credit return the ring must be whole
         minus only the not-yet-returned remainder below half ring. *)
      R.credits r + !leftover + (R.capacity r - R.credits r - !leftover) = R.capacity r
      && R.credits r + !leftover <= R.capacity r && R.is_empty r)

(* Property: the ring never accepts a message when it lacks credits (no
   silent overwrite), cross-checked against a model queue. *)
let prop_model_check =
  QCheck.Test.make ~name:"spsc ring vs model queue" ~count:150
    QCheck.(list (pair bool (string_of_size (Gen.int_range 0 60))))
    (fun ops ->
      let r = R.create ~size:512 () in
      let model = Queue.create () in
      let ok = ref true in
      List.iter
        (fun (is_enq, s) ->
          if is_enq then begin
            if R.try_enqueue r (Bytes.of_string s) ~off:0 ~len:(String.length s) then
              Queue.push s model
          end
          else
            match (R.try_dequeue ~auto_credit:true r, Queue.take_opt model) with
            | Some { R.data; _ }, Some expected -> if Bytes.to_string data <> expected then ok := false
            | None, None -> ()
            | Some _, None | None, Some _ -> ok := false)
        ops;
      !ok)

(* [drain] against a queue model: random record sizes and flags, drains
   with random [len] and [max], and a plain dequeue to get past a flagged
   head.  The drain must return exactly the model's longest prefix of
   flag-free records that fit whole in [len], at most [max] of them, and
   leave the rest queued; credits must balance after every step. *)
type drain_op = Enq of int * int | Drain of int * int | Pop

let prop_drain_model =
  let op =
    QCheck.Gen.(
      frequency
        [ (5, map2 (fun len f -> Enq (len, f)) (int_range 0 100) (oneofl [ 0; 0; 0; 0; 0x200; 0x100 ]));
          (3, map2 (fun len max -> Drain (len, max)) (int_range 0 300) (int_range 0 8));
          (1, return Pop) ])
  in
  let print = function
    | Enq (l, f) -> Printf.sprintf "Enq(%d,%#x)" l f
    | Drain (l, m) -> Printf.sprintf "Drain(%d,%d)" l m
    | Pop -> "Pop"
  in
  QCheck.Test.make ~name:"spsc drain vs model queue" ~count:300
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 0 120) op))
    (fun ops ->
      let r = R.create ~size:512 () in
      let model = Queue.create () in
      let seq = ref 0 in
      let dst = Bytes.create 400 in
      let ok = ref true in
      let settle () =
        let c = R.take_credit_return r in
        if c > 0 then R.return_credits r c;
        if R.credits r + R.pending_return r + R.used r <> R.capacity r then ok := false
      in
      List.iter
        (fun op ->
          (match op with
          | Enq (len, flags) ->
            let payload = String.init len (fun i -> Char.chr ((!seq + (i * 13)) land 0xff)) in
            incr seq;
            if R.try_enqueue ~flags r (Bytes.of_string payload) ~off:0 ~len then
              Queue.push (payload, flags) model
          | Drain (len, max) ->
            let off = 50 in
            Bytes.fill dst 0 (Bytes.length dst) '#';
            let before = R.dequeued r in
            let n = R.drain r ~dst ~dst_off:off ~len ~max in
            let rec expect acc k room =
              match Queue.peek_opt model with
              | Some (p, 0) when k < max && String.length p <= room ->
                ignore (Queue.pop model);
                expect (acc ^ p) (k + 1) (room - String.length p)
              | _ -> (acc, k)
            in
            let want, k = expect "" 0 len in
            if n <> String.length want || R.dequeued r - before <> k then ok := false
            else if Bytes.sub_string dst off n <> want then ok := false
            else if
              Bytes.sub_string dst 0 off <> String.make off '#'
              || Bytes.sub_string dst (off + n) (Bytes.length dst - off - n)
                 <> String.make (Bytes.length dst - off - n) '#'
            then ok := false
          | Pop -> (
            match (R.try_dequeue r, Queue.take_opt model) with
            | Some { R.data; flags }, Some (p, f) ->
              if Bytes.to_string data <> p || flags <> f then ok := false
            | None, None -> ()
            | Some _, None | None, Some _ -> ok := false));
          settle ())
        ops;
      !ok)

(* ---- locked queue baseline ---- *)

let test_locked_queue () =
  let q = Sds_ring.Locked_queue.create ~capacity_bytes:100 () in
  Alcotest.(check bool) "enq" true (Sds_ring.Locked_queue.try_enqueue q (Bytes.of_string "abc") ~off:0 ~len:3);
  Alcotest.(check bool) "cap respected" false
    (Sds_ring.Locked_queue.try_enqueue q (Bytes.create 200) ~off:0 ~len:200);
  (match Sds_ring.Locked_queue.try_dequeue q with
  | Some b -> Alcotest.(check string) "content" "abc" (Bytes.to_string b)
  | None -> Alcotest.fail "expected message");
  Alcotest.(check int) "empty" 0 (Sds_ring.Locked_queue.length q)

(* ---- alloc queue baseline ---- *)

let test_alloc_queue_fragmentation () =
  let q = Sds_ring.Alloc_queue.create ~slots:8 ~buffer_size:4096 () in
  Alcotest.(check bool) "enq small" true (Sds_ring.Alloc_queue.try_enqueue q (Bytes.of_string "tiny") ~off:0 ~len:4);
  (* Internal fragmentation: an MTU buffer was allocated for 4 bytes. *)
  Alcotest.(check int) "wasted bytes" (4096 - 4) (Sds_ring.Alloc_queue.bytes_wasted q);
  (match Sds_ring.Alloc_queue.try_dequeue q with
  | Some b -> Alcotest.(check string) "content back" "tiny" (Bytes.to_string b)
  | None -> Alcotest.fail "expected message")

let test_alloc_queue_slots () =
  let q = Sds_ring.Alloc_queue.create ~slots:2 ~buffer_size:64 () in
  let b = Bytes.create 8 in
  Alcotest.(check bool) "slot 1" true (Sds_ring.Alloc_queue.try_enqueue q b ~off:0 ~len:8);
  Alcotest.(check bool) "slot 2" true (Sds_ring.Alloc_queue.try_enqueue q b ~off:0 ~len:8);
  Alcotest.(check bool) "full" false (Sds_ring.Alloc_queue.try_enqueue q b ~off:0 ~len:8);
  ignore (Sds_ring.Alloc_queue.try_dequeue q);
  Alcotest.(check bool) "slot freed" true (Sds_ring.Alloc_queue.try_enqueue q b ~off:0 ~len:8)

let suite =
  [
    Alcotest.test_case "spsc fifo" `Quick test_fifo;
    Alcotest.test_case "spsc backpressure, no overwrite" `Quick test_backpressure_no_overwrite;
    Alcotest.test_case "spsc wraparound" `Quick test_wraparound;
    Alcotest.test_case "spsc batched credit return" `Quick test_credit_return_batched;
    Alcotest.test_case "spsc message too large" `Quick test_message_too_large;
    Alcotest.test_case "spsc header flags roundtrip" `Quick test_flags_roundtrip;
    Alcotest.test_case "spsc peek_len" `Quick test_peek_len;
    Alcotest.test_case "spsc dequeue_into" `Quick test_dequeue_into;
    Alcotest.test_case "spsc dequeue_into too-small buffer" `Quick test_dequeue_into_too_small;
    Alcotest.test_case "spsc enqueue_batch prefix" `Quick test_enqueue_batch_prefix;
    Alcotest.test_case "spsc enqueue_batch window" `Quick test_enqueue_batch_window;
    Alcotest.test_case "spsc drain max" `Quick test_drain_max;
    Alcotest.test_case "spsc drain stops" `Quick test_drain_stops;
    Alcotest.test_case "spsc descriptor entry packing" `Quick test_desc_entry_roundtrip;
    Alcotest.test_case "spsc descriptor enqueue/dequeue" `Quick test_desc_enqueue_dequeue;
    Alcotest.test_case "spsc descriptor kind mismatches raise" `Quick test_desc_wrong_kind_raises;
    Alcotest.test_case "spsc descriptor wraparound" `Quick test_desc_wraparound;
    Alcotest.test_case "spsc checksum mixes high bits" `Quick test_checksum_mixes_high_bits;
    Alcotest.test_case "spsc zero header invalid" `Quick test_zero_header_invalid;
    Alcotest.test_case "spsc corrupt header not decoded" `Quick test_corrupt_header_not_decoded;
    Alcotest.test_case "spsc randomized model + credit invariant" `Quick test_model_invariant;
    QCheck_alcotest.to_alcotest prop_fifo_intact;
    QCheck_alcotest.to_alcotest prop_credit_conservation;
    QCheck_alcotest.to_alcotest prop_model_check;
    QCheck_alcotest.to_alcotest prop_drain_model;
    Alcotest.test_case "locked queue baseline" `Quick test_locked_queue;
    Alcotest.test_case "alloc queue fragmentation" `Quick test_alloc_queue_fragmentation;
    Alcotest.test_case "alloc queue slot limit" `Quick test_alloc_queue_slots;
  ]
