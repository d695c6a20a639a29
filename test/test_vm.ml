(* Tests for the page pool behind the zero-copy descriptor path: refcounted
   allocation, blits and slices, misuse detection, per-handle caches. *)

open Sds_vm

(* ---- the real shared page pool (§4.6 descriptor path) ---- *)

let test_pagepool_roundtrip () =
  let t = Pagepool.create ~pages:8 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Alcotest.(check bool) "allocated a real page" true (p <> Pagepool.no_page);
  Alcotest.(check int) "refcount 1" 1 (Pagepool.refcount t p);
  let payload = Bytes.of_string "zero-copy payload" in
  Pagepool.blit_from_bytes t ~src:payload ~src_off:0 ~page:p ~off:64 ~len:17;
  let back = Bytes.create 17 in
  Pagepool.blit_to_bytes t ~page:p ~off:64 ~dst:back ~dst_off:0 ~len:17;
  Alcotest.(check string) "content intact" "zero-copy payload" (Bytes.to_string back);
  let view = Pagepool.slice t ~page:p ~off:64 ~len:17 in
  Alcotest.(check char) "slice is a live view" 'z' (Bigarray.Array1.get view 0);
  Pagepool.release h p;
  Alcotest.(check int) "all pages free again" 8 (Pagepool.free_pages t)

let test_pagepool_double_release () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.release h p;
  Alcotest.check_raises "double release" (Invalid_argument "Pagepool.release: double release")
    (fun () -> Pagepool.release h p)

let test_pagepool_use_after_release () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.release h p;
  Alcotest.check_raises "slice of a freed page"
    (Invalid_argument "Pagepool.slice: use after release") (fun () ->
      ignore (Pagepool.slice t ~page:p ~off:0 ~len:8));
  Alcotest.check_raises "incref of a freed page"
    (Invalid_argument "Pagepool.incref: page is free") (fun () -> Pagepool.incref t p)

let test_pagepool_incref_sharing () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.incref t p;
  Alcotest.(check int) "two references" 2 (Pagepool.refcount t p);
  Pagepool.release h p;
  (* One reference still out: the page must not be recycled yet. *)
  Alcotest.(check bool) "still live" true (Pagepool.refcount t p = 1);
  ignore (Pagepool.slice t ~page:p ~off:0 ~len:1);
  Pagepool.release_global t p;
  Alcotest.(check int) "recycled after last release" 4 (Pagepool.free_pages t)

let test_pagepool_exhaustion () =
  let t = Pagepool.create ~pages:3 () in
  let h = Pagepool.handle t in
  let got = List.init 3 (fun _ -> Pagepool.alloc h) in
  Alcotest.(check bool) "all real" true (List.for_all (fun p -> p <> Pagepool.no_page) got);
  Alcotest.(check int) "exhausted returns no_page" Pagepool.no_page (Pagepool.alloc h);
  Alcotest.(check (float 0.001)) "occupancy full" 1.0 (Pagepool.occupancy t);
  List.iter (Pagepool.release h) got;
  Alcotest.(check bool) "alloc works again" true (Pagepool.alloc h <> Pagepool.no_page)

let test_pagepool_spill_refill () =
  (* Drain through one handle, release through another: pages must migrate
     between caches via the global stack without loss or duplication. *)
  let pages = 4 * Pagepool.batch in
  let t = Pagepool.create ~pages () in
  let ha = Pagepool.handle t in
  let hb = Pagepool.handle t in
  let all = Array.init pages (fun _ -> Pagepool.alloc ha) in
  Array.iter (fun p -> Alcotest.(check bool) "real page" true (p <> Pagepool.no_page)) all;
  Alcotest.(check int) "drained" Pagepool.no_page (Pagepool.alloc hb);
  Array.iter (Pagepool.release hb) all;
  Alcotest.(check int) "nothing lost" pages (Pagepool.free_pages t);
  (* The releasing handle (cache + spilled global stock) can re-allocate
     every page back, and not one more. *)
  let again = Array.init pages (fun _ -> Pagepool.alloc hb) in
  Alcotest.(check bool) "no duplication: all real, then empty" true
    (Array.for_all (fun p -> p <> Pagepool.no_page) again
    && Pagepool.alloc hb = Pagepool.no_page);
  Array.iter (Pagepool.release hb) again

let test_pagepool_int_le_roundtrip () =
  let t = Pagepool.create ~pages:2 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  let base = Pagepool.page_base p in
  List.iter
    (fun v ->
      Pagepool.set_int_le t base v;
      Alcotest.(check int) "int round trip" (v land max_int) (Pagepool.get_int_le t base))
    [ 0; 1; 0xDEAD_BEEF; max_int; min_int + 1 ];
  (* Byte order: the low byte lands first. *)
  Pagepool.set_int_le t base 0x0102_0304_0506_0708;
  Alcotest.(check char) "little-endian low byte first" '\x08'
    (Bigarray.Array1.get (Pagepool.buffer t) base);
  Pagepool.release h p;
  (* The last whole word of the buffer is addressable; one byte further is not. *)
  let dim = Pagepool.pages t * Pagepool.page_size in
  Pagepool.set_int_le t (dim - 8) 0x1234_5678;
  Alcotest.(check int) "last word round trip" 0x1234_5678 (Pagepool.get_int_le t (dim - 8));
  Alcotest.check_raises "set past the end" (Invalid_argument "Pagepool.set_int_le: out of range")
    (fun () -> Pagepool.set_int_le t (dim - 7) 1);
  Alcotest.check_raises "get past the end" (Invalid_argument "Pagepool.get_int_le: out of range")
    (fun () -> ignore (Pagepool.get_int_le t (dim - 7)));
  Alcotest.check_raises "negative position" (Invalid_argument "Pagepool.get_int_le: out of range")
    (fun () -> ignore (Pagepool.get_int_le t (-1)));
  Alcotest.check_raises "position overflowing past the end"
    (Invalid_argument "Pagepool.set_int_le: out of range") (fun () ->
      Pagepool.set_int_le t max_int 1)

(* ---- blits against a reference byte loop ---- *)

let blit_pages = 4

(* A pool with every page live (so any page id is a valid target), its
   whole buffer filled from [seed]. *)
let filled_pool seed =
  let t = Pagepool.create ~pages:blit_pages () in
  let h = Pagepool.handle t in
  for _ = 1 to blit_pages do
    ignore (Pagepool.alloc h)
  done;
  let buf = Pagepool.buffer t in
  for i = 0 to Bigarray.Array1.dim buf - 1 do
    Bigarray.Array1.set buf i (Char.chr (((i * 31) + seed) land 0xFF))
  done;
  (t, h)

let caller_bytes ~seed n =
  Bytes.init n (fun i -> Char.chr (((i * 7) + (seed lsr 8) + 1) land 0xFF))

let pool_copy t =
  let buf = Pagepool.buffer t in
  Bytes.init (Bigarray.Array1.dim buf) (Bigarray.Array1.get buf)

let gen_blit_case =
  let ps = Pagepool.page_size in
  QCheck.Gen.(
    frequency [ (1, pure 0); (1, pure ps); (6, int_range 0 ps) ] >>= fun len ->
    frequency [ (1, pure 0); (1, pure (ps - len)); (4, int_range 0 (ps - len)) ] >>= fun off ->
    frequency [ (1, pure (blit_pages - 1)); (3, int_range 0 (blit_pages - 1)) ] >>= fun page ->
    int_range 0 64 >>= fun caller_off ->
    int_range 0 64 >>= fun slack ->
    int_bound 0xFFFF >|= fun seed -> (page, off, len, caller_off, slack, seed))

let arb_blit_case =
  QCheck.make gen_blit_case ~print:(fun (page, off, len, caller_off, slack, seed) ->
      Printf.sprintf "page=%d off=%d len=%d caller_off=%d slack=%d seed=%d" page off len
        caller_off slack seed)

(* Both blits move exactly the bytes a reference loop moves: inside
   [off, off+len) of the page and the caller's range, and nowhere else. *)
let prop_blits_match_reference =
  QCheck.Test.make ~name:"pagepool blits match a reference byte loop" ~count:300 arb_blit_case
    (fun (page, off, len, caller_off, slack, seed) ->
      let base = Pagepool.page_base page + off in
      (* staging: bytes -> page *)
      let t, _ = filled_pool seed in
      let src = caller_bytes ~seed (caller_off + len + slack) in
      let src_before = Bytes.copy src in
      let expect = pool_copy t in
      for i = 0 to len - 1 do
        Bytes.set expect (base + i) (Bytes.get src (caller_off + i))
      done;
      Pagepool.blit_from_bytes t ~src ~src_off:caller_off ~page ~off ~len;
      let staged_ok = Bytes.equal (pool_copy t) expect && Bytes.equal src src_before in
      (* landing: page -> bytes *)
      let t, _ = filled_pool (seed + 1) in
      let pool_before = pool_copy t in
      let dst = caller_bytes ~seed (caller_off + len + slack) in
      let expect = Bytes.copy dst in
      for i = 0 to len - 1 do
        Bytes.set expect (caller_off + i) (Bytes.get pool_before (base + i))
      done;
      Pagepool.blit_to_bytes t ~page ~off ~dst ~dst_off:caller_off ~len;
      staged_ok && Bytes.equal dst expect && Bytes.equal (pool_copy t) pool_before)

(* Every check fires with its message before the copy writes a byte, in
   the order page, liveness, page range, caller range. *)
let test_pagepool_blit_checks () =
  let t, h = filled_pool 5 in
  let live = 1 in
  let freed = 2 in
  Pagepool.release h freed;
  let caller = Bytes.make 64 'c' in
  let raises_untouched what msg f =
    let pool_before = pool_copy t in
    Alcotest.check_raises what (Invalid_argument msg) f;
    Alcotest.(check bool) (what ^ ": pool untouched") true (Bytes.equal (pool_copy t) pool_before);
    Alcotest.(check string) (what ^ ": caller bytes untouched") (String.make 64 'c')
      (Bytes.to_string caller)
  in
  let stage ?(src_off = 0) ~page ~off ~len msg what =
    raises_untouched ("stage: " ^ what) msg (fun () ->
        Pagepool.blit_from_bytes t ~src:caller ~src_off ~page ~off ~len)
  in
  let landing ?(dst_off = 0) ~page ~off ~len msg what =
    raises_untouched ("land: " ^ what) msg (fun () ->
        Pagepool.blit_to_bytes t ~page ~off ~dst:caller ~dst_off ~len)
  in
  let ps = Pagepool.page_size in
  let e_in = "Pagepool.blit_from_bytes" and e_out = "Pagepool.blit_to_bytes" in
  List.iter
    (fun (page, what) ->
      stage ~page ~off:0 ~len:8 e_in what;
      landing ~page ~off:0 ~len:8 e_out what)
    [ (-1, "negative page id"); (blit_pages, "page id past the pool") ];
  stage ~page:freed ~off:0 ~len:8 (e_in ^ ": use after release") "use after release";
  landing ~page:freed ~off:0 ~len:8 (e_out ^ ": use after release") "use after release";
  stage ~page:freed ~off:(-1) ~len:8 (e_in ^ ": use after release") "liveness before range";
  List.iter
    (fun (off, len, what) ->
      stage ~page:live ~off ~len (e_in ^ ": bad range") what;
      landing ~page:live ~off ~len (e_out ^ ": bad range") what)
    [
      (-1, 8, "negative offset");
      (0, -1, "negative length");
      (ps - 7, 8, "range past the page end");
      (max_int, 8, "offset overflowing past the page end");
    ];
  stage ~page:live ~off:0 ~len:8 ~src_off:(-1) (e_in ^ ": bad source range") "negative src_off";
  stage ~page:live ~off:0 ~len:8 ~src_off:57 (e_in ^ ": bad source range") "source too short";
  stage ~page:live ~off:0 ~len:8 ~src_off:max_int (e_in ^ ": bad source range")
    "src_off overflowing past the source end";
  landing ~page:live ~off:0 ~len:8 ~dst_off:(-1) (e_out ^ ": bad destination range")
    "negative dst_off";
  landing ~page:live ~off:0 ~len:8 ~dst_off:57 (e_out ^ ": bad destination range")
    "destination too short";
  landing ~page:live ~off:0 ~len:8 ~dst_off:max_int (e_out ^ ": bad destination range")
    "dst_off overflowing past the destination end";
  (* The exact fits on either boundary still copy. *)
  Pagepool.blit_from_bytes t ~src:caller ~src_off:56 ~page:live ~off:(ps - 8) ~len:8;
  Pagepool.blit_to_bytes t ~page:live ~off:(ps - 8) ~dst:caller ~dst_off:56 ~len:8;
  Alcotest.(check string) "boundary fits round trip" (String.make 64 'c') (Bytes.to_string caller)

let suite =
  [
    Alcotest.test_case "pagepool alloc/blit/slice roundtrip" `Quick test_pagepool_roundtrip;
    Alcotest.test_case "pagepool double release raises" `Quick test_pagepool_double_release;
    Alcotest.test_case "pagepool use after release raises" `Quick test_pagepool_use_after_release;
    Alcotest.test_case "pagepool incref sharing" `Quick test_pagepool_incref_sharing;
    Alcotest.test_case "pagepool exhaustion returns no_page" `Quick test_pagepool_exhaustion;
    Alcotest.test_case "pagepool cross-handle spill/refill" `Quick test_pagepool_spill_refill;
    Alcotest.test_case "pagepool little-endian int roundtrip" `Quick test_pagepool_int_le_roundtrip;
    QCheck_alcotest.to_alcotest prop_blits_match_reference;
    Alcotest.test_case "pagepool blit checks precede the copy" `Quick test_pagepool_blit_checks;
  ]
