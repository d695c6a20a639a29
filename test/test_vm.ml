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
  Pagepool.release h p

let suite =
  [
    Alcotest.test_case "pagepool alloc/blit/slice roundtrip" `Quick test_pagepool_roundtrip;
    Alcotest.test_case "pagepool double release raises" `Quick test_pagepool_double_release;
    Alcotest.test_case "pagepool use after release raises" `Quick test_pagepool_use_after_release;
    Alcotest.test_case "pagepool incref sharing" `Quick test_pagepool_incref_sharing;
    Alcotest.test_case "pagepool exhaustion returns no_page" `Quick test_pagepool_exhaustion;
    Alcotest.test_case "pagepool cross-handle spill/refill" `Quick test_pagepool_spill_refill;
    Alcotest.test_case "pagepool little-endian int roundtrip" `Quick test_pagepool_int_le_roundtrip;
  ]
