(* §4.3 crash-safe data plane: the seeded chaos soak over the real-domain
   stack (5 crash kinds x 3 fixed seeds), plus the crash-recovery units it
   rests on — pagepool owner reclamation, the liveness reaper, bounded
   parks, the flight watchdog's heartbeat-stall dump, the Interleave crash
   model, and the simulator's ECONNRESET/EPIPE errno surface.

   Determinism: every schedule is a [Sds_fault.plan] of a fixed seed, so a
   failing seed replays the same crash at the same site visit. *)

module F = Sds_fault
module Rt_dom = Sds_rt.Rt_dom
module Rt_token = Sds_rt.Rt_token
module Rt_sock = Sds_rt.Rt_sock
module Rt_monitor = Sds_rt.Rt_monitor
module Pp = Sds_vm.Pagepool
module Waiter = Sds_notify.Waiter
module Obs = Sds_obs.Obs
module Flight = Sds_obs.Flight
module L = Socksdirect.Libsd
open Helpers

(* The CI chaos seeds: fixed, so every run replays the same schedules. *)
let seeds = [ 1; 2; 3 ]

let counter = Obs.Metrics.counter_value

(* A crashed domain re-raises [F.Crash] out of [Domain.join]; the soak
   joins survivors and victims alike. *)
let join_quiet d = try Domain.join d with _ -> ()

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

let fired_kind kind =
  List.exists (fun (site, k) -> k = kind && site = F.site_of_kind kind) (F.fired_sites ())

(* ---- chaos soak: one scenario per crash kind --------------------------- *)

(* Crash_before_grant: two domains churn one token; whichever incarnation
   reaches the armed grant site dies mid-handoff.  The survivor must keep
   operating (seizing the dead-held token), and the token must end live-
   or-free. *)
let soak_before_grant ~seed () =
  let seized0 = counter "token.seized_dead" in
  F.arm (F.plan ~seed [ F.Crash_before_grant ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let tok = Rt_token.create ~name:"chaos-grant" ~holder:(-1) () in
      let survivors = Atomic.make 0 in
      let churn () =
        let dom = Rt_dom.self () in
        (* Operate until the planned crash has happened somewhere: grants
           flow continuously between two churning domains, so the armed
           site's countdown drains fast.  If the crash fires *here*, the
           exception escapes and the spawn wrapper declares us dead. *)
        while F.fired_sites () = [] do
          Rt_token.with_held tok ~dom (fun () -> ())
        done;
        (* Survivor: a few more ops across the now-dead holder. *)
        for _ = 1 to 100 do
          Rt_token.with_held tok ~dom (fun () -> ())
        done;
        Rt_token.release tok ~dom;
        Atomic.incr survivors
      in
      let a = Rt_dom.spawn churn in
      let b = Rt_dom.spawn churn in
      join_quiet a;
      join_quiet b;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Crash_before_grant);
      Alcotest.(check int) "exactly one domain survived" 1 (Atomic.get survivors);
      Alcotest.(check bool) "token ends live-or-free" false (Rt_token.holder_dead tok);
      Alcotest.(check bool) "dead holder's token was seized" true
        (counter "token.seized_dead" > seized0))

(* Crash_mid_publish: the sender dies between the records of one multi-
   record inline stream send.  The receiver must observe ECONNRESET, not
   a hang and not a silently truncated
   stream treated as EOF. *)
let soak_mid_publish ~seed () =
  F.arm (F.plan ~seed [ F.Crash_mid_publish ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:(-1) () in
      let payload = Rt_sock.max_inline + 1024 (* two records, below the copy threshold *) in
      let sender =
        Rt_dom.spawn (fun () ->
            let dom = Rt_dom.self () in
            let src = Bytes.make payload 'm' in
            for _ = 1 to 64 do
              Rt_sock.send a ~dom src ~off:0 ~len:payload
            done;
            Rt_sock.close a ~dom)
      in
      let dom = Rt_dom.self () in
      let dst = Bytes.create (Rt_sock.max_desc_per_record * Pp.page_size) in
      let saw_reset = ref false in
      (try
         while Rt_sock.recv b ~dom dst ~off:0 ~len:(Bytes.length dst) > 0 do
           ()
         done
       with Unix.Unix_error (Unix.ECONNRESET, _, _) -> saw_reset := true);
      join_quiet sender;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Crash_mid_publish);
      Alcotest.(check bool) "receiver unblocked with ECONNRESET" true !saw_reset;
      Alcotest.(check bool) "pair is poisoned" true (Rt_sock.poisoned b);
      Rt_sock.release_tokens b ~dom)

(* Crash_holding_pages: the sender dies with staged pool pages that were
   never published.  The death hook must reclaim them (pool occupancy back
   to baseline) and the receiver must get ECONNRESET. *)
let soak_holding_pages ~seed () =
  let reclaimed0 = counter "pool.reclaimed_pages" in
  F.arm (F.plan ~seed [ F.Crash_holding_pages ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:(-1) () in
      let payload = Sds_proto.Copy_policy.base_threshold (* descriptor path: staged pages *) in
      let sender =
        Rt_dom.spawn (fun () ->
            let dom = Rt_dom.self () in
            let src = Bytes.make payload 'p' in
            for _ = 1 to 32 do
              Rt_sock.send a ~dom src ~off:0 ~len:payload
            done;
            Rt_sock.close a ~dom)
      in
      let dom = Rt_dom.self () in
      let dst = Bytes.create (Rt_sock.max_desc_per_record * Pp.page_size) in
      let saw_reset = ref false in
      (try
         while Rt_sock.recv b ~dom dst ~off:0 ~len:(Bytes.length dst) > 0 do
           ()
         done
       with Unix.Unix_error (Unix.ECONNRESET, _, _) -> saw_reset := true);
      join_quiet sender;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Crash_holding_pages);
      Alcotest.(check bool) "receiver unblocked with ECONNRESET" true !saw_reset;
      Alcotest.(check bool) "dead sender's staged pages were reclaimed" true
        (counter "pool.reclaimed_pages" > reclaimed0);
      Rt_sock.release_tokens b ~dom)

(* Monitor_restart: a worker dies inside accept, holding a just-popped
   connection.  A replacement re-registering the same index must inherit
   the undrained backlog and serve everything except the one connection
   that died with the worker (which must be poisoned, not stranded). *)
let soak_monitor_restart ~seed () =
  F.arm (F.plan ~seed [ F.Monitor_restart ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let mon = Rt_monitor.create ~workers:1 () in
      let served = Atomic.make 0 in
      let worker_body () =
        ignore (Rt_monitor.register mon ~index:0);
        let d = Rt_dom.self () in
        let buf = Bytes.create Rt_sock.max_inline in
        let rec serve () =
          match Rt_monitor.accept mon ~index:0 with
          | None -> ()
          | Some s ->
            (try
               while Rt_sock.recv s ~dom:d buf ~off:0 ~len:(Bytes.length buf) > 0 do
                 ()
               done;
               Atomic.incr served
             with Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
            Rt_sock.release_tokens s ~dom:d;
            serve ()
        in
        serve ()
      in
      let w1 = Rt_dom.spawn worker_body in
      while Rt_monitor.registered mon < 1 do
        Domain.cpu_relax ()
      done;
      let dom = Rt_dom.self () in
      let conns = 8 in
      let clients =
        Array.init conns (fun _ ->
            let s = Rt_monitor.connect mon ~dom in
            (* The worker may crash while holding this very connection —
               the client's send then correctly raises EPIPE. *)
            (try Rt_sock.send s ~dom (Bytes.make 64 'c') ~off:0 ~len:64
             with Unix.Unix_error (Unix.EPIPE, _, _) -> ());
            Rt_sock.close s ~dom;
            s)
      in
      (* 8 accepts against a max_skip-4 schedule: the crash always fires. *)
      while F.fired_sites () = [] do
        Unix.sleepf 0.001
      done;
      join_quiet w1;
      (* The restart path: same index, dead predecessor. *)
      let w2 = Rt_dom.spawn worker_body in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get served < conns - 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Rt_monitor.close_listener mon;
      join_quiet w2;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Monitor_restart);
      Alcotest.(check int) "replacement served every other connection" (conns - 1)
        (Atomic.get served);
      let poisoned = Array.fold_left (fun n c -> if Rt_sock.poisoned c then n + 1 else n) 0 clients in
      Alcotest.(check bool) "the connection that died with the worker is poisoned" true
        (poisoned >= 1))

(* Fork_storm: a client dies mid-connect, after the pair exists but before
   any worker can ever see it.  The orphaned connection must be poisoned
   by recovery (not leak), and the worker must keep serving everyone
   else. *)
let soak_fork_storm ~seed () =
  let poisoned0 = counter "rt.poisoned" in
  F.arm (F.plan ~seed [ F.Fork_storm ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let mon = Rt_monitor.create ~workers:1 () in
      let served = Atomic.make 0 in
      let worker =
        Rt_dom.spawn (fun () ->
            ignore (Rt_monitor.register mon ~index:0);
            let d = Rt_dom.self () in
            let buf = Bytes.create Rt_sock.max_inline in
            let rec serve () =
              match Rt_monitor.accept mon ~index:0 with
              | None -> ()
              | Some s ->
                (try
                   while Rt_sock.recv s ~dom:d buf ~off:0 ~len:(Bytes.length buf) > 0 do
                     ()
                   done;
                   Atomic.incr served
                 with Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
                Rt_sock.release_tokens s ~dom:d;
                serve ()
            in
            serve ())
      in
      while Rt_monitor.registered mon < 1 do
        Domain.cpu_relax ()
      done;
      let conns = 6 in
      let clients =
        Array.init conns (fun _ ->
            Rt_dom.spawn (fun () ->
                let d = Rt_dom.self () in
                let s = Rt_monitor.connect mon ~dom:d in
                Rt_sock.send s ~dom:d (Bytes.make 64 'f') ~off:0 ~len:64;
                Rt_sock.close s ~dom:d))
      in
      Array.iter join_quiet clients;
      (* One client died before its connection was dispatched; the worker
         can only ever see the other conns - 1. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get served < conns - 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Rt_monitor.close_listener mon;
      join_quiet worker;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Fork_storm);
      Alcotest.(check int) "worker served every dispatched connection" (conns - 1)
        (Atomic.get served);
      Alcotest.(check bool) "the orphaned connection was poisoned" true
        (counter "rt.poisoned" > poisoned0))

(* The sender dies holding the staged pages of a 16 KiB descriptor record
   before the receiver's first read.  The survivor, reading through a
   4 KiB buffer, gets ECONNRESET, and no page stays in use: the dead
   incarnation's pages are reclaimed and the receiver's cursor holds none
   that could not be. *)
let test_short_read_sender_crash () =
  let pages_in_use () =
    Option.value ~default:0
      (List.assoc_opt "pool.pages_in_use" (Obs.Metrics.snapshot ()).Obs.Metrics.gauges)
  in
  let in_use0 = pages_in_use () in
  F.arm (F.plan ~max_skip:1 ~seed:1 [ F.Crash_holding_pages ]);
  Fun.protect ~finally:F.disarm (fun () ->
      let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:(-1) () in
      let size = Sds_proto.Copy_policy.base_threshold in
      let sender =
        Rt_dom.spawn (fun () ->
            Rt_sock.send a ~dom:(Rt_dom.self ()) (Bytes.make size 's') ~off:0 ~len:size)
      in
      join_quiet sender;
      Alcotest.(check bool) "the planned crash fired" true (fired_kind F.Crash_holding_pages);
      let dom = Rt_dom.self () in
      let dst = Bytes.create 4096 in
      check_errno "survivor sees the reset" Unix.ECONNRESET (fun () ->
          Rt_sock.recv b ~dom dst ~off:0 ~len:4096);
      Alcotest.(check int) "no page left in use" in_use0 (pages_in_use ());
      Rt_sock.release_tokens b ~dom)

(* A receiving domain short-reads a 16 KiB descriptor record and dies
   holding the rest of it.  The next domain to receive on that endpoint
   gets ECONNRESET (not a double release or a use-after-release of pages
   the reaper reclaimed), and no page stays in use. *)
let test_short_read_reader_crash () =
  let pages_in_use () =
    Option.value ~default:0
      (List.assoc_opt "pool.pages_in_use" (Obs.Metrics.snapshot ()).Obs.Metrics.gauges)
  in
  let in_use0 = pages_in_use () in
  let desc0 = counter "rt.desc_sends" in
  let a, b = Rt_sock.pair ~a_owner:(-1) ~b_owner:(-1) () in
  let dom = Rt_dom.self () in
  let size = 16384 in
  let src = Bytes.init size (fun i -> Char.chr (i land 0xff)) in
  Rt_sock.send a ~dom src ~off:0 ~len:size;
  Alcotest.(check int) "one descriptor record" (desc0 + 1) (counter "rt.desc_sends");
  let reader =
    Rt_dom.spawn (fun () ->
        let dst = Bytes.create 4096 in
        let n = Rt_sock.recv b ~dom:(Rt_dom.self ()) dst ~off:0 ~len:4096 in
        if n <> 4096 || Bytes.sub dst 0 n <> Bytes.sub src 0 n then failwith "bad short read";
        failwith "reader dies mid-record")
  in
  (match Domain.join reader with
  | () -> Alcotest.fail "the reader should have died"
  | exception Failure m ->
    Alcotest.(check string) "died after a good short read" "reader dies mid-record" m);
  let dst = Bytes.create 4096 in
  check_errno "survivor sees the reset" Unix.ECONNRESET (fun () ->
      Rt_sock.recv b ~dom dst ~off:0 ~len:4096);
  Alcotest.(check int) "no page left in use" in_use0 (pages_in_use ());
  Rt_sock.release_tokens a ~dom;
  Rt_sock.release_tokens b ~dom

let soak ~seed () =
  soak_before_grant ~seed ();
  soak_mid_publish ~seed ();
  soak_holding_pages ~seed ();
  soak_monitor_restart ~seed ();
  soak_fork_storm ~seed ()

(* ---- pagepool owner reclamation ---------------------------------------- *)

let test_pool_reclaim_owner () =
  let pool = Pp.create ~pages:16 () in
  let h = Pp.handle pool in
  Pp.set_owner h 7;
  let free0 = Pp.free_pages pool in
  let pages = List.init 5 (fun _ -> Pp.alloc h) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "alloc succeeded" true (p <> Pp.no_page);
      Alcotest.(check int) "page stamped with its owner" 7 (Pp.owner pool p))
    pages;
  Alcotest.(check int) "owned_pages finds the in-flight set" 5
    (List.length (Pp.owned_pages pool ~owner:7));
  Alcotest.(check int) "reclaim frees the dead owner's pages" 5
    (Pp.reclaim_owner pool ~owner:7);
  Alcotest.(check int) "occupancy back to baseline" free0 (Pp.free_pages pool);
  List.iter
    (fun p -> Alcotest.(check int) "owner stamp cleared" Pp.no_owner (Pp.owner pool p))
    pages;
  Alcotest.(check int) "double reclaim is a no-op" 0 (Pp.reclaim_owner pool ~owner:7);
  Alcotest.(check int) "occupancy unchanged by the no-op" free0 (Pp.free_pages pool)

let test_pool_adopt () =
  let pool = Pp.create ~pages:8 () in
  let h = Pp.handle pool in
  Pp.set_owner h 3;
  let page = Pp.alloc h in
  Alcotest.(check bool) "survivor adopts an in-flight page" true
    (Pp.try_adopt pool ~page ~from:3 ~owner:4);
  Alcotest.(check int) "ownership moved" 4 (Pp.owner pool page);
  Alcotest.(check bool) "re-adopting is idempotent" true
    (Pp.try_adopt pool ~page ~from:3 ~owner:4);
  Alcotest.(check int) "the old owner's reclaim finds nothing" 0
    (Pp.reclaim_owner pool ~owner:3);
  Alcotest.(check int) "page survives the dead sender's reclaim" 1 (Pp.refcount pool page);
  Alcotest.(check int) "adopter's reclaim frees it" 1 (Pp.reclaim_owner pool ~owner:4);
  Alcotest.(check bool) "a free page cannot be adopted" false
    (Pp.try_adopt pool ~page ~from:4 ~owner:5)

(* Published pages are scoped to one connection direction's id: a page
   reclaimed under that id and allocated again under another stamp cannot
   be adopted from the old id, a sender cannot hand over a page that was
   reclaimed, and one reclaim pass frees exactly the stamps it is given. *)
let test_pool_handover_scoping () =
  let pool = Pp.create ~pages:8 () in
  let h = Pp.handle pool in
  Pp.set_owner h 3;
  let page = Pp.alloc h in
  Alcotest.(check bool) "the staging slot hands the page over" true
    (Pp.hand_over pool ~page ~from:3 ~to_:100);
  Alcotest.(check int) "published under the direction id" 100 (Pp.owner pool page);
  Alcotest.(check bool) "a stamp the page no longer carries cannot hand it over" false
    (Pp.hand_over pool ~page ~from:3 ~to_:101);
  Alcotest.(check int) "reclaimed under the direction id" 1 (Pp.reclaim_owners pool ~owners:[ 100 ]);
  Pp.set_owner h 5;
  let all = List.init 8 (fun _ -> Pp.alloc h) in
  Alcotest.(check bool) "the page was allocated again" true (List.mem page all);
  Alcotest.(check bool) "a stale descriptor cannot adopt it" false
    (Pp.try_adopt pool ~page ~from:100 ~owner:7);
  Alcotest.(check int) "its new stamp stands" 5 (Pp.owner pool page);
  Alcotest.(check int) "and its reference" 1 (Pp.refcount pool page);
  Alcotest.(check int) "free everything" 8 (Pp.reclaim_owners pool ~owners:[ 5 ]);
  (* Staged under slot 9, reclaimed before the hand-over. *)
  Pp.set_owner h 9;
  let staged = Pp.alloc h in
  Alcotest.(check int) "the dead slot's staged page is reclaimed" 1
    (Pp.reclaim_owners pool ~owners:[ 9 ]);
  Alcotest.(check bool) "hand_over fails on a reclaimed page" false
    (Pp.hand_over pool ~page:staged ~from:9 ~to_:102);
  Alcotest.(check int) "nothing in use" 8 (Pp.free_pages pool);
  (* Two pages under each of four stamps; reclaim two of the stamps. *)
  let by_owner =
    List.map
      (fun o ->
        Pp.set_owner h o;
        (o, [ Pp.alloc h; Pp.alloc h ]))
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "one pass frees the given stamps' pages" 4
    (Pp.reclaim_owners pool ~owners:[ 2; 4 ]);
  List.iter
    (fun (o, pages) ->
      let kept = o = 1 || o = 3 in
      Alcotest.(check int)
        (Printf.sprintf "stamp %d's pages" o)
        (if kept then 2 else 0)
        (List.length (Pp.owned_pages pool ~owner:o));
      List.iter
        (fun p ->
          Alcotest.(check int) (Printf.sprintf "stamp %d's refcounts" o) (if kept then 1 else 0)
            (Pp.refcount pool p))
        pages)
    by_owner

(* The page word under a real two-domain race.  A worker domain cycles one
   page at a time: alloc under its slot stamp, hand it over to a fresh
   direction id, publish the id, adopt the page back, release it.  The
   main domain meanwhile reclaims every published id, as the reaper does
   for a poisoned pair, and never the live slot.  A page whose hand-over
   or adoption fails belongs to the reclaimer, which freed it; so every
   handed-over page ends exactly once, adopted or reclaimed, and the pool
   ends with every page free. *)
let test_pool_word_race () =
  let pool = Pp.create ~pages:64 () in
  let h = Pp.handle pool in
  let slot = 1 and iters = 20_000 in
  Pp.set_owner h slot;
  let published = Atomic.make (-1) and finished = Atomic.make false in
  let worker =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            let handed = ref 0 and adopted = ref 0 and exhausted = ref 0 and errors = ref [] in
            (try
               for i = 1 to iters do
                 let page = Pp.alloc h and id = 1000 + (2 * i) in
                 if page = Pp.no_page then incr exhausted
                 else if Pp.hand_over pool ~page ~from:slot ~to_:id then begin
                   incr handed;
                   Atomic.set published id;
                   for _ = 1 to 20 do
                     Domain.cpu_relax ()
                   done;
                   if Pp.try_adopt pool ~page ~from:id ~owner:slot then begin
                     incr adopted;
                     Pp.release h page
                   end
                 end
               done
             with Invalid_argument msg -> errors := msg :: !errors);
            (!handed, !adopted, !exhausted, !errors)))
  in
  let reclaimed = ref 0 and errors = ref [] in
  (try
     while not (Atomic.get finished) do
       let id = Atomic.get published in
       if id >= 0 then reclaimed := !reclaimed + Pp.reclaim_owners pool ~owners:[ id ]
       else Domain.cpu_relax ()
     done
   with Invalid_argument msg -> errors := msg :: !errors);
  let handed, adopted, exhausted, worker_errors = Domain.join worker in
  Alcotest.(check (list string)) "no Invalid_argument escaped" [] (worker_errors @ !errors);
  Alcotest.(check int) "the pool never ran dry" 0 exhausted;
  Alcotest.(check int) "every handed-over page was adopted or reclaimed" handed
    (adopted + !reclaimed);
  Alcotest.(check int) "every page is free again" (Pp.pages pool) (Pp.free_pages pool)

(* Crash recovery walks every registered token and lane: the registries
   grow instead of dropping.  With 600 tokens and 550 connections (so 550
   lanes) kept live, past the old 512- and 1024-slot tables, a token whose
   holder dies is still freed and a connection whose owner dies is still
   poisoned. *)
let test_registries_keep_every_entry () =
  let keep_tokens = Array.init 600 (fun _ -> Rt_token.create ~name:"keep" ~holder:(-1) ()) in
  let keep_conns =
    Array.init 550 (fun _ -> Rt_sock.pair ~ring_size:1024 ~a_owner:(-1) ~b_owner:(-1) ())
  in
  let late = ref None in
  let victim =
    Rt_dom.spawn (fun () ->
        let d = Rt_dom.self () in
        let tok = Rt_token.create ~name:"late" ~holder:d () in
        let _, b = Rt_sock.pair ~ring_size:1024 ~a_owner:d ~b_owner:(-1) () in
        late := Some (tok, b);
        failwith "the holder dies")
  in
  join_quiet victim;
  let tok, b = Option.get !late in
  Alcotest.(check bool) "the late token's dead holder was reaped" false (Rt_token.holder_dead tok);
  Alcotest.(check int) "the late token is free" (-1) (Rt_token.holder tok);
  Alcotest.(check bool) "the late connection was poisoned" true (Rt_sock.poisoned b);
  ignore (Sys.opaque_identity (keep_tokens, keep_conns))

(* ---- bounded parks ------------------------------------------------------ *)

let test_wait_until_timeout () =
  let w = Waiter.create () in
  let t0 = counter "notify.wait_timeouts" in
  let now = Sds_obs.Span.monotonic_ns () in
  let r = Waiter.wait_until w ~deadline_ns:(now + 5_000_000) ~ready:(fun () -> false) in
  Alcotest.(check bool) "a dead peer cannot wedge the caller" false r;
  Alcotest.(check bool) "timeout counted in notify.wait_timeouts" true
    (counter "notify.wait_timeouts" > t0);
  let r =
    Waiter.wait_until w
      ~deadline_ns:(Sds_obs.Span.monotonic_ns () + 1_000_000_000)
      ~ready:(fun () -> true)
  in
  Alcotest.(check bool) "ready short-circuits the deadline" true r

(* ---- liveness reaper ---------------------------------------------------- *)

let test_reaper () =
  let reaped0 = counter "fault.reaped" in
  let stop = Atomic.make false in
  let release = Atomic.make false in
  let stalled_slot = Atomic.make (-1) in
  let parked_slot = Atomic.make (-1) in
  (* An enrolled, runnable, silent domain: must be declared dead. *)
  let stalled =
    Rt_dom.spawn (fun () ->
        let s = Rt_dom.enroll () in
        Rt_dom.beat s;
        Atomic.set stalled_slot s;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  (* An enrolled but *parked* domain: legitimate silence, must survive. *)
  let parked =
    Rt_dom.spawn (fun () ->
        let s = Rt_dom.enroll () in
        Rt_dom.beat s;
        Atomic.set parked_slot s;
        Waiter.wait (Rt_dom.waiter s) ~ready:(fun () -> Atomic.get release))
  in
  while Atomic.get stalled_slot < 0 || Atomic.get parked_slot < 0 do
    Domain.cpu_relax ()
  done;
  let s = Atomic.get stalled_slot in
  let p = Atomic.get parked_slot in
  Rt_monitor.start_reaper ~interval_s:0.002 ~stalls:4 ();
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Rt_dom.slot_live s && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  Rt_monitor.stop_reaper ();
  Alcotest.(check bool) "stalled enrolled slot declared dead" false (Rt_dom.slot_live s);
  Alcotest.(check bool) "reap counted in fault.reaped" true (counter "fault.reaped" > reaped0);
  Alcotest.(check bool) "parked slot was exempt" true (Rt_dom.slot_live p);
  Atomic.set stop true;
  Atomic.set release true;
  Waiter.notify (Rt_dom.waiter p);
  join_quiet stalled;
  join_quiet parked

(* ---- flight watchdog: heartbeat stall ----------------------------------- *)

let test_watchdog_heartbeat_stall () =
  let stop = Atomic.make false in
  let slot = Atomic.make (-1) in
  let d =
    Rt_dom.spawn (fun () ->
        let s = Rt_dom.enroll () in
        Rt_dom.beat s;
        Atomic.set slot s;
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  while Atomic.get slot < 0 do
    Domain.cpu_relax ()
  done;
  let path = Filename.temp_file "sds-fault-wd" ".dump" in
  let p = ref 0 in
  let wd =
    Flight.watchdog ~path ~interval_s:0.003 ~stalls:3
      ~progress:(fun () ->
        incr p;
        !p)
      ()
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Option.is_none (Flight.watchdog_fired wd) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.003
  done;
  Flight.watchdog_stop wd;
  Atomic.set stop true;
  join_quiet d;
  match Flight.watchdog_fired wd with
  | None -> Alcotest.fail "watchdog never fired on a stalled heartbeat"
  | Some dump_path ->
    let ic = open_in_bin dump_path in
    let dump = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove dump_path;
    Alcotest.(check bool) "dump names the stalled heartbeat" true
      (contains dump "heartbeat-stall");
    Alcotest.(check bool) "dump carries the slot-epoch table" true (contains dump "rt_dom")

(* ---- the §4.3 Interleave crash model ------------------------------------ *)

let test_crash_takeover_model () =
  let module I = Sds_check.Interleave in
  let module M = Sds_check.Models in
  let rec find_root d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else find_root parent
  in
  match find_root (Sys.getcwd ()) with
  | None -> () (* sandboxed run without sources: extraction has nothing to read *)
  | Some root ->
    let o = I.check (List.assoc "token-crash-recovery" (M.all ~root)) in
    if not (I.ok o) then Alcotest.failf "crash-takeover model not clean: %a" I.pp_outcome o;
    let o = I.check (List.assoc "token-crash-unfenced-seize" (M.mutations ~root)) in
    Alcotest.(check bool) "unfenced seize is caught" false (I.ok o)

(* ---- simulator errno surface (§4.5.4) ----------------------------------- *)

let test_sim_abort_reset () =
  let w = make_world () in
  let h = add_host w in
  let ready = ref false and aborted = ref false and rebound = ref false in
  let got_reset = ref false and got_epipe = ref false in
  ignore
    (spawn w "abort-victim" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:1 () in
         let lfd = L.socket th in
         L.bind th lfd ~port:181;
         L.listen th lfd;
         ready := true;
         let fd = L.accept th lfd in
         (* Drain the greeting so the connection is established both ways,
            then die abnormally: no FIN, no draining, just RST + Died. *)
         let b = Bytes.create 5 in
         let got = ref 0 in
         while !got < 5 do
           got := !got + L.recv th fd b ~off:!got ~len:(5 - !got)
         done;
         L.simulate_abort ctx;
         aborted := true));
  ignore
    (spawn w "rebinder" (fun () ->
         let ctx = L.init h in
         let th = L.create_thread ctx ~core:2 () in
         wait_for aborted;
         Sds_sim.Proc.sleep_ns 2_000_000;
         (* The monitor's Died cleanup released the dead pid's port. *)
         let lfd = L.socket th in
         L.bind th lfd ~port:181;
         rebound := true));
  run w (fun () ->
      wait_for ready;
      let ctx = L.init h in
      let th = L.create_thread ctx ~core:0 () in
      let fd = L.socket th in
      L.connect th fd ~dst:h ~port:181;
      ignore (L.send th fd (Bytes.of_string "hello") ~off:0 ~len:5);
      wait_for aborted;
      Sds_sim.Proc.sleep_ns 1_000_000;
      (try ignore (L.recv th fd (Bytes.create 8) ~off:0 ~len:8)
       with Unix.Unix_error (Unix.ECONNRESET, _, _) -> got_reset := true);
      (try ignore (L.send th fd (Bytes.make 4 'x') ~off:0 ~len:4)
       with Unix.Unix_error (Unix.EPIPE, _, _) -> got_epipe := true);
      wait_for rebound);
  Alcotest.(check bool) "recv after abnormal peer death raises ECONNRESET" true !got_reset;
  Alcotest.(check bool) "send after abnormal peer death raises EPIPE" true !got_epipe;
  Alcotest.(check bool) "dead pid's bound port was released" true !rebound

(* ---- plan determinism --------------------------------------------------- *)

let test_plan_determinism () =
  (* Same seed, same site, same firing visit: replay a schedule twice
     against a plain counting loop and require identical fire points. *)
  let fire_point seed =
    F.arm (F.plan ~seed [ F.Crash_before_grant ]);
    Fun.protect ~finally:F.disarm (fun () ->
        let site = F.site_of_kind F.Crash_before_grant in
        let n = ref 0 in
        (try
           for _ = 1 to 100 do
             incr n;
             if F.armed () then F.inject site
           done
         with F.Crash _ -> ());
        !n)
  in
  List.iter
    (fun seed ->
      let a = fire_point seed in
      let b = fire_point seed in
      Alcotest.(check int) (Printf.sprintf "seed %d replays identically" seed) a b;
      Alcotest.(check bool) "fires within max_skip visits" true (a <= 4))
    seeds

let suite =
  [
    Alcotest.test_case "plan: seeded schedules replay" `Quick test_plan_determinism;
    Alcotest.test_case "pool: reclaim_owner frees a dead owner's pages" `Quick
      test_pool_reclaim_owner;
    Alcotest.test_case "pool: adopt-vs-reclaim arbitration" `Quick test_pool_adopt;
    Alcotest.test_case "notify: wait_until bounds every park" `Quick test_wait_until_timeout;
    Alcotest.test_case "reaper: stalled slot dies, parked slot survives" `Quick test_reaper;
    Alcotest.test_case "flight: watchdog dumps on heartbeat stall" `Quick
      test_watchdog_heartbeat_stall;
    Alcotest.test_case "check: crash-takeover model + seize-fence mutation" `Quick
      test_crash_takeover_model;
    Alcotest.test_case "sim: abort gives ECONNRESET/EPIPE and frees the port" `Quick
      test_sim_abort_reset;
    Alcotest.test_case "chaos: 5 kinds x seed 1" `Slow (soak ~seed:1);
    Alcotest.test_case "chaos: 5 kinds x seed 2" `Slow (soak ~seed:2);
    Alcotest.test_case "chaos: 5 kinds x seed 3" `Slow (soak ~seed:3);
    Alcotest.test_case "sock: short read after a sender crash leaks nothing" `Quick
      test_short_read_sender_crash;
    Alcotest.test_case "sock: a reader crash mid-record leaks nothing" `Quick
      test_short_read_reader_crash;
    Alcotest.test_case "pool: published pages are scoped to their direction id" `Quick
      test_pool_handover_scoping;
    Alcotest.test_case "reaper: registries keep every token and connection" `Quick
      test_registries_keep_every_entry;
    Alcotest.test_case "pool: the page word arbitrates across domains" `Quick
      test_pool_word_race;
  ]
