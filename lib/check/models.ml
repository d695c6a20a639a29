(* Sds_check.Models — the tree's lock-free protocols as Interleave model
   programs, with seeded mutations.

   Since PR 10 the protocol threads are not written here: they are
   *extracted* from the annotated real sources ([@sds.model] regions in
   lib/ring/spsc_ring.ml, lib/notify/waiter.ml, lib/rt/rt_token.ml) by
   {!Extract}, under the per-model specs below.  What remains hand-written
   is exactly what has no single source region:

   - init states and observer/assertion glue (the consumer that checks the
     published record, the requester that checks the drained socket state)
     — these encode the *claims*, not the protocol;
   - the desc-handoff model, whose ownership rule spans pagepool + ring +
     libsd rather than one annotated region;
   - the seeded mutations, now expressed as transforms over the extracted
     statements (plus glue reorderings) instead of knobs on a hand copy.

   The default assembly must check clean; each mutation must make the
   checker report its defect — pinned by tests, so the detector stays
   regression-tested against the bug classes it exists to catch.  The
   extracted programs are additionally pinned to goldens under
   test/golden/ by `sdmodel check` (drift gate; see bin/sdmodel.ml). *)

open Interleave
module E = Extract

(* ---- extraction specs ---- *)

let exp_of = function
  | E.Vexp e -> e
  | _ -> raise (E.Error "rule expected a modelable value argument")

let ring_files = [ "lib/ring/spsc_ring.ml" ]
let notify_files = [ "lib/notify/waiter.ml" ]
let token_files = [ "lib/rt/rt_token.ml" ]

(* §4.2 ring publication: [tail] is the published cursor; payload and
   header bytes collapse to one unit-step plain cell each ([data], [hdr]) —
   what matters is their order against the tail store, not their contents.
   Credits and metrics are producer-local concerns, out of model. *)
let ring_spec =
  {
    E.atomics = [ ("tail", "tail") ];
    atomic_elide = [ "credits" ];
    plains = [];
    plain_elide = [ "span"; "prod"; "enqueued"; "enq_bytes"; "was_full"; "rx_waiter" ];
    ints = [ ("need", 1) ];
    calls =
      [
        ( "blit_in",
          E.Custom
            (fun o _ ->
              o.emit (Plain_store ("data", Int 1));
              E.Vopaque "unit") );
        ( "write_header",
          E.Custom
            (fun o _ ->
              o.emit (Plain_store ("hdr", Int 1));
              E.Vopaque "unit") );
        ("stamp_pub", E.Ignore);
        ("notify", E.Ignore);
      ];
  }

(* §4.4 eventcount: [seq]/[state] are the waiter's own atomics; the
   caller's readiness predicate [ready ()] becomes an atomic load of the
   model variable [cond] (the notifier glue sets it).  Locks, condvar
   waits and the policy/metrics machinery are out of model — the condvar
   edge is what [Block_until] means. *)
let waiter_spec =
  {
    E.atomics = [ ("seq", "seq"); ("state", "state") ];
    atomic_elide = [];
    plains = [];
    plain_elide = [ "m"; "c"; "policy" ];
    ints = [];
    calls =
      [
        ( "ready",
          E.Custom
            (fun o _ ->
              let r = o.fresh "c" in
              o.emit (Load ("cond", r));
              E.Vexp (Reg r)) );
        ("lock", E.Ignore);
        ("unlock", E.Ignore);
        ("broadcast", E.Ignore);
        ("wait", E.Ignore);
        ("incr", E.Ignore);
        ("emit", E.Ignore);
        ("observe", E.Ignore);
        ("observe_wake", E.Ignore);
        ("monotonic_ns", E.Ignore);
        ("on_park", E.Ignore);
        ("on_wake", E.Ignore);
      ];
  }

(* §4.2/§4.3 token: the packed state word is [tok], encoded 1 = held by
   domain 1, 9 = held by 1 with 2's request posted, 2 = held by 2 (the
   real word packs holder/requester/epoch the same way; the unit-step
   abstraction keeps three inhabited points).  [Token_proto]'s pure
   pack/unpack helpers are identities or constants under that encoding;
   [seizable] folds the epoch parity check into an atomic load of the
   holder's liveness bit [alive].  Retry recursion is elided — the checker
   explores each CAS outcome once; the retry re-enters the same region. *)
let token_spec =
  {
    E.atomics = [ ("state", "tok") ];
    atomic_elide = [];
    plains = [];
    plain_elide = [ "fast_owner"; "handoffs" ];
    ints = [ ("dom", 2) ];
    calls =
      [
        ("proto", E.Arg 0);
        ("compose", E.Arg 0);
        ("grant", E.Const 2);
        ("seize", E.Const 2);
        ("requester", E.Const 2);
        ("epoch_of", E.Const 0);
        ( "should_release",
          E.Custom (fun _ vs -> E.Vcond (Rel (Eq, exp_of (List.hd vs), Int 9))) );
        ( "seizable",
          E.Custom
            (fun o vs ->
              let a = o.fresh "a" in
              o.emit (Load ("alive", a));
              E.Vcond (And (Rel (Eq, exp_of (List.hd vs), Int 9), Rel (Eq, Reg a, Int 0)))) );
        ("armed", E.Const 0);
        ("inject", E.Ignore);
        ("incr", E.Ignore);
        ("emit_n", E.Ignore);
        ("wake_waiters", E.Ignore);
        ("grant_now", E.Ignore);
        ("try_seize", E.Ignore);
      ];
  }

(* ---- mutation transforms ----

   Each seeded mutation rewrites the *extracted* statements — the same
   programs the clean models check — rather than flipping a knob on a hand
   copy, so the mutations stay meaningful as the real code evolves. *)

(* Bottom-up rewrite of statement lists (through If/While branches). *)
let rec rewrite f stmts =
  f
    (List.map
       (fun s ->
         match s with
         | If (c, a, b) -> If (c, rewrite f a, rewrite f b)
         | While (c, b) -> While (c, rewrite f b)
         | s -> s)
       stmts)

let map_stmt f = rewrite (List.map f)

(* The field stops being atomic: every access to [var] in the fragment
   turns plain.  (Narrower than-the-store mutations would be masked by the
   guard load — any atomic access to a location merges clocks under the
   OCaml memory model, so a surviving atomic load would still publish the
   writes the lost fence was ordering.) *)
let plainify var =
  rewrite
    (List.concat_map (fun s ->
         match s with
         | Load (v, r) when v = var -> [ Plain_load (v, r) ]
         | Store (v, e) when v = var -> [ Plain_store (v, e) ]
         | Cas (v, _, set, r) when v = var -> [ Plain_store (v, set); Set (r, Int 1) ]
         | Faa (v, d, r) when v = var ->
           [ Plain_load (v, r); Plain_store (v, Add (Reg r, d)) ]
         | s -> [ s ]))

(* Publish the tail with a plain store (drops the release edge only; the
   guard load of [tail] precedes the payload writes, so it publishes
   nothing that matters). *)
let plain_tail_store =
  map_stmt (function Store ("tail", e) -> Plain_store ("tail", e) | s -> s)

(* Move the header write after the tail publication. *)
let header_after_publish stmts =
  let is_hdr = function Plain_store ("hdr", _) -> true | _ -> false in
  let is_pub = function Store ("tail", _) -> true | _ -> false in
  let hdr = List.filter is_hdr stmts in
  rewrite
    (fun l ->
      List.concat_map (fun s ->
          if is_hdr s then [] else if is_pub s then s :: hdr else [ s ])
        l)
    stmts

(* Delete the post-prepare re-check: the [load cond; if ...] pair collapses
   to its park branch. *)
let drop_recheck =
  rewrite (fun l ->
      let rec go = function
        | Load ("cond", r) :: If (Rel (Ne, Reg r', Int 0), _, els) :: rest when r = r' ->
          els @ go rest
        | s :: rest -> s :: go rest
        | [] -> []
      in
      go l)

(* ---- assembly: extracted protocol threads + hand-written glue ---- *)

let keep = fun s -> s

(* §4.2 ring publication.  Producer extracted from [Spsc_ring.try_enqueue]'s
   publication region; the consumer is observer glue: read tail (the
   acquire edge) and, if it observed the publication, assert the header
   and payload writes are visible. *)
let ring_publication ~root ?(mutate = keep) () =
  let producer =
    mutate (E.extract ~root ~files:ring_files ~spec:ring_spec "ring-publication/producer")
  in
  let consumer =
    [
      Load ("tail", "t");
      If
        ( Rel (Eq, Reg "t", Int 1),
          [
            Plain_load ("hdr", "h");
            Plain_load ("data", "d");
            Assert (Rel (Eq, Reg "h", Int 1), "consumer observed tail but header is unwritten");
            Assert (Rel (Eq, Reg "d", Int 1), "consumer observed tail but payload is unwritten");
          ],
          [] );
    ]
  in
  {
    globals = [ ("data", 0); ("hdr", 0); ("tail", 0) ];
    threads = [ { name = "producer"; body = producer }; { name = "consumer"; body = consumer } ];
  }

(* §4.4 park/notify.  The waiter's prepare/re-check/commit episode is
   extracted from [Waiter.park_once] (which inlines the annotated
   prepare_wait/cancel/commit_wait protocol steps); the notifier from
   [Waiter.notify].  Glue: the caller's pre-park poll, and the notifier
   making the condition true before notifying — the Dekker pair the
   lost-wakeup argument rests on. *)
let park_notify ~root ?(mutate = keep) () =
  let park =
    mutate (E.extract ~root ~files:notify_files ~spec:waiter_spec "park-notify/waiter")
  in
  let notifier =
    Store ("cond", Int 1)
    :: E.extract ~root ~files:notify_files ~spec:waiter_spec "park-notify/notifier"
  in
  let waiter = [ Load ("cond", "c0"); If (Rel (Eq, Reg "c0", Int 1), [], park) ] in
  {
    globals = [ ("cond", 0); ("state", 0); ("seq", 0) ];
    threads = [ { name = "waiter"; body = waiter }; { name = "notifier"; body = notifier } ];
  }

(* §4.6 page-descriptor handoff (lib/vm/pagepool.ml + libsd) — still
   hand-written: the ownership rule spans the pool, the ring and libsd
   rather than one annotatable region.

   Sender: fill the page (plain store), then publish the descriptor on the
   ring (atomic store — stands in for the tail publication, which is the
   ownership-transfer edge).  Receiver: wait for the descriptor, read the
   payload and check it, then drop the reference ([rc] := 0 — the last
   release; [rc] stands for the count in the page's state word, which the
   last release stores whole as free).  Recycler: wait for [rc] = 0, then
   reuse the page (plain store of new data) — stands in for a later
   [alloc] by anyone.

   [release_before_read = true] is the use-after-release bug: the receiver
   drops its reference *before* reading the payload.  The recycler can then
   run between the release and the read — the checker must report the race
   on [page] (and the corrupted-payload assertion can fire). *)
let desc_handoff ?(release_before_read = false) () =
  let read_and_check =
    [
      Plain_load ("page", "v");
      Assert (Rel (Eq, Reg "v", Int 1), "receiver read a recycled page (use after release)");
    ]
  in
  let release = [ Store ("rc", Int 0) ] in
  let receiver =
    [ Block_until (Rel (Eq, Var "desc", Int 1)) ]
    @ (if release_before_read then release @ read_and_check else read_and_check @ release)
  in
  {
    globals = [ ("page", 0); ("desc", 0); ("rc", 1) ];
    threads =
      [
        { name = "sender"; body = [ Plain_store ("page", Int 1); Store ("desc", Int 1) ] };
        { name = "receiver"; body = receiver };
        {
          name = "recycler";
          body = [ Block_until (Rel (Eq, Var "rc", Int 0)); Plain_store ("page", Int 2) ];
        };
      ];
  }

(* §4.2 token handoff.  The grant is extracted from [Rt_token.grant_now];
   glue supplies the holder's serving loop — a few in-flight operations on
   the token-guarded socket state ([data]), each followed by the
   [Rt_token.boundary] poll (one load; the grant region runs if a request
   is posted), ending in the parked wait — and the requester, which polls
   the fast path once, posts its request, and asserts it resumes only
   after the drain.  The per-op boundary polls are where the real
   interleaving space lives (every op of a busy holder races the
   requester's post), which is exactly what the DPOR reduction is measured
   against.

   [drain_before_grant = false] is the early-grant bug (glue reorder: the
   in-flight op completes only after the grant region runs). *)
let token_handoff ~root ?(mutate = keep) ?(drain_before_grant = true) () =
  let grant =
    mutate (E.extract ~root ~files:token_files ~spec:token_spec "token-handoff/grant")
  in
  let op = [ Plain_store ("data", Int 1) ] in
  let parked = Block_until (Rel (Eq, Var "tok", Int 9)) :: grant in
  (* serve n: n operation/boundary rounds, then park for the request. *)
  let rec serve n =
    if n = 0 then parked
    else
      let b = "b" ^ string_of_int n in
      op @ [ Load ("tok", b); If (Rel (Eq, Reg b, Int 9), grant, serve (n - 1)) ]
  in
  let holder = if drain_before_grant then serve 5 else parked @ op in
  let requester =
    [
      Load ("tok", "fast");  (* the acquire fast path: one load, no post *)
      Cas ("tok", Int 1, Int 9, "posted");
      Assert (Rel (Eq, Reg "posted", Int 1), "takeover request CAS failed against a held token");
      Block_until (Rel (Eq, Var "tok", Int 2));
      Plain_load ("data", "d");
      Assert (Rel (Eq, Reg "d", Int 1), "requester resumed before the holder drained in flight");
      Plain_store ("data", Int 2);
    ]
  in
  {
    globals = [ ("tok", 1); ("data", 0) ];
    threads =
      [ { name = "holder"; body = holder }; { name = "requester"; body = requester } ];
  }

(* §4.3 crash takeover.  The seize is extracted from [Rt_token.try_seize]
   (its [seizable] guard folding the epoch parity check into the [alive]
   load); glue supplies the dying holder — last plain write, then the
   epoch retire, then silence — and the same posted requester. *)
let token_crash_recovery ~root ?(mutate = keep) () =
  let seize =
    mutate (E.extract ~root ~files:token_files ~spec:token_spec "token-crash/seize")
  in
  let holder =
    [
      Plain_store ("data", Int 1);  (* the dying incarnation's last write *)
      Block_until (Rel (Eq, Var "tok", Int 9));
      Store ("alive", Int 0);  (* declare_dead's epoch retire; then silence *)
    ]
  in
  let reaper = Block_until (Rel (Eq, Var "alive", Int 0)) :: seize in
  let requester =
    [
      Cas ("tok", Int 1, Int 9, "posted");
      Assert (Rel (Eq, Reg "posted", Int 1), "takeover request CAS failed against a held token");
      Block_until (Rel (Eq, Var "tok", Int 2));
      Plain_load ("data", "d");
      Assert (Rel (Eq, Reg "d", Int 1), "survivor resumed without the dead holder's writes");
      Plain_store ("data", Int 2);
    ]
  in
  {
    globals = [ ("tok", 1); ("data", 0); ("alive", 1) ];
    threads =
      [
        { name = "holder"; body = holder };
        { name = "reaper"; body = reaper };
        { name = "requester"; body = requester };
      ];
  }

(* Apply a statement transform to one named thread of a finished program —
   for mutations whose blast radius is a whole thread (a field losing its
   atomicity), not just the extracted fragment. *)
let mutate_thread name f p =
  {
    p with
    threads =
      List.map
        (fun t -> if t.name = name then { t with body = f t.body } else t)
        p.threads;
  }

(* ---- the suites ---- *)

let all ~root =
  [
    ("ring-publication", ring_publication ~root ());
    ("park-notify", park_notify ~root ());
    ("desc-handoff", desc_handoff ());
    ("token-handoff", token_handoff ~root ());
    ("token-crash-recovery", token_crash_recovery ~root ());
  ]

(* The golden-gated subset: programs whose protocol threads are extracted
   from annotated sources (desc-handoff stays hand-written). *)
let extracted ~root =
  List.filter (fun (n, _) -> n <> "desc-handoff") (all ~root)

let mutations ~root =
  [
    ("ring-publication-unfenced", ring_publication ~root ~mutate:plain_tail_store ());
    ("ring-publication-header-late", ring_publication ~root ~mutate:header_after_publish ());
    ("park-notify-no-recheck", park_notify ~root ~mutate:drop_recheck ());
    ("desc-handoff-release-early", desc_handoff ~release_before_read:true ());
    (* The whole holder side loses the token word's atomicity — boundary
       polls included.  Mutating the grant fragment alone would be masked:
       the boundary's surviving atomic load would still merge the holder's
       clock into the token word and publish the drained writes. *)
    ( "token-handoff-unfenced",
      mutate_thread "holder" (plainify "tok") (token_handoff ~root ()) );
    ("token-handoff-early-grant", token_handoff ~root ~drain_before_grant:false ());
    ("token-crash-unfenced-seize", token_crash_recovery ~root ~mutate:(plainify "tok") ());
  ]
