(* Real shared page pool (§4.6): one Bigarray both endpoints of a channel
   can address, carved into 4 KiB pages, so a "remap" is a descriptor
   handoff instead of a payload blit.

   Ownership is a per-page refcount.  The sender allocates (rc := 1),
   fills the page, and publishes a descriptor on the ring; publication is
   the ownership transfer — the sender never touches the page again, the
   receiver releases it after consuming.  Sharing (e.g. multicast or COW
   views) goes through [incref].

   Refcounts are SC atomics, one cell per page, with keep-alive spacer
   allocations between neighbours so two pages' refcounts never share a
   cache line (same padding idiom as the ring's prod/cons records).

   Allocation is contention-free in steady state: each domain holds a
   [handle] with a private free-list cache and moves pages to/from the
   mutex-protected global stack only in batches of [batch]. *)

module Obs = Sds_obs.Obs

let page_size = 4096
let default_pages = 8192
let batch = 64
let cache_cap = 2 * batch

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* ---- metrics (registered once; cheap sharded cells) -------------------- *)

let m_allocs = Obs.Metrics.counter "pool.allocs"
let m_releases = Obs.Metrics.counter "pool.releases"
let m_refills = Obs.Metrics.counter "pool.refills"
let m_spills = Obs.Metrics.counter "pool.spills"
let m_exhausted = Obs.Metrics.counter "pool.exhausted"
let m_reclaimed = Obs.Metrics.counter "pool.reclaimed_pages"
let g_pages = Obs.Metrics.gauge "pool.pages"
let g_in_use = Obs.Metrics.gauge "pool.pages_in_use"

(* Owner-cell sentinels: [-1] = unowned (free, or allocated without an
   owner id), [-2] = mid-reclamation marker (see [reclaim_owner]). *)
let no_owner = -1
let reclaiming = -2

type handle = {
  pool : t;
  ids : int array;  (* private free-page cache, a stack *)
  mutable top : int;
  mutable owner : int;  (* stamped into pages this handle allocates *)
}

and t = {
  data : buf;
  npages : int;
  rc : int Atomic.t array;
  _rc_pads : int array array;  (* keep-alive: spacers interleaved at build time *)
  owners : int Atomic.t array;  (* per-page owner stamp; crash reclamation *)
  mu : Mutex.t;
  free : int array;  (* global free stack, guarded by [mu] *)
  mutable free_top : int;
  handles : handle option array;  (* slots, guarded by [mu]; read racily by [occupancy] *)
  mutable nhandles : int;
  mutable dls : handle Domain.DLS.key option;  (* set once at [create] *)
}

let max_handles = 64

(* Live-pool registry for the flight recorder (weak, so observability never
   extends a pool's lifetime — same discipline as the ring's registry). *)
let live : t Sds_obs.Registry.t = Sds_obs.Registry.create 8

let create ?(pages = default_pages) () =
  if pages <= 0 then invalid_arg "Pagepool.create: pages must be positive";
  let data = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (pages * page_size) in
  let rc = Array.make pages (Atomic.make 0) in
  let pads = Array.make pages [||] in
  for i = 0 to pages - 1 do
    rc.(i) <- Atomic.make 0;
    (* 7 words of spacer between successive refcount cells *)
    pads.(i) <- Array.make 7 0
  done;
  Obs.Metrics.gauge_add g_pages pages;
  let owners = Array.make pages (Atomic.make no_owner) in
  for i = 0 to pages - 1 do
    owners.(i) <- Atomic.make no_owner
  done;
  let t =
    {
      data;
      npages = pages;
      rc;
      _rc_pads = pads;
      owners;
      mu = Mutex.create ();
      free = Array.init pages (fun i -> pages - 1 - i);
      free_top = pages;
      handles = Array.make max_handles None;
      nhandles = 0;
      dls = None;
    }
  in
  Sds_obs.Registry.add live t;
  t

let pages t = t.npages
let buffer t = t.data
let page_base page = page * page_size

let handle t =
  Mutex.protect t.mu (fun () ->
      let rec free_slot i =
        if i = max_handles then invalid_arg "Pagepool.handle: too many handles"
        else match t.handles.(i) with None -> i | Some _ -> free_slot (i + 1)
      in
      let slot = free_slot 0 in
      let h = { pool = t; ids = Array.make cache_cap 0; top = 0; owner = no_owner } in
      t.handles.(slot) <- Some h;
      t.nhandles <- t.nhandles + 1;
      h)

(* A domain's exit hands its handle back: the cached free pages go to the
   shared stack (else they would be stranded with the dead cache) and the
   slot is reused by the next [handle]. *)
let retire h =
  let t = h.pool in
  Mutex.protect t.mu (fun () ->
      while h.top > 0 do
        h.top <- h.top - 1;
        t.free.(t.free_top) <- h.ids.(h.top);
        t.free_top <- t.free_top + 1
      done;
      Array.iteri
        (fun i -> function Some h' when h' == h -> t.handles.(i) <- None | _ -> ())
        t.handles;
      t.nhandles <- t.nhandles - 1)

(* The calling domain's handle, created on first use and retired when the
   domain exits.  The sim runs many processes on one domain — they share
   one handle, which is exactly the single-owner condition (one OS
   thread). *)
let domain_handle t =
  let key =
    match t.dls with
    | Some key -> key
    | None ->
      Mutex.protect t.mu (fun () ->
          match t.dls with
          | Some key -> key
          | None ->
            let key =
              Domain.DLS.new_key (fun () ->
                  let h = handle t in
                  Domain.at_exit (fun () -> retire h);
                  h)
            in
            t.dls <- Some key;
            key)
  in
  Domain.DLS.get key

(* ---- free-list movement ------------------------------------------------ *)

(* Pull up to [batch] pages from the global stack into [h]; cold path. *)
let refill h =
  let t = h.pool in
  Mutex.lock t.mu;
  let k = if t.free_top < batch then t.free_top else batch in
  for _ = 1 to k do
    t.free_top <- t.free_top - 1;
    h.ids.(h.top) <- t.free.(t.free_top);
    h.top <- h.top + 1
  done;
  Mutex.unlock t.mu;
  if k > 0 then Obs.Metrics.incr m_refills;
  k

(* Push [batch] pages back to the global stack; cold path. *)
let spill h =
  let t = h.pool in
  Mutex.lock t.mu;
  for _ = 1 to batch do
    h.top <- h.top - 1;
    t.free.(t.free_top) <- h.ids.(h.top);
    t.free_top <- t.free_top + 1
  done;
  Mutex.unlock t.mu;
  Obs.Metrics.incr m_spills

(* ---- allocate / release / share ---------------------------------------- *)

let no_page = -1

(* Stamp the handle with a crash-recovery owner id (an [Rt_dom] slot).
   Pages allocated through a stamped handle carry the id in their owner
   cell until the last release, so [reclaim_owner] can find them if the
   owner dies mid-flight. *)
let set_owner h owner =
  if owner < 0 then invalid_arg "Pagepool.set_owner: negative owner";
  if h.owner <> owner then h.owner <- owner

let[@sds.hot] alloc h =
  if h.top = 0 && refill h = 0 then begin
    Obs.Metrics.incr m_exhausted;
    no_page
  end
  else begin
    h.top <- h.top - 1;
    let page = Array.unsafe_get h.ids h.top in
    Atomic.set h.pool.rc.(page) 1;
    (* Owner stamp after rc: the page only matters to a reclaimer once
       rc > 0, and the reclaimer re-checks rc after winning the owner
       cell, so the two plain-ordered stores cannot leak a page. *)
    Atomic.set h.pool.owners.(page) h.owner;
    Obs.Metrics.incr m_allocs;
    Obs.Metrics.gauge_add g_in_use 1;
    page
  end

let check_page t page name =
  if page < 0 || page >= t.npages then invalid_arg name

let incref t page =
  check_page t page "Pagepool.incref: bad page id";
  let old = Atomic.fetch_and_add t.rc.(page) 1 in
  if old <= 0 then begin
    ignore (Atomic.fetch_and_add t.rc.(page) (-1));
    invalid_arg "Pagepool.incref: page is free"
  end

let refcount t page =
  check_page t page "Pagepool.refcount: bad page id";
  Atomic.get t.rc.(page)

(* Drop one reference via a handle; the last release recycles the page into
   the handle's cache (spilling a batch when the cache is full). *)
let[@sds.hot] release h page =
  let t = h.pool in
  check_page t page "Pagepool.release: bad page id";
  let old = Atomic.fetch_and_add t.rc.(page) (-1) in
  if old <= 0 then begin
    ignore (Atomic.fetch_and_add t.rc.(page) 1);
    invalid_arg "Pagepool.release: double release"
  end;
  Obs.Metrics.incr m_releases;
  Obs.Metrics.gauge_add g_in_use (-1);
  if old = 1 then begin
    (* Clear the owner stamp *before* recycling, so a page sitting in a
       cache with rc = 0 can never match a dead owner and be pushed to
       the global free stack a second time by [reclaim_owner]. *)
    Atomic.set t.owners.(page) no_owner;
    if h.top = cache_cap then spill h;
    Array.unsafe_set h.ids h.top page;
    h.top <- h.top + 1
  end

(* Handle-free release for callers without a cache (cleanup paths, foreign
   pools); always goes through the global stack. *)
let release_global t page =
  check_page t page "Pagepool.release: bad page id";
  let old = Atomic.fetch_and_add t.rc.(page) (-1) in
  if old <= 0 then begin
    ignore (Atomic.fetch_and_add t.rc.(page) 1);
    invalid_arg "Pagepool.release: double release"
  end;
  Obs.Metrics.incr m_releases;
  Obs.Metrics.gauge_add g_in_use (-1);
  if old = 1 then begin
    Atomic.set t.owners.(page) no_owner;
    Mutex.lock t.mu;
    t.free.(t.free_top) <- page;
    t.free_top <- t.free_top + 1;
    Mutex.unlock t.mu
  end

(* ---- crash reclamation (§4.3) ------------------------------------------ *)

let owner t page =
  check_page t page "Pagepool.owner: bad page id";
  let o = Atomic.get t.owners.(page) in
  if o < 0 then no_owner else o

(* Publish a staged page: re-stamp it from [from] (the staging slot) to
   [to_] (the id its receiver adopts from).  The CAS is the arbitration
   with [reclaim_owners]: [false] iff a reclaimer already took the page
   off [from], and then the payload is gone. *)
let hand_over t ~page ~from ~to_ =
  if from < 0 || to_ < 0 then invalid_arg "Pagepool.hand_over: negative owner";
  check_page t page "Pagepool.hand_over: bad page id";
  Atomic.get t.rc.(page) > 0 && Atomic.compare_and_set t.owners.(page) from to_

(* Take ownership of an in-flight page published under [from] — the
   receiver side of a descriptor handoff calls this before touching the
   payload, so a crash of the *sender* after publication can no longer
   reclaim the page out from under the survivor.  A page under any other
   stamp is not this handoff's page (it was reclaimed and perhaps
   allocated again), so it is refused; so is one a reclaimer holds
   ([reclaiming]) or a free one.  Re-adopting a page already ours is a
   no-op. *)
let try_adopt t ~page ~from ~owner =
  if from < 0 || owner < 0 then invalid_arg "Pagepool.try_adopt: negative owner";
  check_page t page "Pagepool.try_adopt: bad page id";
  let rec go () =
    let o = Atomic.get t.owners.(page) in
    if Atomic.get t.rc.(page) <= 0 then false
    else if o = owner then true
    else if o <> from then false
    else Atomic.compare_and_set t.owners.(page) from owner || go ()
  in
  go ()

(* Every page still stamped with [owner] (racy snapshot, debugging aid). *)
let owned_pages t ~owner =
  if owner < 0 then invalid_arg "Pagepool.owned_pages: negative owner";
  let out = ref [] in
  for page = t.npages - 1 downto 0 do
    if Atomic.get t.owners.(page) = owner && Atomic.get t.rc.(page) > 0 then
      out := page :: !out
  done;
  !out

(* Force-free, in one pass over the pool, every page still stamped with
   one of [owners] (dead incarnations, abandoned connections).  Races
   against survivors adopting in-flight pages and senders handing staged
   pages over: the owner-cell CAS to the [reclaiming] marker is the
   arbitration — exactly one party wins each page, and a page that moves
   between two of [owners] during the pass is caught under either stamp.
   The rc exchange (not decrement) forgets any extra refs the dead
   incarnation held via [incref]; survivors must have adopted before
   taking their own ref.  Idempotent: a second call finds no pages
   stamped with [owners].  Returns the number of pages freed. *)
let reclaim_owners t ~owners =
  if List.exists (fun o -> o < 0) owners then invalid_arg "Pagepool.reclaim_owners: negative owner";
  let freed = ref 0 in
  for page = 0 to t.npages - 1 do
    let o = Atomic.get t.owners.(page) in
    if o >= 0 && List.mem o owners && Atomic.compare_and_set t.owners.(page) o reclaiming then begin
      let rc = Atomic.exchange t.rc.(page) 0 in
      if rc > 0 then begin
        incr freed;
        Obs.Metrics.incr m_reclaimed;
        Obs.Metrics.gauge_add g_in_use (-1);
        Mutex.lock t.mu;
        t.free.(t.free_top) <- page;
        t.free_top <- t.free_top + 1;
        Mutex.unlock t.mu
      end;
      Atomic.set t.owners.(page) no_owner
    end
  done;
  !freed

let reclaim_owner t ~owner = reclaim_owners t ~owners:[ owner ]

(* ---- occupancy --------------------------------------------------------- *)

(* Approximate free-page count: the global stack depth plus every handle's
   cache depth, read without locks.  Each addend is single-writer, so the
   worst case is a slightly stale sum — fine for a pressure signal. *)
let free_pages t =
  let n = ref t.free_top in
  for i = 0 to max_handles - 1 do
    match t.handles.(i) with Some h -> n := !n + h.top | None -> ()
  done;
  if !n < 0 then 0 else if !n > t.npages then t.npages else !n

let occupancy t =
  float_of_int (t.npages - free_pages t) /. float_of_int t.npages

(* Flight-recorder state provider: occupancy of every live pool. *)
let () =
  Sds_obs.Flight.register_state "pagepool" (fun () ->
      let b = Buffer.create 128 in
      Sds_obs.Registry.iteri live (fun i p ->
          Buffer.add_string b
            (Printf.sprintf "pool=%d pages=%d free=%d handles=%d occupancy=%.3f\n" i p.npages
               (free_pages p) p.nhandles (occupancy p)));
      Buffer.contents b)

(* ---- data access ------------------------------------------------------- *)

let check_live t page name =
  check_page t page name;
  if Atomic.get t.rc.(page) <= 0 then
    invalid_arg (name ^ ": use after release")

(* Zero-copy view of [len] bytes at [off] inside [page]; the caller must
   hold a reference for the lifetime of the slice. *)
let slice t ~page ~off ~len =
  check_live t page "Pagepool.slice";
  if off < 0 || len < 0 || off + len > page_size then
    invalid_arg "Pagepool.slice: bad range";
  Bigarray.Array1.sub t.data ((page * page_size) + off) len

(* Staging and landing blits: every check runs first — the page is live,
   [off, off+len) lies inside it, and the caller's range lies inside its
   [bytes] — and only then does one C [memcpy] move the payload.  The stub
   checks nothing itself; sdlint's c-stub-confined rule keeps this module
   its only binder.  The range tests subtract instead of add, so no offset
   can overflow its way past them. *)

external memcpy_to_page : buf -> int -> Bytes.t -> int -> int -> unit = "sds_pagepool_memcpy"
[@@noalloc]

external memcpy_from_page : Bytes.t -> int -> buf -> int -> int -> unit = "sds_pagepool_memcpy"
[@@noalloc]

let[@sds.hot] blit_from_bytes t ~src ~src_off ~page ~off ~len =
  check_live t page "Pagepool.blit_from_bytes";
  if off < 0 || len < 0 || off > page_size - len then
    invalid_arg "Pagepool.blit_from_bytes: bad range";
  if src_off < 0 || src_off > Bytes.length src - len then
    invalid_arg "Pagepool.blit_from_bytes: bad source range";
  memcpy_to_page t.data ((page * page_size) + off) src src_off len

let[@sds.hot] blit_to_bytes t ~page ~off ~dst ~dst_off ~len =
  check_live t page "Pagepool.blit_to_bytes";
  if off < 0 || len < 0 || off > page_size - len then
    invalid_arg "Pagepool.blit_to_bytes: bad range";
  if dst_off < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Pagepool.blit_to_bytes: bad destination range";
  memcpy_from_page dst dst_off t.data ((page * page_size) + off) len

(* 63-bit int load/store at a byte position, little-endian, as one 8-byte
   access; used by the bench to stamp/checksum page payloads without
   materialising Bytes.  Bit 63 is dropped on the round trip (OCaml ints
   are 63-bit anyway), and [get_int_le] also clears bit 62, so the value
   read back is [v land max_int]. *)

external bigstring_get64u : buf -> int -> int64 = "%caml_bigstring_get64u"
external bigstring_set64u : buf -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@sds.hot] set_int_le t pos v =
  if pos < 0 || pos > Bigarray.Array1.dim t.data - 8 then
    invalid_arg "Pagepool.set_int_le: out of range";
  let w = Int64.of_int v in
  bigstring_set64u t.data pos (if Sys.big_endian then bswap64 w else w)

let[@sds.hot] get_int_le t pos =
  if pos < 0 || pos > Bigarray.Array1.dim t.data - 8 then
    invalid_arg "Pagepool.get_int_le: out of range";
  let w = bigstring_get64u t.data pos in
  Int64.to_int (if Sys.big_endian then bswap64 w else w) land max_int
