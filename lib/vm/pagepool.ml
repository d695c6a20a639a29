(* Real shared page pool (§4.6): one Bigarray both endpoints of a channel
   can address, carved into 4 KiB pages, so a "remap" is a descriptor
   handoff instead of a payload blit.

   A page's whole state is one word: its owner stamp and its reference
   count.  The sender allocates (count 1 under its handle's stamp), fills
   the page, and publishes a descriptor on the ring; publication is the
   ownership transfer — the sender never touches the page again, the
   receiver releases it after consuming.  Sharing (e.g. multicast or COW
   views) goes through [incref].  Every transition is one store ([alloc])
   or one CAS on that word, so exactly one party wins each race.

   The words are SC atomics, one cell per page, with keep-alive spacer
   allocations between neighbours so two pages' words never share a cache
   line (same padding idiom as the ring's prod/cons records).

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

(* ---- the page word ----------------------------------------------------- *)

(* [(owner + 1) lsl count_bits lor count]: the owner stamp in the high 46
   bits (room for every [Rt_dom] slot and per-connection direction id;
   [no_owner] stamps 0) and the reference count in the low 16.  A live
   page's count is at least 1, and the release or reclaim that ends it
   stores [free_word] whole, so a free page reads owner [no_owner]: a
   match on a real (non-negative) owner id implies a live page. *)
let no_owner = -1
let count_bits = 16
let max_count = (1 lsl count_bits) - 1
let max_owner = (max_int lsr count_bits) - 1
let free_word = 0

let pack owner count = ((owner + 1) lsl count_bits) lor count
let count w = w land max_count
let owner_of w = (w lsr count_bits) - 1

type handle = {
  pool : t;
  ids : int array;  (* private free-page cache, a stack *)
  mutable top : int;
  mutable owner : int;  (* stamped into pages this handle allocates *)
}

and t = {
  data : buf;
  npages : int;
  words : int Atomic.t array;  (* per-page state word, see above *)
  _pads : int array array;  (* keep-alive: spacers interleaved at build time *)
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
  let words = Array.make pages (Atomic.make free_word) in
  let pads = Array.make pages [||] in
  for i = 0 to pages - 1 do
    words.(i) <- Atomic.make free_word;
    (* 7 words of spacer between successive page words *)
    pads.(i) <- Array.make 7 0
  done;
  Obs.Metrics.gauge_add g_pages pages;
  let t =
    {
      data;
      npages = pages;
      words;
      _pads = pads;
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

(* Push one page on the global stack (callers without a cache). *)
let push_global t page =
  Mutex.lock t.mu;
  t.free.(t.free_top) <- page;
  t.free_top <- t.free_top + 1;
  Mutex.unlock t.mu

(* ---- allocate / release / share ---------------------------------------- *)

let no_page = -1

let check_owner owner name =
  if owner < 0 then invalid_arg (name ^ ": negative owner");
  if owner > max_owner then invalid_arg (name ^ ": owner id too large")

(* Stamp the handle with a crash-recovery owner id (an [Rt_dom] slot).
   Pages allocated through a stamped handle carry the id in their word
   until the last release, so [reclaim_owner] can find them if the owner
   dies mid-flight. *)
let set_owner h owner =
  check_owner owner "Pagepool.set_owner";
  if h.owner <> owner then h.owner <- owner

(* A cached page is free and reachable by no other handle, and nothing
   writes a free word, so one store claims it. *)
let[@sds.hot] alloc h =
  if h.top = 0 && refill h = 0 then begin
    Obs.Metrics.incr m_exhausted;
    no_page
  end
  else begin
    h.top <- h.top - 1;
    let page = Array.unsafe_get h.ids h.top in
    Atomic.set h.pool.words.(page) (pack h.owner 1);
    Obs.Metrics.incr m_allocs;
    Obs.Metrics.gauge_add g_in_use 1;
    page
  end

let check_page t page name =
  if page < 0 || page >= t.npages then invalid_arg name

let rec add_ref words page =
  let w = Atomic.get words.(page) in
  if w = free_word then invalid_arg "Pagepool.incref: page is free";
  if count w = max_count then invalid_arg "Pagepool.incref: too many references";
  if not (Atomic.compare_and_set words.(page) w (w + 1)) then add_ref words page

let incref t page =
  check_page t page "Pagepool.incref: bad page id";
  add_ref t.words page

let refcount t page =
  check_page t page "Pagepool.refcount: bad page id";
  count (Atomic.get t.words.(page))

(* One CAS drops one reference; the last one stores [free_word], stamp and
   all, so a recycled page can never match an owner [reclaim_owners] is
   given.  [true] iff it was the last. *)
let[@sds.hot] rec drop_ref words page =
  let w = Atomic.get words.(page) in
  if w = free_word then invalid_arg "Pagepool.release: double release";
  let last = count w = 1 in
  if Atomic.compare_and_set words.(page) w (if last then free_word else w - 1) then last
  else drop_ref words page

let[@sds.hot] unref t page =
  check_page t page "Pagepool.release: bad page id";
  let last = drop_ref t.words page in
  Obs.Metrics.incr m_releases;
  if last then Obs.Metrics.gauge_add g_in_use (-1);
  last

(* Drop one reference via a handle; the last release recycles the page into
   the handle's cache (spilling a batch when the cache is full). *)
let[@sds.hot] release h page =
  if unref h.pool page then begin
    if h.top = cache_cap then spill h;
    Array.unsafe_set h.ids h.top page;
    h.top <- h.top + 1
  end

(* Handle-free release for callers without a cache (cleanup paths, foreign
   pools); always goes through the global stack. *)
let release_global t page = if unref t page then push_global t page

(* ---- crash reclamation (§4.3) ------------------------------------------ *)

let owner t page =
  check_page t page "Pagepool.owner: bad page id";
  owner_of (Atomic.get t.words.(page))

(* Re-stamp a live page from [from] to [to_], keeping its count; the CAS
   retries only when the word moved but still carries [from].  [false]
   once the page is free or under any other stamp. *)
let rec restamp words page from to_ =
  let w = Atomic.get words.(page) in
  owner_of w = from
  && (Atomic.compare_and_set words.(page) w (pack to_ (count w)) || restamp words page from to_)

(* Publish a staged page: re-stamp it from [from] (the staging slot) to
   [to_] (the id its receiver adopts from).  The CAS is the arbitration
   with [reclaim_owners]: [false] iff a reclaimer already took the page
   off [from], and then the payload is gone. *)
let hand_over t ~page ~from ~to_ =
  check_owner from "Pagepool.hand_over";
  check_owner to_ "Pagepool.hand_over";
  check_page t page "Pagepool.hand_over: bad page id";
  restamp t.words page from to_

(* Take ownership of an in-flight page published under [from] — the
   receiver side of a descriptor handoff calls this before touching the
   payload, so a crash of the *sender* after publication can no longer
   reclaim the page out from under the survivor.  A page under any other
   stamp is not this handoff's page (it was reclaimed and perhaps
   allocated again), so it is refused; so is a free one.  Re-adopting a
   page already ours is a no-op. *)
let try_adopt t ~page ~from ~owner =
  check_owner from "Pagepool.try_adopt";
  check_owner owner "Pagepool.try_adopt";
  check_page t page "Pagepool.try_adopt: bad page id";
  owner_of (Atomic.get t.words.(page)) = owner || restamp t.words page from owner

(* Every page still stamped with [owner] (racy snapshot, debugging aid). *)
let owned_pages t ~owner =
  check_owner owner "Pagepool.owned_pages";
  let out = ref [] in
  for page = t.npages - 1 downto 0 do
    if owner_of (Atomic.get t.words.(page)) = owner then out := page :: !out
  done;
  !out

(* Free a live page stamped with one of [owners] by one CAS of its word to
   [free_word]; retried while the word moves, so a page re-stamped from
   one of [owners] to another is caught under either stamp. *)
let rec seize words page owners =
  let w = Atomic.get words.(page) in
  List.mem (owner_of w) owners
  && (Atomic.compare_and_set words.(page) w free_word || seize words page owners)

(* Force-free, in one pass over the pool, every page still stamped with
   one of [owners] (dead incarnations, abandoned connections).  Races
   against survivors adopting in-flight pages and senders handing staged
   pages over: the word CAS is the arbitration, so exactly one party wins
   each page.  Freeing the whole word forgets any extra refs the dead
   incarnation held via [incref]; survivors must have adopted before
   taking their own ref.  Idempotent: a second call finds no pages
   stamped with [owners].  Returns the number of pages freed. *)
let reclaim_owners t ~owners =
  List.iter (fun o -> check_owner o "Pagepool.reclaim_owners") owners;
  let freed = ref 0 in
  for page = 0 to t.npages - 1 do
    if seize t.words page owners then begin
      incr freed;
      Obs.Metrics.incr m_reclaimed;
      Obs.Metrics.gauge_add g_in_use (-1);
      push_global t page
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
  if Atomic.get t.words.(page) = free_word then
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
