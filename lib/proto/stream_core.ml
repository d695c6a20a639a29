(* The byte-stream core of both socket backends (§4.2, §4.6): the record
   plan of a send, page staging, landing and the partial-read cursor.

   A record the caller's [len] cannot hold stays in the cursor as bytes:
   an inline record as its source bytes (the simulator's message payload,
   or the scratch buffer the adapter dequeued into); a descriptor record's
   remainder copied to the scratch buffer, every page released within the
   call (see [land_pages]).  Both backends follow the one rule. *)

module Pp = Sds_vm.Pagepool
module R = Sds_ring.Spsc_ring

let max_inline = 8 * 1024
let max_desc_per_record = 256
let pages_for len = (len + Pp.page_size - 1) / Pp.page_size

(* ---- send ---- *)

type outcome = Copied | Zero_copy | Fell_back

let rec inline_from inline ~pos ~stop =
  if pos < stop then begin
    let n = min (stop - pos) max_inline in
    inline ~off:pos ~len:n;
    inline_from inline ~pos:(pos + n) ~stop
  end

(* One record at a time until [desc] finds the pool exhausted; the rest of
   the send goes inline (the Libra fallback). *)
let rec desc_from desc inline ~pos ~stop =
  if pos >= stop then Zero_copy
  else begin
    let n = min (stop - pos) (max_desc_per_record * Pp.page_size) in
    if desc ~off:pos ~len:n then desc_from desc inline ~pos:(pos + n) ~stop
    else begin
      inline_from inline ~pos ~stop;
      Fell_back
    end
  end

let send policy ~pool ~off ~len ~desc ~inline =
  if len = 0 then Copied
  else if Copy_policy.decide policy ~pool ~len then
    desc_from desc inline ~pos:off ~stop:(off + len)
  else begin
    (* One chunk, the common small send, skips the loop. *)
    if len <= max_inline then inline ~off ~len
    else inline_from inline ~pos:off ~stop:(off + len);
    Copied
  end

(* The page ids go into [entries] first and are packed in place once the
   whole record is allocated.  The app buffer is free for reuse the moment
   this returns — the pages travel, not the buffer. *)
let stage pool h buf ~off ~len entries =
  let n = pages_for len in
  let got = ref 0 in
  while !got < n && (entries.(!got) <- Pp.alloc h; entries.(!got) <> Pp.no_page) do
    incr got
  done;
  if !got < n then begin
    for i = 0 to !got - 1 do
      Pp.release h entries.(i)
    done;
    false
  end
  else begin
    for i = 0 to n - 1 do
      let page = entries.(i) and pos = i * Pp.page_size in
      let chunk = min Pp.page_size (len - pos) in
      Pp.blit_from_bytes pool ~src:buf ~src_off:(off + pos) ~page ~off:0 ~len:chunk;
      entries.(i) <- R.desc_entry ~page ~off:0 ~len:chunk
    done;
    true
  end

(* ---- receive ---- *)

type landing = Global | Owned of { h : Pp.handle; from : int; owner : int }

let release landing pool page =
  match landing with
  | Global -> Pp.release_global pool page
  | Owned { h; _ } -> Pp.release h page

type pending = Nothing | Bytes_left of { src : Bytes.t; pos : int; stop : int }

type cursor = { mutable pending : pending; mutable scratch : Bytes.t; mutable entries : int array }

let cursor () = { pending = Nothing; scratch = Bytes.empty; entries = [||] }
let pending c = match c.pending with Nothing -> false | Bytes_left _ -> true

let scratch c n =
  if Bytes.length c.scratch < n then c.scratch <- Bytes.create (max n max_inline);
  c.scratch

let entries c =
  if Array.length c.entries = 0 then c.entries <- Array.make max_desc_per_record 0;
  c.entries

let land_bytes c src ~pos ~stop dst ~off ~len =
  let n = min len (stop - pos) in
  Bytes.blit src pos dst off n;
  c.pending <- (if pos + n < stop then Bytes_left { src; pos = pos + n; stop } else Nothing);
  n

(* Land entries [idx..count) into [dst] from [pos] up to [limit], starting
   [skip] bytes into entry [idx]; returns the final [dst] position.  What
   does not fit is copied out to the scratch buffer and every page released
   within this call: no page outlives the operation that dequeued it.  On
   the real path that is a safety rule — pages adopted by one domain must
   not outlive its operation, or if that domain died [reclaim_owner] would
   free them under the next holder of the receive token. *)
let rec land_pages c landing pool entries ~count ~idx ~skip dst ~pos ~limit =
  if idx = count then begin
    c.pending <- Nothing;
    pos
  end
  else begin
    let e = entries.(idx) in
    let left = R.desc_len e - skip in
    let n = min left (limit - pos) in
    if n > 0 then
      Pp.blit_to_bytes pool ~page:(R.desc_page e) ~off:(R.desc_off e + skip) ~dst ~dst_off:pos
        ~len:n;
    if n = left then begin
      release landing pool (R.desc_page e);
      land_pages c landing pool entries ~count ~idx:(idx + 1) ~skip:0 dst ~pos:(pos + n) ~limit
    end
    else begin
      let rest = ref (left - n) in
      for i = idx + 1 to count - 1 do
        rest := !rest + R.desc_len entries.(i)
      done;
      let src = scratch c !rest in
      ignore (land_pages c landing pool entries ~count ~idx ~skip:(skip + n) src ~pos:0 ~limit:!rest);
      c.pending <- Bytes_left { src; pos = 0; stop = !rest };
      pos + n
    end
  end

let lost = -1

(* Adopt every page from the id it was published under before touching
   any payload: once adopted, a reclaim of that id cannot free it out from
   under us.  A failed adoption means the reclaimer already won — the
   payload is gone with its connection. *)
let adopt landing pool entries ~count =
  match landing with
  | Global -> true
  | Owned { h; from; owner } ->
    let adopted = ref 0 in
    while
      !adopted < count && Pp.try_adopt pool ~page:(R.desc_page entries.(!adopted)) ~from ~owner
    do
      incr adopted
    done;
    if !adopted < count then
      for i = 0 to !adopted - 1 do
        Pp.release h (R.desc_page entries.(i))
      done;
    !adopted = count

let land_desc c landing pool entries ~count dst ~off ~len =
  if not (adopt landing pool entries ~count) then lost
  else land_pages c landing pool entries ~count ~idx:0 ~skip:0 dst ~pos:off ~limit:(off + len) - off

let take c dst ~off ~len =
  match c.pending with
  | Nothing -> 0
  | Bytes_left { src; pos; stop } -> land_bytes c src ~pos ~stop dst ~off ~len

let drop c = c.pending <- Nothing
