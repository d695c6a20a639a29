(* Seeded, stamped payloads.

   Message [seq] of a run is template [seq mod slots] — random bytes drawn
   from the run's seed — with a 16-byte stamp written at both its head and
   its tail: a tag word (the sequence number, plus a bit saying whether the
   message belongs to a traced window) and a value mixed from (seed, seq).
   A receiver builds its own templates from the same seed, so it checks a
   message without any side channel: a torn record fails the tail stamp, a
   reordered or lost one fails the sequence number, a corrupted body fails
   the template comparison. *)

let stamp_bytes = 16
let traced_bit = 1 lsl 40
let seq_mask = traced_bit - 1

type t = { seed : int; size : int; bodies : Bytes.t array }

(* splitmix-style finaliser, with constants that fit OCaml's 63-bit ints. *)
let mix seed seq =
  let z = (seed lsl 41) lxor seq in
  let z = (z lxor (z lsr 30)) * 0xbf58476d1ce4e5b in
  let z = (z lxor (z lsr 27)) * 0x94d049bb133111e in
  z lxor (z lsr 31)

let create ~seed ~size ~slots =
  if size < 2 * stamp_bytes || slots < 1 then invalid_arg "Payload.create";
  let st = Random.State.make [| seed; size |] in
  {
    seed;
    size;
    bodies = Array.init slots (fun _ -> Bytes.init size (fun _ -> Char.chr (Random.State.int st 256)));
  }

let size t = t.size
let template t seq = t.bodies.(seq mod Array.length t.bodies)

let write_stamp t b off word seq =
  Bytes.set_int64_le b off (Int64.of_int word);
  Bytes.set_int64_le b (off + 8) (Int64.of_int (mix t.seed seq))

(* Stamp message [seq] into its template, in place, and return it. *)
let stamp t seq ~traced =
  let b = template t seq in
  let word = if traced then seq lor traced_bit else seq in
  write_stamp t b 0 word seq;
  write_stamp t b (t.size - stamp_bytes) word seq;
  b

let word_at b off = Int64.to_int (Bytes.get_int64_le b off)

(* Sequence number and traced flag a received message's head claims. *)
let seq_of b off = word_at b off land seq_mask
let traced_of b off = word_at b off land traced_bit <> 0

let stamp_ok t b off seq =
  word_at b off land seq_mask = seq && word_at b (off + 8) = mix t.seed seq

let body_ok t b off seq =
  let tpl = template t seq in
  let last = t.size - stamp_bytes in
  let rec words i =
    if i + 8 > last then bytes i
    else Bytes.get_int64_le b (off + i) = Bytes.get_int64_le tpl i && words (i + 8)
  and bytes i = i >= last || (Bytes.get b (off + i) = Bytes.get tpl i && bytes (i + 1)) in
  words stamp_bytes

(* Is [b[off, off+len)] exactly message [seq]?  Stamps are always checked;
   the body only when [full], so large messages can be sampled. *)
let check t b ~off ~len ~seq ~full =
  len = t.size
  && stamp_ok t b off seq
  && stamp_ok t b (off + t.size - stamp_bytes) seq
  && word_at b off = word_at b (off + t.size - stamp_bytes)
  && ((not full) || body_ok t b off seq)
