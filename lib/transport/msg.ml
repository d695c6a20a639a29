(* Messages as carried by simulated transports.

   The payload is either inline bytes (small messages, copied through the
   ring) or page-pool descriptors that ride the ring while the data stays in
   the pool (§4.3, §4.6). *)

type payload =
  | Inline of Bytes.t
  | Pool of { pool : Sds_vm.Pagepool.t; entries : int array; len : int }
      (** pages of the sending process's pool: ring-packed descriptors (§4.6) *)

type kind =
  | Data
  | Ack  (** completes the connect handshake (Figure 6) *)
  | Fin  (** orderly end of the stream *)

type t = {
  seq : int;
  kind : kind;
  payload : payload;
  mutable sent_at : int;  (** simulated send timestamp, for latency accounting *)
  (* Span stamps ([Sds_obs.Span] clock), filled in as the message moves:
     creation (API entry), ring publication, transport visibility, receiver
     dequeue, record decode.  [Libsd.consume] turns them into per-stage
     histogram observations; 0 = never stamped. *)
  mutable span_send : int;
  mutable span_pub : int;
  mutable span_vis : int;
  mutable span_deq : int;
  mutable span_parse : int;
}

let seq_counter = ref 0

let make ?(kind = Data) payload =
  incr seq_counter;
  {
    seq = !seq_counter;
    kind;
    payload;
    sent_at = 0;
    span_send = (if Sds_obs.Span.enabled () then Sds_obs.Span.now () else 0);
    span_pub = 0;
    span_vis = 0;
    span_deq = 0;
    span_parse = 0;
  }

let data bytes = make (Inline bytes)
let data_string s = data (Bytes.of_string s)

let payload_len t =
  match t.payload with
  | Inline b -> Bytes.length b
  | Pool { len; _ } -> len

(* Bytes this message occupies in a ring: inline payload travels in-band,
   pool payloads contribute only their 8-byte descriptors. *)
let ring_len t =
  match t.payload with
  | Inline b -> Bytes.length b
  | Pool { entries; _ } -> 8 * Array.length entries

let to_bytes t =
  match t.payload with
  | Inline b -> b
  | Pool _ -> invalid_arg "Msg.to_bytes: pool payload"
