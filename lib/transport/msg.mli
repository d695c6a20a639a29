(** Messages as carried by the simulated transports.

    A payload is either inline bytes (copied through the ring) or page-pool
    descriptors that ride the ring while the data stays in the pool (§4.3,
    §4.6). *)

type payload =
  | Inline of Bytes.t
  | Pool of { pool : Sds_vm.Pagepool.t; entries : int array; len : int }
      (** pages of the sending process's pool: ring-packed descriptors
          ({!Sds_ring.Spsc_ring.desc_entry}) whose references travel with
          the message (§4.6 ownership handoff) *)

type kind =
  | Data
  | Ack  (** completes the connect handshake (Figure 6) *)
  | Fin  (** orderly end of the stream *)

type t = {
  seq : int;
  kind : kind;
  payload : payload;
  mutable sent_at : int;  (** simulated send timestamp, for latency accounting *)
  mutable span_send : int;  (** {!Sds_obs.Span} stamp: API entry (creation) *)
  mutable span_pub : int;  (** span stamp: ring publication *)
  mutable span_vis : int;  (** span stamp: visible to the receiver *)
  mutable span_deq : int;  (** span stamp: receiver dequeue *)
  mutable span_parse : int;  (** span stamp: ring record decoded *)
}

val make : ?kind:kind -> payload -> t
val data : Bytes.t -> t
val data_string : string -> t

val payload_len : t -> int
(** Application bytes carried. *)

val ring_len : t -> int
(** Bytes occupied in a ring: inline payload travels in-band, pool payloads
    contribute only their 8-byte descriptors. *)

val to_bytes : t -> Bytes.t
(** The inline payload; [Invalid_argument] on a pool payload, which is
    landed through [Sds_proto.Stream_core], never materialised. *)
