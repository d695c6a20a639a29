(* The common socket interface every stack implements.

   This is the repo's stand-in for the paper's LD_PRELOAD transparency
   claim: the application code in this library (HTTP proxy, KV store, RPC,
   NF pipeline) is written once against [S] and runs unmodified over
   SocksDirect, the Linux kernel model, RSocket and LibVMA. *)

open Sds_transport

module type S = sig
  val name : string

  type endpoint
  (** One application thread's handle onto the stack. *)

  type listener
  type conn

  val make_endpoint : Host.t -> core:int -> endpoint
  val listen : endpoint -> port:int -> listener
  val accept : endpoint -> listener -> conn
  val connect : endpoint -> dst:Host.t -> port:int -> conn
  val send : endpoint -> conn -> Bytes.t -> off:int -> len:int -> int
  val recv : endpoint -> conn -> Bytes.t -> off:int -> len:int -> int
  val close : endpoint -> conn -> unit
end

(* ---- SocksDirect ---- *)

module Sds : S with type endpoint = Socksdirect.Libsd.thread = struct
  module L = Socksdirect.Libsd

  let name = "SocksDirect"

  type endpoint = L.thread
  type listener = int
  type conn = int

  let make_endpoint host ~core =
    let ctx = L.init host in
    L.create_thread ctx ~core ()

  let listen th ~port =
    let fd = L.socket th in
    L.bind th fd ~port;
    L.listen th fd;
    fd

  let accept th lfd = L.accept th lfd
  let connect th ~dst ~port =
    let fd = L.socket th in
    L.connect th fd ~dst ~port;
    fd

  let send th fd buf ~off ~len = L.send th fd buf ~off ~len
  let recv th fd buf ~off ~len = L.recv th fd buf ~off ~len
  let close th fd = L.close th fd
end

(* SocksDirect with batching and zero copy disabled — the "SD (unopt)"
   series of Figures 7-9. *)
module Sds_unopt : S with type endpoint = Socksdirect.Libsd.thread = struct
  include Sds

  let name = "SD (unopt)"

  let make_endpoint host ~core =
    let config =
      { Socksdirect.Libsd.batching = false; copy_policy = Sds_proto.Copy_policy.Always_copy }
    in
    let ctx = Socksdirect.Libsd.init ~config host in
    Socksdirect.Libsd.create_thread ctx ~core ()
end

(* ---- Linux kernel TCP ---- *)

module Linux : S with type endpoint = Sds_kernel.Kernel.process = struct
  module K = Sds_kernel.Kernel

  let name = "Linux"

  type endpoint = K.process
  type listener = int
  type conn = int

  let make_endpoint host ~core:_ = K.spawn_process (K.for_host host) ()

  let listen proc ~port =
    let fd = K.socket proc in
    K.listen proc fd ~port ();
    fd

  let accept proc lfd = K.accept proc lfd
  let connect proc ~dst ~port =
    let fd = K.socket proc in
    K.connect proc fd ~dst ~port;
    fd

  let send proc fd buf ~off ~len = K.send proc fd buf ~off ~len
  let recv proc fd buf ~off ~len = K.recv proc fd buf ~off ~len
  let close proc fd = K.close proc fd
end

(* ---- RSocket ---- *)

module Rsocket : S with type endpoint = Host.t = struct
  module R = Sds_baselines.Rsocket

  let name = "RSocket"

  type endpoint = Host.t
  type listener = R.listener
  type conn = R.conn

  let make_endpoint host ~core:_ = host
  let listen host ~port = R.listen host ~port
  let accept _ l = R.accept l
  let connect host ~dst ~port = R.connect host ~dst ~port
  let send _ c buf ~off ~len = R.send c buf ~off ~len
  let recv _ c buf ~off ~len = R.recv c buf ~off ~len
  let close _ c = R.close c
end

(* ---- LibVMA ---- *)

module Libvma : S with type endpoint = Sds_baselines.Libvma.stack = struct
  module V = Sds_baselines.Libvma

  let name = "LibVMA"

  type endpoint = V.stack
  type listener = V.listener
  type conn = V.conn

  let make_endpoint host ~core:_ = V.stack_for host
  let listen stack ~port = V.listen stack.V.host ~port
  let accept _ l = V.accept l
  let connect stack ~dst ~port = V.connect stack.V.host ~dst ~port
  let send _ c buf ~off ~len = V.send c buf ~off ~len
  let recv _ c buf ~off ~len = V.recv c buf ~off ~len
  let close _ c = V.close c
end

(* ---- buffered helpers shared by the applications ---- *)

module Io (Api : S) = struct
  type t = {
    ep : Api.endpoint;
    conn : Api.conn;
    mutable buf : Bytes.t;  (** window of read-but-unconsumed bytes *)
    mutable start : int;
    mutable stop : int;
  }

  let make ep conn = { ep; conn; buf = Bytes.create 65536; start = 0; stop = 0 }

  let buffered t = t.stop - t.start

  (* Send everything. *)
  let write_all t buf ~off ~len =
    let sent = ref 0 in
    while !sent < len do
      let n = Api.send t.ep t.conn buf ~off:(off + !sent) ~len:(len - !sent) in
      if n = 0 then failwith "write_all: peer closed";
      sent := !sent + n
    done

  let write_string t s = write_all t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

  (* Make room for [extra] incoming bytes, compacting or growing. *)
  let reserve t extra =
    let live = buffered t in
    if t.stop + extra > Bytes.length t.buf then
      if live + extra <= Bytes.length t.buf then begin
        Bytes.blit t.buf t.start t.buf 0 live;
        t.start <- 0;
        t.stop <- live
      end
      else begin
        let bigger = Bytes.create (max (2 * Bytes.length t.buf) (live + extra)) in
        Bytes.blit t.buf t.start bigger 0 live;
        t.buf <- bigger;
        t.start <- 0;
        t.stop <- live
      end

  (* Refill from the connection; false on EOF. *)
  let refill t =
    let want = 65536 in
    reserve t want;
    let n = Api.recv t.ep t.conn t.buf ~off:t.stop ~len:want in
    if n = 0 then false
    else begin
      t.stop <- t.stop + n;
      true
    end

  (* Read exactly [n] bytes; None on EOF before [n] bytes are available. *)
  let read_exact t n =
    let rec fill () =
      if buffered t >= n then begin
        let out = Bytes.sub t.buf t.start n in
        t.start <- t.start + n;
        if t.start = t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end;
        Some out
      end
      else if refill t then fill ()
      else None
    in
    fill ()

  (* Read through the first CRLF; returns the line without it. *)
  let read_line t =
    let find_crlf from =
      let rec scan i =
        if i + 1 >= t.stop then None
        else if Bytes.get t.buf i = '\r' && Bytes.get t.buf (i + 1) = '\n' then Some i
        else scan (i + 1)
      in
      scan (max from t.start)
    in
    let rec fill from =
      match find_crlf from with
      | Some i ->
        let line = Bytes.sub_string t.buf t.start (i - t.start) in
        t.start <- i + 2;
        if t.start >= t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end;
        Some line
      | None ->
        (* Resume the scan where it stopped (minus one byte for a split
           CRLF); note positions shift if refill compacts. *)
        let live_scanned = t.stop - t.start in
        if refill t then fill (t.start + max 0 (live_scanned - 1)) else None
    in
    fill t.start

  let close t = Api.close t.ep t.conn
end
