(* A costed, unidirectional kernel byte stream.

   Pipes, FIFOs, Unix domain sockets and (post-handshake) TCP connections
   all reduce to this: a bounded byte buffer crossed via system calls, with
   per-operation, per-packet and per-byte CPU charges on each side, an
   out-of-CPU "wire" latency (loopback softirq, or NIC DMA + interrupt for
   inter-host TCP), and a process-wakeup charge when the consumer sleeps
   (§2.1, Table 4 Linux column).

   Data is real: writers blit bytes in, readers blit bytes out, partial
   reads and EOF behave as POSIX streams do. *)

open Sds_sim

type profile = {
  label : string;
  syscall : int;  (** kernel crossing per operation *)
  fd_lock : int;  (** per-socket lock per operation *)
  sender_pkt : int;  (** sender-side CPU per packet (buffer mgmt, transport) *)
  receiver_pkt : int;  (** receiver-side CPU per packet (incl. softirq/interrupt) *)
  wire : int;  (** one-way latency outside the CPUs *)
  wire_per_kb : int;  (** serialization per KiB on the wire path *)
  copy_per_kb : int;  (** copy cost per KiB, charged on each side *)
  mtu : int;  (** segmentation unit *)
  wakeup : int;  (** waking a blocked peer *)
  capacity : int;  (** buffer bytes *)
}

(* Profiles calibrated to reproduce Table 2's pipe / UDS / intra-TCP /
   inter-TCP round trips and single-core throughputs. *)

let pipe_profile cost =
  {
    label = "pipe";
    syscall = Cost.syscall cost;
    fd_lock = cost.Cost.fd_lock_linux;
    sender_pkt = 100;
    receiver_pkt = 100;
    wire = 0;
    wire_per_kb = 0;
    copy_per_kb = cost.Cost.copy_per_kb;
    mtu = 65536;
    wakeup = cost.Cost.process_wakeup;
    capacity = 64 * 1024;
  }

let unix_profile cost =
  { (pipe_profile cost) with label = "unix"; sender_pkt = 180; receiver_pkt = 260 }

let tcp_intra_profile cost =
  {
    label = "tcp-intra";
    syscall = Cost.syscall cost;
    fd_lock = cost.Cost.fd_lock_linux;
    sender_pkt = (cost.Cost.linux_buffer_mgmt / 2) + (cost.Cost.linux_transport / 2);
    receiver_pkt =
      (cost.Cost.linux_buffer_mgmt / 2) + (cost.Cost.linux_transport / 2) + cost.Cost.linux_packet_proc;
    wire = 400 (* loopback softirq dispatch *);
    wire_per_kb = 0;
    copy_per_kb = cost.Cost.copy_per_kb;
    mtu = 65536 (* loopback GSO: segmentation is virtual *);
    wakeup = cost.Cost.process_wakeup;
    capacity = 256 * 1024;
  }

let tcp_inter_profile cost =
  {
    (tcp_intra_profile cost) with
    label = "tcp-inter";
    mtu = 1448;
    receiver_pkt =
      (cost.Cost.linux_buffer_mgmt / 2) + (cost.Cost.linux_transport / 2) + cost.Cost.linux_packet_proc
      + cost.Cost.linux_interrupt;
    wire = cost.Cost.doorbell_dma_linux + cost.Cost.nic_wire;
    wire_per_kb = cost.Cost.wire_per_kb;
  }

type chunk = { data : Bytes.t; mutable pkts : int }

type t = {
  engine : Engine.t;
  profile : profile;
  chunks : chunk Queue.t;  (** bytes visible to the reader *)
  mutable head_off : int;  (** consumed prefix of the front chunk *)
  mutable visible : int;
  mutable in_flight : int;  (** written, not yet visible (on the wire) *)
  mutable write_closed : bool;
  mutable read_closed : bool;
  readable : Waitq.t;
  writable : Waitq.t;
  mutable reader_blocked : bool;
  mutable on_readable : (unit -> unit) list;  (** epoll edge callbacks *)
  mutable wakeups : int;
  mutable bytes_moved : int;
}

let create engine ~profile =
  {
    engine;
    profile;
    chunks = Queue.create ();
    head_off = 0;
    visible = 0;
    in_flight = 0;
    write_closed = false;
    read_closed = false;
    readable = Waitq.create ();
    writable = Waitq.create ();
    reader_blocked = false;
    on_readable = [];
    wakeups = 0;
    bytes_moved = 0;
  }

let profile t = t.profile
let readable_now t = t.visible > 0 || (t.write_closed && t.in_flight = 0)
let writable_now t = (not t.write_closed) && t.visible + t.in_flight < t.profile.capacity
let readable_waitq t = t.readable
let wakeups t = t.wakeups
let bytes_moved t = t.bytes_moved
let on_readable t f = t.on_readable <- f :: t.on_readable

let notify_readable t =
  Waitq.signal t.readable;
  List.iter (fun f -> f ()) t.on_readable;
  if t.reader_blocked then begin
    (* The consumer was asleep; the wakeup latency itself is charged on the
       read path when it resumes. *)
    t.wakeups <- t.wakeups + 1;
    t.reader_blocked <- false
  end

let packets_for t len = max 1 ((len + t.profile.mtu - 1) / t.profile.mtu)

let epipe () = raise (Unix.Unix_error (Unix.EPIPE, "send", ""))

(* Blocking write of the whole buffer; returns bytes written (= len).
   Charges: one syscall + FD lock per call, per-packet sender CPU, and the
   outbound copy.  Raises EPIPE when the read side is closed. *)
let rec write t src ~off ~len =
  if t.write_closed then invalid_arg "Kstream.write: stream closed";
  if t.read_closed then epipe ();
  let p = t.profile in
  Proc.sleep_ns (p.syscall + p.fd_lock);
  write_flow t src ~off ~len

and write_flow t src ~off ~len =
  if len = 0 then 0
  else begin
    let p = t.profile in
    let room = p.capacity - (t.visible + t.in_flight) in
    if room <= 0 then begin
      (* Buffer full: block until the reader drains. *)
      (match Waitq.wait t.writable with _ -> ());
      if t.read_closed then epipe ();
      write_flow t src ~off ~len
    end
    else begin
      let chunk = min len room in
      let pkts = packets_for t chunk in
      Proc.sleep_ns ((pkts * p.sender_pkt) + (p.copy_per_kb * chunk / 1024));
      let data = Bytes.sub src off chunk in
      t.in_flight <- t.in_flight + chunk;
      let delay = p.wire + (p.wire_per_kb * chunk / 1024) in
      Engine.schedule t.engine ~delay (fun () ->
          t.in_flight <- t.in_flight - chunk;
          Queue.push { data; pkts } t.chunks;
          t.visible <- t.visible + chunk;
          t.bytes_moved <- t.bytes_moved + chunk;
          notify_readable t);
      let rest = if chunk < len then write_flow t src ~off:(off + chunk) ~len:(len - chunk) else 0 in
      chunk + rest
    end
  end

(* Blocking read of up to [len] bytes; 0 means EOF.  Charges one syscall +
   FD lock, per-packet receiver CPU and the inbound copy; a read that had to
   sleep pays the process-wakeup latency. *)
let rec read t dst ~off ~len =
  let p = t.profile in
  Proc.sleep_ns (p.syscall + p.fd_lock);
  read_flow t dst ~off ~len

and read_flow t dst ~off ~len =
  if len = 0 then 0
  else if t.visible = 0 then begin
    if t.write_closed && t.in_flight = 0 then 0
    else begin
      t.reader_blocked <- true;
      (match Waitq.wait t.readable with _ -> ());
      t.reader_blocked <- false;
      (* We were woken from sleep: pay the wakeup path. *)
      Proc.sleep_ns t.profile.wakeup;
      read_flow t dst ~off ~len
    end
  end
  else begin
    let p = t.profile in
    let copied = ref 0 in
    (* Receiver-side per-packet work follows the packets the SENDER framed,
       not the read granularity. *)
    let pkts_consumed = ref 0 in
    while !copied < len && not (Queue.is_empty t.chunks) do
      let chunk = Queue.peek t.chunks in
      let avail = Bytes.length chunk.data - t.head_off in
      let take = min avail (len - !copied) in
      Bytes.blit chunk.data t.head_off dst (off + !copied) take;
      if take = avail then begin
        pkts_consumed := !pkts_consumed + chunk.pkts;
        ignore (Queue.pop t.chunks);
        t.head_off <- 0
      end
      else begin
        (* Partial consumption of a multi-packet chunk: charge a share. *)
        let share = max 1 (chunk.pkts * take / max 1 (Bytes.length chunk.data)) in
        pkts_consumed := !pkts_consumed + share;
        chunk.pkts <- max 0 (chunk.pkts - share);
        t.head_off <- t.head_off + take
      end;
      copied := !copied + take
    done;
    t.visible <- t.visible - !copied;
    Proc.sleep_ns ((!pkts_consumed * p.receiver_pkt) + (p.copy_per_kb * !copied / 1024));
    Waitq.broadcast t.writable;
    !copied
  end

(* Non-blocking variants used by epoll-driven applications. *)
let try_read t dst ~off ~len =
  if t.visible = 0 then (if t.write_closed then `Eof else `Would_block)
  else begin
    let p = t.profile in
    Proc.sleep_ns (p.syscall + p.fd_lock);
    `Read (read_flow t dst ~off ~len)
  end

let close_write t =
  if not t.write_closed then begin
    t.write_closed <- true;
    Engine.schedule t.engine ~delay:t.profile.wire (fun () -> notify_readable t)
  end

let close_read t =
  t.read_closed <- true;
  Waitq.broadcast t.writable
