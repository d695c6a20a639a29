(* Shared scaffolding for the simulation test-suites. *)

open Sds_sim
open Sds_transport

type world = { engine : Engine.t; cost : Cost.t; rng : Rng.t; mutable hosts : Host.t list }

let make_world ?(cost = Cost.default) ?(seed = 42) () =
  { engine = Engine.create (); cost; rng = Rng.create ~seed; hosts = [] }

let add_host ?(cores = 16) ?(rdma = true) w =
  let id = List.length w.hosts in
  let h = Host.create w.engine ~cost:w.cost ~id ~cores ~rdma ~rng:w.rng () in
  w.hosts <- w.hosts @ [ h ];
  h

(* Run [main] as a simulated proc and drive the engine until it completes
   (or [horizon] simulated nanoseconds pass).  Raises if the proc raised. *)
let run ?(horizon = 10_000_000_000) w main =
  let finished = ref false in
  let _p =
    Proc.spawn w.engine ~name:"test-main" (fun () ->
        main ();
        finished := true)
  in
  Engine.run ~until:horizon w.engine;
  if not !finished then failwith "simulation horizon reached before test main finished"

(* Spawn a background participant (server etc.). *)
let spawn w name fn = Proc.spawn w.engine ~name fn

(* Busy-wait (in simulated time) until a condition set by another proc. *)
let wait_for flag =
  while not !flag do
    Proc.sleep_ns 1_000
  done

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* Every stack raises socket errors as [Unix.Unix_error]: the errno [f]
   raises, whatever call name the stack reports, or [None]. *)
let errno_of f =
  match f () with
  | _ -> None
  | exception Unix.Unix_error (e, _, _) -> Some e

let errno = Alcotest.testable (fun ppf e -> Fmt.string ppf (Unix.error_message e)) ( = )

let check_errno msg expected f = Alcotest.(check (option errno)) msg (Some expected) (errno_of f)
