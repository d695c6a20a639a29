(* sdbench: the repository benchmark — socket workloads on real domains.

     sdbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
     sdbench --repeat K [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]
     sdbench compare A.json B.json [--bench BENCHMARK.json]
     sdbench smoke [--bench BENCHMARK.json] [--seconds S]

   A single run prints every metric as "name value unit" and, as its last
   line, one JSON object {correct, attempted, failed, metrics} holding the
   end-to-end metrics (untraced run) or the per-layer metrics (traced run).
   It exits 1 when any output check failed.

   [--repeat] runs each workload K times, each in a fresh process with its
   own seed, and prints medians and quartiles; [compare] applies the bounds
   of BENCHMARK.json to two such result files; [smoke] is the quick check
   that every named metric is printed and nothing fails. *)

module Rt_dom = Sds_rt.Rt_dom

let usage =
  "usage:\n\
  \  sdbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
  \  sdbench --repeat K [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
  \  sdbench compare A.json B.json [--bench BENCHMARK.json]\n\
  \  sdbench smoke [--bench BENCHMARK.json] [--seconds S]\n\
   workloads: rpc_small stream_small stream_16k conn_churn\n"

let die_usage msg =
  prerr_endline ("sdbench: " ^ msg);
  prerr_string usage;
  exit 2

let known_opts = [ "--workload"; "--seed"; "--seconds"; "--trace"; "--json"; "--repeat"; "--bench" ]

let parse_args args =
  let rec go opts pos = function
    | [] -> (opts, List.rev pos)
    | k :: rest when String.starts_with ~prefix:"--" k -> (
      if not (List.mem k known_opts) then die_usage ("unknown option " ^ k);
      match rest with
      | v :: rest -> go ((k, v) :: opts) pos rest
      | [] -> die_usage ("missing value for " ^ k))
    | a :: rest -> go opts (a :: pos) rest
  in
  go [] [] args

let opt opts k conv ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die_usage (Printf.sprintf "bad value %S for %s" v k))

let trace_of = function "0" -> Some false | "1" -> Some true | _ -> None
let positive_float s = Option.bind (float_of_string_opt s) (fun f -> if f > 0. then Some f else None)

let kind_of w = List.assoc_opt w Workload.kinds

(* Commit of the checkout, read from .git without running git, so nothing
   outside the working directory is consulted; "unknown" elsewhere. *)
let git_head () =
  let read p = try Some (String.trim (In_channel.with_open_bin p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.starts_with ~prefix:"ref: " h -> (
    let r = String.sub h 5 (String.length h - 5) in
    match read (Filename.concat ".git" r) with
    | Some c -> c
    | None -> (
      let packed = Option.value (read ".git/packed-refs") ~default:"" in
      let hit =
        List.find_opt
          (fun l -> String.ends_with ~suffix:(" " ^ r) l)
          (String.split_on_char '\n' packed)
      in
      match hit with Some l -> List.hd (String.split_on_char ' ' l) | None -> "unknown"))
  | Some h -> h

let meta () =
  Json.Obj
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str (git_head ()));
      ("cores", Json.Num (float_of_int (Rt_dom.available_cores ())));
    ]

let metrics_json ms =
  Json.Obj
    (List.map
       (fun (mt : Workload.metric) -> (mt.name, Json.Obj [ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]))
       ms)

(* ---- one run ---------------------------------------------------------- *)

let run_once ~workload ~seed ~seconds ~traced ~json =
  let kind = match kind_of workload with Some k -> k | None -> die_usage ("unknown workload " ^ workload) in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let r =
    try Workload.run ~kind ~seed ~seconds ~traced
    with e ->
      (* A transport error such as [Peer_dead] ends the run: it is a failed
         operation, reported like any other failed check. *)
      Printf.eprintf "sdbench: check failed: %s\n" (Printexc.to_string e);
      print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|};
      exit 1
  in
  Printf.printf "# sdbench workload=%s seed=%d seconds=%g trace=%d\n" workload seed seconds (Bool.to_int traced);
  Printf.printf "# ocaml=%s commit=%s cores=%d\n" Sys.ocaml_version (git_head ()) (Rt_dom.available_cores ());
  let reported = if traced then r.layers else r.e2e in
  List.iter
    (fun (mt : Workload.metric) -> Printf.printf "%-30s %18s %s\n" mt.name (Json.num_to_string mt.value) mt.unit_)
    (reported @ r.extra);
  List.iter (fun e -> Printf.eprintf "sdbench: check failed: %s\n" e) r.errors;
  let head =
    [
      ("correct", Json.Bool (r.failed = 0));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
    ]
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           ([
              ("workload", Json.Str workload);
              ("seed", Json.Num (float_of_int seed));
              ("seconds", Json.Num seconds);
              ("trace", Json.Bool traced);
              ("meta", meta ());
            ]
           @ head
           @ [ ("metrics", metrics_json (reported @ r.extra)) ])))
    json;
  print_endline (Json.to_string (Json.Obj (head @ [ ("metrics", metrics_json reported) ])));
  exit (if r.failed = 0 then 0 else 1)

(* ---- child runs ------------------------------------------------------- *)

(* Run this executable with [args] in a fresh process; kill it if it
   outlives [timeout_s].  Returns its parsed last stdout line, or why
   there is none. *)
let run_child args ~timeout_s =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec pump () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then begin
      Unix.kill pid Sys.sigkill;
      false
    end
    else
      match Unix.select [ r ] [] [] left with
      | [], _, _ -> pump ()
      | _ ->
        let n = Unix.read r chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes out chunk 0 n;
          pump ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
  in
  let finished = pump () in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  let lines = List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (Buffer.contents out)) in
  match (finished, status, List.rev lines) with
  | false, _, _ -> Error (Printf.sprintf "timed out after %.0f s" timeout_s)
  | true, _, [] -> Error "printed nothing"
  | true, status, last :: _ -> (
    match Json.parse last with
    | j -> Ok (j, status)
    | exception Json.Parse_error e -> Error ("last line is not JSON: " ^ e))

let child_timeout_s = 180.

let child_args ~workload ~seed ~seconds ~traced =
  [
    "--workload";
    workload;
    "--seed";
    string_of_int seed;
    "--seconds";
    Printf.sprintf "%g" seconds;
    "--trace";
    (if traced then "1" else "0");
  ]

let metric_values j =
  List.map
    (fun (k, v) -> (k, Json.to_num (Json.member_exn "value" v), Json.to_str (Json.member_exn "unit" v)))
    (Json.to_assoc (Json.member_exn "metrics" j))

(* ---- repeat ----------------------------------------------------------- *)

let repeat ~k ~workloads ~seed ~seconds ~traced ~json =
  (* workload -> metric -> values, newest first *)
  let table = List.map (fun w -> (w, Hashtbl.create 16)) workloads in
  let units = Hashtbl.create 64 in
  let failed = ref false in
  (* Workloads interleave run by run, so machine drift spreads evenly. *)
  for i = 0 to k - 1 do
    List.iter
      (fun w ->
        let s = seed + i in
        match run_child (child_args ~workload:w ~seed:s ~seconds ~traced) ~timeout_s:child_timeout_s with
        | Error e ->
          failed := true;
          Printf.printf "%s seed %d: %s\n%!" w s e
        | Ok (j, status) ->
          if status <> Unix.WEXITED 0 || Json.member "correct" j <> Some (Json.Bool true) then begin
            failed := true;
            Printf.printf "%s seed %d: output check failed\n%!" w s
          end;
          let h = List.assoc w table in
          List.iter
            (fun (name, v, u) ->
              Hashtbl.replace units name u;
              Hashtbl.replace h name (v :: Option.value (Hashtbl.find_opt h name) ~default:[]))
            (metric_values j);
          Printf.printf "%s seed %d done\n%!" w s)
      workloads
  done;
  let runs =
    List.map
      (fun (w, h) ->
        let names = List.sort String.compare (Hashtbl.fold (fun n _ acc -> n :: acc) h []) in
        Printf.printf "\n== %s (%d runs) ==\n%-30s %14s %14s %14s %8s\n" w k "metric" "median" "q1" "q3" "spread";
        let per_metric =
          List.map
            (fun n ->
              let vs = List.rev (Hashtbl.find h n) in
              let q1, q3 = Samples.quartiles vs in
              Printf.printf "%-30s %14.6g %14.6g %14.6g %7.2f%%  %s\n" n (Samples.median vs) q1 q3
                (100. *. Samples.spread vs) (Hashtbl.find units n);
              (n, Json.Arr (List.map (fun v -> Json.Num v) vs)))
            names
        in
        (w, Json.Obj per_metric))
      table
  in
  Option.iter
    (fun path ->
      Json.write_file path
        (Json.Obj
           [
             ("seconds", Json.Num seconds);
             ("trace", Json.Bool traced);
             ("first_seed", Json.Num (float_of_int seed));
             ("meta", meta ());
             ("units", Json.Obj (Hashtbl.fold (fun n u acc -> (n, Json.Str u) :: acc) units []));
             ("runs", Json.Obj runs);
           ]))
    json;
  exit (if !failed then 1 else 0)

(* ---- compare ---------------------------------------------------------- *)

(* The rule of the benchmark's bounds, per (end-to-end metric, workload):
   B regressed when its median is worse than A's by more than the bound;
   when A's own quartile spread is wider than the bound the pair is
   unresolved, unless every run of B beats every run of A; B improved when
   it is better by more than A's spread and wins at least nine tenths of
   the run pairs. *)
let compare_files a b ~bench =
  let e2e =
    List.map
      (fun e ->
        ( Json.to_str (Json.member_exn "name" e),
          Json.to_str (Json.member_exn "better" e) = "lower",
          Json.to_num (Json.member_exn "bound" e) ))
      (Json.to_list (Json.member_exn "end_to_end" (Json.read_file bench)))
  in
  let runs f = Json.to_assoc (Json.member_exn "runs" (Json.read_file f)) in
  let ra = runs a and rb = runs b in
  let nums j = List.map Json.to_num (Json.to_list j) in
  let bad = ref 0 in
  Printf.printf "%-14s %-16s %12s %12s %8s %7s %8s  %s\n" "workload" "metric" "median A" "median B" "change"
    "bound" "spreadA" "verdict";
  List.iter
    (fun (w, ma) ->
      match List.assoc_opt w rb with
      | None ->
        incr bad;
        Printf.printf "%-14s missing from %s\n" w b
      | Some mb ->
        List.iter
          (fun (name, lower, bound) ->
            match (Json.member name ma, Json.member name mb) with
            | Some va, Some vb ->
              let va = nums va and vb = nums vb in
              let med_a = Samples.median va and med_b = Samples.median vb in
              let better x y = if lower then x < y else x > y in
              let worse = (if lower then med_b -. med_a else med_a -. med_b) /. Float.abs med_a in
              let spread_a = Samples.spread va in
              let all_better = List.for_all (fun x -> List.for_all (fun y -> better x y) va) vb in
              let rec pairs xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: pairs xs ys | _ -> [] in
              let pairs = pairs va vb in
              let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
              let verdict =
                if spread_a > bound && not all_better then "unresolved"
                else if worse > bound then "regressed"
                else if -.worse > spread_a && 10 * wins >= 9 * List.length pairs then "improved"
                else "within"
              in
              if verdict = "unresolved" || verdict = "regressed" then incr bad;
              Printf.printf "%-14s %-16s %12.6g %12.6g %+7.2f%% %6.1f%% %7.2f%%  %s\n" w name med_a med_b
                (-100. *. worse) (100. *. bound) (100. *. spread_a) verdict
            | _ ->
              incr bad;
              Printf.printf "%-14s %-16s missing\n" w name)
          e2e)
    ra;
  Printf.printf "%s\n" (if !bad = 0 then "every pair within its bound" else Printf.sprintf "%d pair(s) not within bound" !bad);
  exit (if !bad = 0 then 0 else 1)

(* ---- smoke ------------------------------------------------------------ *)

(* Every workload named in BENCHMARK.json, untraced and traced, for a short
   run: each must print every metric BENCHMARK.json names for its mode,
   pass its output checks, and report fail_ratio = 0. *)
let smoke ~bench ~seconds =
  let bj = Json.read_file bench in
  let names key = List.map (fun e -> Json.to_str (Json.member_exn "name" e)) (Json.to_list (Json.member_exn key bj)) in
  let ok = ref true in
  let problem fmt =
    Printf.ksprintf
      (fun s ->
        ok := false;
        print_endline ("smoke: " ^ s))
      fmt
  in
  let workloads = names "workloads" in
  List.iter (fun w -> if kind_of w = None then problem "BENCHMARK.json names unknown workload %s" w) workloads;
  List.iter
    (fun w ->
      List.iter
        (fun traced ->
          let expected = names (if traced then "per_layer" else "end_to_end") in
          match run_child (child_args ~workload:w ~seed:1 ~seconds ~traced) ~timeout_s:60. with
          | Error e -> problem "%s trace=%b: %s" w traced e
          | Ok (j, status) ->
            if status <> Unix.WEXITED 0 then problem "%s trace=%b: exit status not 0" w traced;
            if Json.member "correct" j <> Some (Json.Bool true) then problem "%s trace=%b: not correct" w traced;
            if Json.member "failed" j <> Some (Json.Num 0.) then problem "%s trace=%b: failures reported" w traced;
            let got = metric_values j in
            List.iter
              (fun n -> if not (List.exists (fun (k, _, _) -> k = n) got) then problem "%s trace=%b: %s not printed" w traced n)
              expected;
            List.iter
              (fun (k, v, _) -> if k = "fail_ratio" && v <> 0. then problem "%s trace=%b: fail_ratio %g" w traced v)
              got;
            Printf.printf "smoke: %s trace=%b: %d metrics\n%!" w traced (List.length got))
        [ false; true ])
    workloads;
  exit (if !ok then 0 else 1)

(* ---- entry ------------------------------------------------------------ *)

let () =
  let opts, pos = parse_args (List.tl (Array.to_list Sys.argv)) in
  let seed = opt opts "--seed" int_of_string_opt ~default:1 in
  let traced = opt opts "--trace" trace_of ~default:false in
  let json = List.assoc_opt "--json" opts in
  let bench = Option.value (List.assoc_opt "--bench" opts) ~default:"BENCHMARK.json" in
  match pos with
  | [ "compare"; a; b ] -> compare_files a b ~bench
  | [ "smoke" ] -> smoke ~bench ~seconds:(opt opts "--seconds" positive_float ~default:0.3)
  | [] -> (
    let seconds = opt opts "--seconds" positive_float ~default:15. in
    match List.assoc_opt "--repeat" opts with
    | Some k ->
      let k = match int_of_string_opt k with Some k when k > 0 -> k | _ -> die_usage "bad --repeat" in
      let workloads =
        match List.assoc_opt "--workload" opts with
        | Some w ->
          if kind_of w = None then die_usage ("unknown workload " ^ w);
          [ w ]
        | None -> List.map fst Workload.kinds
      in
      repeat ~k ~workloads ~seed ~seconds ~traced ~json
    | None -> (
      match List.assoc_opt "--workload" opts with
      | Some workload -> run_once ~workload ~seed ~seconds ~traced ~json
      | None -> die_usage "--workload is required"))
  | _ -> die_usage "unexpected arguments"
