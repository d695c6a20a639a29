(** Repo-specific concurrency/correctness lint over the compiler-libs
    Parsetree.

    Rules (slugs as reported in {!violation.rule}):

    - ["atomic-confined"]: [Atomic.*] only in the allowlisted lock-free
      modules.
    - ["poly-compare"]: bare polymorphic [compare] under [lib/]; structural
      [=]/[<>] in the data-path libraries.
    - ["obj-unsafe"]: [Obj.*] only in the designated safe module.
    - ["mli-parity"]: every [.ml] under [lib/] has a sibling [.mli].
    - ["hot-alloc"]: no closures / [Printf] / [Format] / [List] / [^] / [@]
      inside [@sds.hot] functions; [@sds.cold] subtrees are exempt.
    - ["bigarray-unsafe"]: [Bigarray.*.unsafe_*] only in the allowlisted
      data-path modules, and there only inside [@sds.hot] functions.
    - ["metric-registration"]: [Metrics.counter/gauge/histogram/probe]
      only at module top level (never inside a function, least of all an
      [@sds.hot] one), with literal names following the lowercase
      dot-separated [layer.noun] convention.
    - ["fault-confined"]: [Sds_fault.inject] call sites only in the
      allowlisted crash-recovery modules, and inside [@sds.hot] functions
      only under the [if Sds_fault.armed () then ...] zero-cost gate.
    - ["fence-discipline"]: no plain [<-] writes, in the protocol
      libraries, to field names the model extraction maps treat as
      synchronizing state ([tail], [state], [seq], [credits]); provably
      single-domain structures are file-allowlisted.
    - ["c-stub-confined"]: an [external] bound to a C symbol (a name not
      starting with [%]) only in the allowlisted modules, each of which
      validates its arguments before the call; compiler primitives are
      free anywhere.
    - ["parse-error"]: the file does not parse (always reported).

    Suppress any rule locally with [(e [@sds.allow "rule-slug"])]. *)

type violation = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

type config = {
  atomic_allow : string list;
  obj_allow : string list;
  bigarray_allow : string list;
  fault_allow : string list;
  atomic_dirs : string list;
  obj_dirs : string list;
  bigarray_dirs : string list;
  fault_dirs : string list;
  compare_dirs : string list;
  data_path_dirs : string list;
  mli_dirs : string list;
  metric_dirs : string list;
  metric_allow : string list;
  fence_dirs : string list;
  fence_fields : string list;
  fence_allow : string list;
  cstub_dirs : string list;
  cstub_allow : string list;
  scan_dirs : string list;
  exclude_dirs : string list;
}

val default : config
(** The tree's policy: see [docs/static-analysis.md]. *)

val all_rules : string list

val lint_source : config:config -> path:string -> source:string -> violation list
(** Lint one compilation unit from a string.  [path] (repo-relative) selects
    which rules apply; it does not need to exist on disk. *)

val lint_file : config:config -> root:string -> path:string -> violation list

val ml_files : config:config -> root:string -> string list
(** Repo-relative [.ml] paths under [config.scan_dirs], sorted. *)

val lint_tree : config:config -> root:string -> violation list
(** Lint every [.ml] under [config.scan_dirs] (pruning [exclude_dirs]) and
    check [.mli] parity. *)

val check_mli_parity : config:config -> root:string -> violation list

val pp_violation : Format.formatter -> violation -> unit
val to_string : violation -> string

val to_github : violation -> string
(** The violation as a GitHub Actions [::error] workflow command, so a CI
    run annotates the offending source line in the diff view. *)
