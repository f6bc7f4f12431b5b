(** Reference PTX interpreter: the original decode-per-step engine,
    retained verbatim as the executable specification for the flat
    bytecode engine in {!Interp}, and the only other engine: the two are
    structurally independent (decode per step versus lowering once per
    launch), so a lowering bug cannot hide in both.

    Semantics are identical to {!Interp.run} at [~domains:1] — output
    buffers, all sixteen counters and trap messages must match exactly,
    and [test/test_interp_diff.ml] enforces this differentially over
    sampled GEMM/CONV configurations and random programs. Two deliberate
    differences: this engine is always serial, and it does not export
    [interp.*] metrics to the {!Obs} trace (it exists to be compared
    against, not profiled). *)

val run :
  ?max_dynamic:int ->
  Program.t ->
  grid:int * int * int ->
  block:int * int * int ->
  bufs:(string * float array) list ->
  iargs:(string * int) list ->
  Interp.counters
(** See {!Interp.run}; raises {!Interp.Trap} with identical messages. *)
