(** Runtime kernel inference (paper §6).

    At runtime the input parameters are fixed; the trained model is
    optimized over tuning parameters only, by exhaustive search over the
    legal grid — "guaranteed to find the global optimum within the
    specified search range" — followed by re-benchmarking the top-k
    candidates on the device "to smooth out the inherent noise of our
    predictive model".

    The pipeline (see DESIGN.md, "Planning hot path") is a bound-pruned
    lattice enumeration whose surviving leaves are exactly the legal set
    (the deepest pruning levels check every legality conjunct),
    per-query featurization caching ({!Features.query}), and one
    matrix-matrix network evaluation per layer over the whole candidate
    batch ({!Mlp.Network.forward_batch}), fanned across domains.

    Float contract: a test-only scalar reference (unpruned enumeration
    with full cost-record legality, per-candidate featurization and one
    {!Profile.predict_std_one} call per candidate) computes
    bit-identical predictions — same enumeration order, same feature
    values, same accumulation order in the network — so it ranks
    candidates identically ({!top_indices}), consumes the rebench [rng] identically, and
    returns the {e same chosen config}. Differential tests and the
    deterministic [plan_argmax_equal] bench check assert this.

    Under [ISAAC_TRACE] the stages report as [search.enumerate],
    [search.score] and [search.rebench] spans, and every re-benchmarked
    candidate emits a [config] event carrying both its predicted and
    measured TFLOPS — the data for studying model miscalibration on the
    short-list. *)

type candidate = {
  config : Codegen.Gemm_params.config;
  predicted_tflops : float;
}

type result = {
  best : Codegen.Gemm_params.config;
  best_measurement : Gpu.Executor.measurement;
  candidates : candidate array;   (** top-k by model prediction, ranked *)
  n_legal : int;                  (** size of the legal space searched *)
  n_scored : int;                 (** configurations scored by the model *)
  phases : (string * float) list;
  (** wall-clock seconds per pipeline phase, in order: [enumerate]
      (legal-space construction), [featurize] (feature-matrix fill),
      [inference] (network forward), [argmax] ({!top_indices}) and
      [rebench] (on-device short-list timing). Surfaced by
      [isaac_query --timing]. *)
}

val legal_gemm_config_array :
  Gpu.Device.t -> Codegen.Gemm_params.input -> Codegen.Gemm_params.config array
(** All fully legal configurations for this input, enumerated in a single
    bound-pruned pass over the space, in reverse grid order; the
    differential tests hold it to element-for-element equality with an
    unpruned full-cost reference enumeration. {!exhaustive_gemm} and
    {!oracle_gemm} enumerate the same set. *)

val legal_conv_config_array :
  Gpu.Device.t -> Codegen.Conv_params.input -> Codegen.Gemm_params.config array
(** CONV analogue of {!legal_gemm_config_array}: CONV legality is GEMM
    legality of the implicit-GEMM view ([Conv_params.gemm_input]), so the
    same pruned enumerator runs on that view. *)

val top_indices : float array -> int -> int array
(** [top_indices pred k] is the short-list rule: the indices of the
    [min k (Array.length pred)] best predictions, best first. Rank is
    [pred] descending under [Float.compare] (so NaN ranks last), ties
    broken by ascending index — the first [k] of a stable descending
    sort, found in one pass without sorting the rest. *)

val exhaustive_gemm :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Profile.t ->
  Codegen.Gemm_params.input ->
  result option
(** Full §6 pipeline. [top_k] defaults to 100 (as in the paper); [cap]
    (default 60000, env ISAAC_SEARCH_CAP) bounds how many legal
    configurations are scored — beyond it a deterministic subsample is
    scored instead, trading the global-optimum guarantee for latency
    exactly like shrinking the paper's "specified search range".
    [None] when no configuration is legal (never happens for the spaces
    shipped here). [domains > 1] spreads featurization and model scoring
    over OCaml 5 domains; it defaults to
    [Util.Parallel.recommended_domains ()], so ISAAC_DOMAINS governs it.
    Results are identical for any [domains] (given equal [rng] state).
    Features follow the profile's [log_features] flag. *)

val exhaustive_conv :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Profile.t ->
  Codegen.Conv_params.input ->
  result option
(** CONV analogue of {!exhaustive_gemm}. *)

val oracle_gemm :
  Gpu.Device.t -> Codegen.Gemm_params.input ->
  (Codegen.Gemm_params.config * Gpu.Perf_model.report) option
(** Noise-free argmax of the timing model over the whole legal space: the
    best any search could do. Used by tests ("the MLP search reaches ≥x%
    of the oracle") and by the §8 analysis tables. *)

val oracle_conv :
  Gpu.Device.t -> Codegen.Conv_params.input ->
  (Codegen.Gemm_params.config * Gpu.Perf_model.report) option
(** CONV analogue of {!oracle_gemm}. *)
