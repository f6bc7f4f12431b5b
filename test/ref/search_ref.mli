(** Scalar reference for {!Tuner.Search}: the original planning
    pipeline, kept as the differential oracle for the production
    search.

    Every stage is the naive version of its production counterpart:
    - an unpruned walk over the whole configuration grid, deciding
      legality by building each candidate's full cost record;
    - the same deterministic cap rule (every ⌈n/cap⌉-th legal config);
    - per-candidate featurization with {!Tuner.Features.gemm_features} /
      {!Tuner.Features.conv_features};
    - one {!Tuner.Profile.predict_std_one} call per candidate;
    - a full stable sort (so ties keep ascending index order, the tie
      order {!Tuner.Search.top_indices} must match), the top-k, and a
      re-benchmark of the short-list with the given [rng].

    Given equal [rng] state it must return the result
    {!Tuner.Search.exhaustive_gemm} returns, bit for bit: the same legal
    set in the same order, the same predictions, the same ranking and
    the same rebench draws. The tests and the bench's
    [plan_argmax_equal] gate assert that. *)

val grid_leaves : unit -> int
(** Number of leaves the unpruned walk visits: the size of the whole
    configuration grid, whatever the input. *)

val legal_gemm_config_array :
  Gpu.Device.t -> Codegen.Gemm_params.input -> Codegen.Gemm_params.config array
(** Every legal configuration, found by the unpruned full-cost walk, in
    reverse grid order (the order {!Tuner.Search.legal_gemm_config_array}
    must reproduce). *)

val legal_conv_config_array :
  Gpu.Device.t -> Codegen.Conv_params.input -> Codegen.Gemm_params.config array
(** CONV analogue of {!legal_gemm_config_array}, with CONV legality and
    cost records. *)

val exhaustive_gemm :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Tuner.Profile.t ->
  Codegen.Gemm_params.input ->
  Tuner.Search.result option
(** The scalar pipeline; defaults as in {!Tuner.Search.exhaustive_gemm}
    ([top_k] 100, [cap] from [ISAAC_SEARCH_CAP] or 60000, [domains] from
    {!Util.Parallel.recommended_domains}). *)

val exhaustive_conv :
  ?top_k:int ->
  ?cap:int ->
  ?noise:float ->
  ?domains:int ->
  Util.Rng.t ->
  Gpu.Device.t ->
  profile:Tuner.Profile.t ->
  Codegen.Conv_params.input ->
  Tuner.Search.result option
(** CONV analogue of {!exhaustive_gemm}. *)
