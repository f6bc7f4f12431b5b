module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params
module S = Tuner.Search

(* Growable push into an array (the space has tens of thousands of legal
   points). Results are reversed so callers see reverse grid order, the
   order the production enumerator returns. *)
let grow_push buf n cfg =
  if !n = Array.length !buf then begin
    let bigger = Array.make (max 1024 (2 * !n)) cfg in
    Array.blit !buf 0 bigger 0 !n;
    buf := bigger
  end;
  !buf.(!n) <- cfg;
  incr n

let rev_of buf n = Array.init n (fun i -> buf.(n - 1 - i))

(* One unpruned pass over the whole grid, with legality decided by
   building the full cost record. *)
let legal_configs ~structurally_legal ~cost device =
  let buf = ref [||] and n = ref 0 in
  Tuner.Config_space.iter Tuner.Config_space.gemm (fun arr ->
      let cfg = GP.config_of_array arr in
      if structurally_legal cfg && Gpu.Executor.legal device (cost cfg) then
        grow_push buf n cfg);
  rev_of !buf !n

let grid_leaves () =
  let n = ref 0 in
  Tuner.Config_space.iter Tuner.Config_space.gemm (fun _ -> incr n);
  !n

let legal_gemm_config_array device (i : GP.input) =
  legal_configs device
    ~structurally_legal:(fun c -> GP.structurally_legal i c)
    ~cost:(fun c -> GP.cost i c)

let legal_conv_config_array device (i : CP.input) =
  legal_configs device
    ~structurally_legal:(fun c -> CP.structurally_legal i c)
    ~cost:(fun c -> CP.cost i c)

(* The production search's default cap and subsample rule. *)
let default_cap () = Util.Env_config.int "ISAAC_SEARCH_CAP" 60_000

let subsample cap items =
  let n = Array.length items in
  if n <= cap then items
  else begin
    let stride = (n + cap - 1) / cap in
    Array.init ((n + stride - 1) / stride) (fun i -> items.(i * stride))
  end

let exhaustive ~legal ~features_of ~cost ?(top_k = 100) ?cap ?noise ?domains
    rng device ~profile =
  let cap = match cap with Some c -> c | None -> default_cap () in
  let domains =
    match domains with
    | Some d -> d
    | None -> Util.Parallel.recommended_domains ()
  in
  let all, t_enum = Obs.Span.timed (fun () -> legal device) in
  let n_legal = Array.length all in
  if n_legal = 0 then None
  else begin
    let scored_cfgs = subsample cap all in
    let n = Array.length scored_cfgs in
    let feats, t_feat =
      Obs.Span.timed (fun () -> Array.map features_of scored_cfgs)
    in
    let pred, t_inf =
      Obs.Span.timed (fun () ->
          Util.Parallel.map_array ~domains
            (Tuner.Profile.predict_std_one profile)
            feats)
    in
    let candidates, t_argmax =
      Obs.Span.timed (fun () ->
          (* Stable, so equal predictions keep ascending index order:
             this defines the tie order the production top-k matches. *)
          let order = Array.init n (fun i -> i) in
          Array.stable_sort (fun a b -> Float.compare pred.(b) pred.(a)) order;
          Array.init (min top_k n) (fun rank ->
              let idx = order.(rank) in
              { S.config = scored_cfgs.(idx);
                predicted_tflops =
                  Tuner.Features.untarget profile.Tuner.Profile.scaler
                    pred.(idx) }))
    in
    let best, t_rebench =
      Obs.Span.timed (fun () ->
          Array.fold_left
            (fun best (cand : S.candidate) ->
              match
                Gpu.Executor.measure_best_of ?noise rng device
                  (cost cand.config)
              with
              | None -> best
              | Some m ->
                (match best with
                 | Some (_, bm) when bm.Gpu.Executor.seconds <= m.seconds ->
                   best
                 | _ -> Some (cand.config, m)))
            None candidates)
    in
    Option.map
      (fun (cfg, m) ->
        { S.best = cfg;
          best_measurement = m;
          candidates;
          n_legal;
          n_scored = n;
          phases =
            [ ("enumerate", t_enum); ("featurize", t_feat);
              ("inference", t_inf); ("argmax", t_argmax);
              ("rebench", t_rebench) ] })
      best
  end

let exhaustive_gemm ?top_k ?cap ?noise ?domains rng device ~profile
    (i : GP.input) =
  let log = profile.Tuner.Profile.log_features in
  exhaustive ?top_k ?cap ?noise ?domains rng device ~profile
    ~legal:(fun d -> legal_gemm_config_array d i)
    ~features_of:(fun cfg ->
      Tuner.Features.gemm_features ~log i (GP.config_to_array cfg))
    ~cost:(fun cfg -> GP.cost i cfg)

let exhaustive_conv ?top_k ?cap ?noise ?domains rng device ~profile
    (i : CP.input) =
  let log = profile.Tuner.Profile.log_features in
  exhaustive ?top_k ?cap ?noise ?domains rng device ~profile
    ~legal:(fun d -> legal_conv_config_array d i)
    ~features_of:(fun cfg ->
      Tuner.Features.conv_features ~log i (GP.config_to_array cfg))
    ~cost:(fun cfg -> CP.cost i cfg)
