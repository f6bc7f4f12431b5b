(* The ledger benchmark. One run = one workload at one seed:

     ledger.exe --workload cold_plan|warm_hot --seed N
                --seconds S --trace 0|1

   Every run does the same work — tune, score, set up, plan cold, serve
   warm, validate kernels, judge plan quality — so every end-to-end
   metric is measured on every workload. A workload decides which part
   it stresses (README.md says why each was chosen); the others run
   smaller, in short stretches interleaved with the stressed part, so
   that each figure is taken across the whole run. The last line of
   standard output is the result object; everything else is
   commentary. *)

module T = Traffic
module M = Measure

(* isaac_tune's defaults. *)
let tune_samples = 8000
let tune_epochs = 30
let heldout_samples = 8000

(* A cold p90 needs at least ten samples beyond it. *)
let min_cold_requests = 100
let cold_stream_length = 4000

(* Clients: one per core, at most two — the benchmark never runs more
   domains than the reference box has cores. *)
let clients = max 1 (min 2 (Domain.recommended_domain_count ()))

type workload = Cold_plan | Warm_hot

let workload_of_string = function
  | "cold_plan" -> Some Cold_plan
  | "warm_hot" -> Some Warm_hot
  | _ -> None

let workload_name = function
  | Cold_plan -> "cold_plan"
  | Warm_hot -> "warm_hot"

(* Both workloads validate the same number of interpreter
   instructions. *)
let validate_instrs = 100_000_000

(* cold_plan: set-ups to take the median of; [probe_rounds] timed warm
   rounds of [probe_round_s] in [warm_blocks] blocks spread over the
   cold stream once the warm set is planned, each block after
   [probe_warmup_rounds] untimed ones; a validation segment after every
   [validate_every]-th cold plan. *)
let cold_setups = 21
let probe_round_s = 0.25
let probe_warmup_rounds = 2
let probe_rounds = 12
let warm_blocks = 3
let warm_every = 28
let validate_every = 8
let cold_segment_s = 0.1

(* warm_hot: set-ups (each planning the warm set) to take the median of,
   each followed by a block of warm rounds of [warm_round_s] on its
   daemon, [warm_warmup_s] of them untimed, --seconds of them timed over
   all blocks, each round followed by a validation segment of
   [warm_segment_s]. *)
let warm_setups = 3
let warm_round_s = 0.5
let warm_warmup_s = 1.0
let warm_segment_s = 0.06

(* Every gated operation of the run. *)
let attempted = ref 0
let failed = ref 0
let failures = ref []

let gate ok msg =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !failures < 10 then failures := msg () :: !failures
  end

let sub_seed seed tag = Hashtbl.hash (seed, tag)

let info fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* Run [f c] for every client [c], client 0 on the calling domain. *)
let on_clients f =
  let others = List.init (clients - 1) (fun c -> Domain.spawn (fun () -> f (c + 1))) in
  let first = f 0 in
  first :: List.map Domain.join others

(* --- tune and score -------------------------------------------------------- *)

type layer_tune = {
  mutable fit_s : float;
  mutable fits : int;
  mutable acceptance : float list;
  mutable generate_s : float;
  mutable samples : int;
  mutable train_s : float;
  mutable epochs : int;
}

let tune_layers =
  { fit_s = 0.0; fits = 0; acceptance = []; generate_s = 0.0; samples = 0;
    train_s = 0.0; epochs = 0 }

(* Under tracing, [Isaac.tune]'s three steps are called one by one —
   fit the sampler, generate the dataset, train — with the same rng, so
   the profile is bit-identical to the untraced run's. *)
let tune_op ~traced ~seed op =
  let device = T.device in
  let rng = Util.Rng.create seed in
  if not traced then Isaac.profile (Isaac.tune ~samples:tune_samples ~epochs:tune_epochs rng device ~op ())
  else begin
    let fit, generate, random_input_legal =
      let domains = Util.Parallel.recommended_domains () in
      match op with
      | `Gemm ->
        ( (fun () -> Tuner.Dataset.fit_gemm_sampler rng device),
          (fun sampler ->
            Tuner.Dataset.generate_gemm ~domains ~sampler rng device ~n:tune_samples),
          fun r cfg ->
            Tuner.Dataset.gemm_legal device (Tuner.Dataset.random_gemm_input r) cfg )
      | `Conv ->
        ( (fun () -> Tuner.Dataset.fit_conv_sampler rng device),
          (fun sampler ->
            Tuner.Dataset.generate_conv ~domains ~sampler rng device ~n:tune_samples),
          fun r cfg ->
            Tuner.Dataset.conv_legal device (Tuner.Dataset.random_conv_input r) cfg )
    in
    let (sampler, profile), _ =
      M.span "tune" (fun parent ->
          let sampler, fit_s = M.span ~parent "sampler.fit" (fun _ -> fit ()) in
          let ds, generate_s =
            M.span ~parent "dataset.generate" (fun _ -> generate sampler)
          in
          let profile, train_s =
            M.span ~parent "train" (fun _ ->
                Tuner.Profile.train ~epochs:tune_epochs rng ds)
          in
          let l = tune_layers in
          l.fit_s <- l.fit_s +. fit_s;
          l.fits <- l.fits + 1;
          l.generate_s <- l.generate_s +. generate_s;
          l.samples <- l.samples + Tuner.Dataset.size ds;
          l.train_s <- l.train_s +. train_s;
          l.epochs <- l.epochs + tune_epochs;
          (sampler, profile))
    in
    (* Acceptance of the fitted sampler on fresh random inputs, drawn from
       a separate rng so the tuning stream is untouched. *)
    let arng = Util.Rng.create (sub_seed seed "acceptance") in
    tune_layers.acceptance <-
      Tuner.Sampler.acceptance_rate ~trials:20_000
        ~sample:(fun () -> Tuner.Sampler.sample arng sampler)
        ~legal:(random_input_legal arng)
      :: tune_layers.acceptance;
    profile
  end

(* Tune GEMM then CONV, probing the host every half second; returns
   both profiles and the stretch. *)
let tune_probe_every_s = 0.5

let tune_both ~traced ~seed =
  let ((g, c), pace), _ =
    M.span "phase.tune" (fun _ ->
        M.probed_stretch ~every:tune_probe_every_s (fun () ->
            let g = tune_op ~traced ~seed `Gemm in
            let c = tune_op ~traced ~seed `Conv in
            (g, c)))
  in
  (g, c, pace)

(* Mean held-out MSE of the two profiles on seeded datasets the tuner
   never saw, large enough that the draw of the held-out set moves the
   figure by well under 1%. *)
let model_mse ~seed (gemm, conv) =
  let score profile generate tag =
    let rng = Util.Rng.create (sub_seed seed tag) in
    Tuner.Profile.mse profile (generate rng T.device)
  in
  let g =
    score gemm (fun rng d -> Tuner.Dataset.generate_gemm ~domains:1 rng d ~n:heldout_samples) "heldout-gemm"
  in
  let c =
    score conv (fun rng d -> Tuner.Dataset.generate_conv ~domains:1 rng d ~n:heldout_samples) "heldout-conv"
  in
  (g +. c) /. 2.0

(* --- serving --------------------------------------------------------------- *)

type cold_sample = {
  input : T.input;
  line : string;
  planned : T.planned;
  handle_s : float;    (* client-observed, benchmark clock *)
  pace : M.paced;      (* the paced stretch the request ran in *)
  start_ns : int64;
}

let create_daemon (gemm_path, conv_path) =
  match
    Serve.create ~cache_entries:(2 * cold_stream_length) ~gemm_profile:gemm_path
      ~conv_profile:conv_path ()
  with
  | Ok s -> s
  | Error e -> failwith ("Serve.create: " ^ e)

let unpaced = { M.wall_s = Float.nan; start_ns = 0L; end_ns = 0L }

(* One cold request: the closed-loop client blocks on the plan. *)
let plan_one serve input =
  let line = T.request_line input in
  let start_ns = M.now_ns () in
  let response, _ = Serve.handle serve line in
  let handle_s = M.seconds_since start_ns in
  match T.check_plan ~expect:"miss" input response with
  | Ok planned -> Ok { input; line; planned; handle_s; pace = unpaced; start_ns }
  | Error e -> Error e

(* A cold request paced on its own. *)
let plan_paced serve input =
  let r, pace = M.paced (fun () -> plan_one serve input) in
  Result.map (fun s -> { s with pace }) r

let gate_plan r =
  gate (Result.is_ok r) (fun () -> "cold: " ^ Result.get_error r);
  Result.to_option r

(* One set-up: load the profiles from disk into a fresh daemon, and on
   warm_hot plan the warm set, one input after another. The load and
   each plan are paced on their own. Returns the daemon, its plans (each
   carrying its stretch) and every stretch. *)
let setup_once ~preplan paths =
  let (serve, load, planned), _ =
    M.span "phase.setup" (fun _ ->
        let serve, load = M.paced (fun () -> create_daemon paths) in
        let planned =
          if preplan then
            List.filter_map (fun i -> gate_plan (plan_paced serve i)) (Array.to_list T.warm_set)
          else []
        in
        (serve, load, planned))
  in
  (serve, planned, load :: List.map (fun p -> p.pace) planned)

(* Request spans of the traced run: the client's Serve.handle call and,
   inside it, the Isaac call as Serve timed it. *)
let record_request_spans samples =
  List.iter
    (fun s ->
      let req = M.fresh_req () in
      let parent = M.record ~req ~start_ns:s.start_ns ~dur_s:s.handle_s "serve.handle" in
      ignore
        (M.record ~parent ~req ~start_ns:s.start_ns ~dur_s:s.planned.latency_s
           "isaac.plan"))
    samples

(* --- warm ------------------------------------------------------------------ *)

(* Latency histograms in 10 ns buckets up to 200 us, one per client and
   round; slower requests (GC pauses, preemption) are kept
   individually. *)
let bucket_ns = 10
let buckets = 20_000

type round = {
  hist : int array;
  mutable slow : float list;  (* seconds *)
  mutable n : int;
  mutable sum_ns : int;
  mutable busy_ns : int;      (* from the client's first request to its last response *)
  mutable bad : int;
  mutable first_bad : string option;
}

(* Zipf(1) over the targets in warm-set order: target r is requested
   with probability proportional to 1/(r+1). The order is fixed, so the
   seed draws the stream but not which inputs are popular. *)
let zipf_stream rng n_targets length =
  let weights = Array.init n_targets (fun r -> 1.0 /. float_of_int (r + 1)) in
  Array.init length (fun _ -> Util.Rng.choice_weighted rng weights)

(* Client [c]'s share of one round: closed-loop requests from its own
   Zipf stream, resuming at [pos.(c)], for [round_s] from its first
   request. Every response is timed and gated. *)
let warm_round serve targets streams pos ~round_s c =
  let stream = streams.(c) in
  let mask = Array.length stream - 1 in
  let r =
    { hist = Array.make buckets 0; slow = []; n = 0; sum_ns = 0; busy_ns = 0; bad = 0;
      first_bad = None }
  in
  let start = M.now_ns () in
  let until = Int64.add start (Int64.of_float (round_s *. 1e9)) in
  let i = ref pos.(c) and running = ref true in
  while !running do
    let line, plan_bytes = targets.(stream.(!i land mask)) in
    incr i;
    let t0 = M.now_ns () in
    let response, _ = Serve.handle serve line in
    let t1 = M.now_ns () in
    let ns = Int64.to_int (Int64.sub t1 t0) in
    r.n <- r.n + 1;
    r.sum_ns <- r.sum_ns + ns;
    let b = ns / bucket_ns in
    if b < buckets then r.hist.(b) <- r.hist.(b) + 1
    else r.slow <- (float_of_int ns *. 1e-9) :: r.slow;
    if not (T.is_same_hit ~plan_bytes response) then begin
      r.bad <- r.bad + 1;
      if r.first_bad = None then r.first_bad <- Some response
    end;
    r.busy_ns <- Int64.to_int (Int64.sub t1 start);
    running := Int64.compare t1 until < 0
  done;
  pos.(c) <- !i;
  r

(* Nearest-rank quantile over the clients' histograms of one round, in
   seconds; a bucket reads as its upper edge. *)
let round_quantile (rs : round list) q =
  let total = List.fold_left (fun a r -> a + r.n) 0 rs in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int total))) in
  let rec scan b acc =
    if b >= buckets then None
    else
      let acc = List.fold_left (fun a r -> a + r.hist.(b)) acc rs in
      if acc >= rank then Some (float_of_int ((b + 1) * bucket_ns) *. 1e-9)
      else scan (b + 1) acc
  in
  match scan 0 0 with
  | Some s -> s
  | None ->
    let below = List.fold_left (fun a r -> a + Array.fold_left ( + ) 0 r.hist) 0 rs in
    let slow = M.sorted (Array.of_list (List.concat_map (fun r -> r.slow) rs)) in
    slow.(min (Array.length slow - 1) (rank - below - 1))

type warm_figures = { p50_us : float; p99_us : float; req_per_s : float }

let round_count rs = List.fold_left (fun a r -> a + r.n) 0 rs

(* Hits per second of all clients together: each client's own rate over
   the time it was busy, summed, so that starting the clients' domains
   is not counted. *)
let round_rate rs =
  List.fold_left (fun a r -> a +. (float_of_int r.n /. (float_of_int r.busy_ns *. 1e-9))) 0.0 rs

type warm_result = {
  requests : int;
  timed : (round list * M.paced) list;
  handle_mean_s : float;
}

(* nproc closed-loop clients replay their Zipf streams over [targets]
   (request line, plan bytes set-up received, in warm-set order) on
   [serve] in rounds of [round_s].
   Each round is paced: the clients run, stop, and the host is probed.
   Every response is gated; [round ~timed:false] is a warm-up round,
   whose figures are dropped: the first hits after other work run slower
   while the heap settles. Returns the round function, the count of
   timed rounds so far, and the function that totals them. [acc] sums
   the program's plan and serve histograms over every round. *)
let warmer ~seed ~round_s ~acc =
  let streams =
    Array.init clients (fun c ->
        zipf_stream (Util.Rng.create (sub_seed seed ("zipf", c))) (Array.length T.warm_set) 65_536)
  in
  let pos = Array.make clients 0 in
  let timed = ref [] in
  let round serve targets ~timed:is_timed =
    let rs, pace =
      M.histo_add acc [ "plan.latency_s"; "serve.latency_s" ] (fun () ->
          M.paced (fun () -> on_clients (warm_round serve targets streams pos ~round_s)))
    in
    List.iter
      (fun r ->
        attempted := !attempted + r.n;
        failed := !failed + r.bad;
        Option.iter (fun b -> failures := ("warm: not the set-up hit: " ^ b) :: !failures) r.first_bad)
      rs;
    if is_timed then timed := (rs, pace) :: !timed
  in
  let finish () =
    let timed = List.rev !timed in
    let requests = List.fold_left (fun a (rs, _) -> a + round_count rs) 0 timed in
    let sum_ns =
      List.fold_left (fun a (rs, _) -> List.fold_left (fun a r -> a + r.sum_ns) a rs) 0 timed
    in
    { requests; timed; handle_mean_s = float_of_int sum_ns *. 1e-9 /. float_of_int requests }
  in
  (round, (fun () -> List.length !timed), finish)

(* The warm figures, each round scaled by [factor] of its stretch. *)
let warm_figures w ~factor =
  let med f = M.median (Array.of_list (List.map f w.timed)) in
  { p50_us = med (fun (rs, p) -> 1e6 *. round_quantile rs 0.50 *. factor p);
    p99_us = med (fun (rs, p) -> 1e6 *. round_quantile rs 0.99 *. factor p);
    req_per_s = med (fun (rs, p) -> round_rate rs /. factor p) }

(* Serve's parse and encode, replayed on the bytes of the warm set: the
   JSON parser Serve runs on each request line, and the encoder it runs
   on each response tree. Serve does not expose the two steps, so the
   traced run times them here, on identical bytes. *)
let replay_parse_encode targets responses =
  let reps = 2000 in
  let time_mean f =
    let _, s = M.time (fun () -> for _ = 1 to reps do Array.iter f targets done) in
    s /. float_of_int (reps * Array.length targets)
  in
  let parse_s = time_mean (fun (line, _) -> ignore (Sys.opaque_identity (Obs.Json.of_string line))) in
  let trees = Array.map Obs.Json.of_string responses in
  let encode_s =
    let _, s =
      M.time (fun () ->
          for _ = 1 to reps do
            Array.iter (fun t -> ignore (Sys.opaque_identity (Obs.Json.to_string t))) trees
          done)
    in
    s /. float_of_int (reps * Array.length trees)
  in
  (parse_s, encode_s)

(* --- plan quality ------------------------------------------------------------ *)

(* Geomeans over the quality set (the warm set as planned): chosen
   config's noise-free TFLOPS over the oracle's, and over the
   vendor-like heuristic's. The oracle sweeps the whole legal set, so it
   is spread over the clients. *)
let quality samples =
  let samples = Array.of_list samples in
  let n = Array.length samples in
  let oracle =
    on_clients (fun c ->
        List.filter_map
          (fun i -> if i mod clients = c then Some (i, T.oracle_tflops samples.(i).input) else None)
          (List.init n Fun.id))
    |> List.concat |> List.sort compare |> List.map snd |> Array.of_list
  in
  let rng = Util.Rng.create 0x7e4d in
  let chosen = Array.map (fun s -> T.model_tflops s.input s.planned.config) samples in
  let vendor = Array.map (fun s -> T.vendor_tflops rng s.input) samples in
  let ok a = Array.for_all (fun x -> Float.is_finite x && x > 0.0) a in
  gate (ok chosen && ok oracle && ok vendor) (fun () -> "quality: non-finite TFLOPS");
  ( M.geomean (Array.mapi (fun i c -> c /. oracle.(i)) chosen),
    M.geomean (Array.mapi (fun i c -> c /. vendor.(i)) chosen) )

(* --- kernel validation ------------------------------------------------------ *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type validation = {
  kernels : int;
  instrs : int;
  generate_s : float;
  interp_s : float;
  segments : M.paced list;
}

(* The test suites' tolerances: relative, growing with the reduction
   length. *)
let tolerance (dtype : Ptx.Types.dtype) k =
  let kf = float_of_int k in
  match dtype with
  | F64 -> 1e-12 *. kf
  | F32 -> 1e-13 *. kf +. 1e-9
  | F16 -> 5e-3 *. sqrt kf +. 1e-3

let random_values rng dtype n =
  Array.init n (fun _ ->
      let v = (Util.Rng.uniform rng *. 2.0) -. 1.0 in
      if dtype = Ptx.Types.F16 then Ptx.Types.round_half v else v)

let random_legal_config rng legal =
  let rec go tries =
    if tries = 0 then None
    else
      let cfg = Tuner.Config_space.random rng Tuner.Config_space.gemm in
      if legal cfg then Some (GP.config_of_array cfg) else go (tries - 1)
  in
  go 100_000

let dtypes = [| Ptx.Types.F16; F32; F64 |]

(* One seeded small-shape kernel: generate, interpret, compare with the
   reference. Returns the counters, or None when the draw had no legal
   config. *)
let validate_one rng ~gemm =
  let dtype = Util.Rng.choice rng dtypes in
  let range lo hi = Util.Rng.int_in rng lo hi in
  let launch generate bufs ~grid ~block ~iargs =
    let req = M.fresh_req () in
    let program, gen_s = M.span ~req "codegen.generate" (fun _ -> generate ()) in
    let counters, interp_s =
      M.span ~req "interp.run" (fun _ -> Ptx.Interp.run program ~grid ~block ~bufs ~iargs)
    in
    (counters, gen_s, interp_s)
  in
  if gemm then begin
    let i =
      GP.input ~dtype ~a_trans:(Util.Rng.bool rng) ~b_trans:(Util.Rng.bool rng)
        (range 8 64) (range 8 64) (range 8 128)
    in
    match random_legal_config rng (Tuner.Dataset.gemm_legal T.device i) with
    | None -> None
    | Some cfg ->
      let a = random_values rng dtype (i.m * i.k) and b = random_values rng dtype (i.k * i.n) in
      let c = Array.make (i.m * i.n) 0.0 in
      let counters, gen_s, interp_s =
        launch (fun () -> Codegen.Gemm.generate i cfg)
          [ ("A", a); ("B", b); ("C", c) ]
          ~grid:(Codegen.Gemm.grid i cfg) ~block:(Codegen.Gemm.block cfg)
          ~iargs:[ ("M", i.m); ("N", i.n); ("K", i.k) ]
      in
      Some (counters, gen_s, interp_s, c, Codegen.Gemm.reference i ~a ~b, tolerance dtype i.k,
            GP.describe_name i cfg)
  end
  else begin
    let r = Util.Rng.choice rng [| 1; 3 |] and s = Util.Rng.choice rng [| 1; 3 |] in
    let i =
      CP.input ~dtype ~stride:(range 1 2) ~pad:(Util.Rng.int rng ((min r s / 2) + 1))
        ~n:(range 1 2) ~c:(range 1 8) ~k:(range 4 32) ~p:(range 2 8) ~q:(range 2 8)
        ~r ~s ()
    in
    match random_legal_config rng (Tuner.Dataset.conv_legal T.device i) with
    | None -> None
    | Some cfg ->
      let image = random_values rng dtype (i.n * i.c * CP.h i * CP.w i) in
      let filter = random_values rng dtype (CP.crs i * i.k) in
      let gi = CP.gemm_input i in
      let lut_row, lut_delta = Codegen.Conv.tables i cfg in
      let out = Array.make (CP.npq i * i.k) 0.0 in
      let counters, gen_s, interp_s =
        launch (fun () -> Codegen.Conv.generate i cfg)
          [ ("A", Codegen.Conv.pad_image i image); ("B", filter); ("C", out);
            ("LUT_ROW", lut_row); ("LUT_DELTA", lut_delta) ]
          ~grid:(Codegen.Gemm.grid gi cfg) ~block:(Codegen.Gemm.block cfg)
          ~iargs:[ ("M", gi.m); ("N", gi.n); ("K", gi.k) ]
      in
      Some (counters, gen_s, interp_s, out, Codegen.Conv.reference i ~image ~filter,
            tolerance dtype (CP.crs i), CP.describe_name i cfg)
  end

(* The seeded validation sweep, cut into segments the caller interleaves
   with other work, so that the sweep spans the run: [step ()] validates
   for about [segment_s] and says whether budget remains; [finish ()]
   runs what remains and returns the totals. Segments are not probed at
   their ends; their factors come from the probes of the work they sit
   between. *)
let validator ~seed ~instrs:budget ~segment_s =
  let rng = Util.Rng.create (sub_seed seed "validate") in
  let draws = ref 0 and kernels = ref 0 and instrs = ref 0 in
  let generate_s = ref 0.0 and interp_s = ref 0.0 in
  let segment () =
    let t0 = M.now_ns () in
    while !instrs < budget && M.seconds_since t0 < segment_s do
      (match validate_one rng ~gemm:(!draws mod 2 = 0) with
       | None -> ()
       | Some (counters, g, s, got, want, tol, name) ->
         let mismatch = ref None in
         Array.iteri
           (fun idx w ->
             if !mismatch = None && Float.abs (got.(idx) -. w) > tol *. (1.0 +. Float.abs w) then
               mismatch := Some (Printf.sprintf "%s: out[%d] = %.9g, want %.9g" name idx got.(idx) w))
           want;
         gate (!mismatch = None) (fun () -> "validate: " ^ Option.get !mismatch);
         incr kernels;
         instrs := !instrs + Ptx.Interp.total counters;
         generate_s := !generate_s +. g;
         interp_s := !interp_s +. s);
      incr draws
    done
  in
  let segments = ref [] in
  let step () =
    if !instrs < budget then segments := snd (M.stretch segment) :: !segments;
    !instrs < budget
  in
  let finish () =
    while step () do () done;
    { kernels = !kernels; instrs = !instrs; generate_s = !generate_s; interp_s = !interp_s;
      segments = !segments }
  in
  (step, finish)

(* --- knobs ------------------------------------------------------------------- *)

(* The ambient knobs a measured run must not inherit. run.sh pins them;
   a run that finds them otherwise refuses to measure. *)
let pinned_env () =
  let env = Array.to_list (Unix.environment ()) in
  let name kv = match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv in
  let forbidden n =
    List.mem n [ "ISAAC_SEARCH_CAP"; "REPRO_SCALE"; "ISAAC_TRACE"; "ISAAC_TELEMETRY" ]
    || String.starts_with ~prefix:"ISAAC_TUNE_" n
  in
  match (Sys.getenv_opt "ISAAC_DOMAINS", List.filter forbidden (List.map name env)) with
  | Some "1", [] -> Ok ()
  | d, set ->
    Error
      (Printf.sprintf "knobs not pinned: ISAAC_DOMAINS=%s (want 1); set: [%s]"
         (Option.value d ~default:"<unset>") (String.concat " " set))

(* --- main --------------------------------------------------------------------- *)

let out_dir = ".bench_out"

let metric name unit value = (name, Obs.Json.Obj [ ("value", Obs.Json.Float value); ("unit", Obs.Json.String unit) ])

let phase_names = [ "enumerate"; "featurize"; "inference"; "argmax"; "rebench" ]

let run ~workload ~seed ~seconds ~traced =
  let name = workload_name workload in
  let tag = Printf.sprintf "%s-seed%d-trace%d" name seed (if traced then 1 else 0) in
  let dir = Filename.concat out_dir tag in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  if traced then begin
    Obs.Telemetry.start ~path:(Filename.concat dir "telemetry.jsonl") ();
    Obs.Trace.start ~path:(Filename.concat dir "program-trace.jsonl") ()
  end;
  info "ledger: workload=%s seed=%d seconds=%g trace=%b clients=%d" name seed seconds traced clients;
  let paths = (Filename.concat dir "p100-gemm.profile", Filename.concat dir "p100-conv.profile") in
  let gemm_profile, conv_profile, tune_pace = tune_both ~traced ~seed in
  Tuner.Profile.save gemm_profile (fst paths);
  Tuner.Profile.save conv_profile (snd paths);
  let mse = model_mse ~seed (gemm_profile, conv_profile) in
  let plan_hists = List.map (fun p -> "search." ^ p ^ "_s") phase_names @ [ "plan.latency_s" ] in
  let plan_acc = Hashtbl.create 8 and warm_acc = Hashtbl.create 8 in
  let setup ~preplan = M.histo_add plan_acc plan_hists (fun () -> setup_once ~preplan paths) in
  let validate_step, validate_finish =
    validator ~seed ~instrs:validate_instrs
      ~segment_s:(match workload with Cold_plan -> cold_segment_s | Warm_hot -> warm_segment_s)
  in
  let in_warm_set_order samples =
    List.filter_map
      (fun i -> List.find_opt (fun s -> s.input = i) samples)
      (Array.to_list T.warm_set)
  in
  let targets_of planned =
    Array.of_list (List.map (fun s -> (s.line, s.planned.plan_bytes)) planned)
  in
  let round, timed_rounds, warm_finish =
    warmer ~seed ~acc:warm_acc
      ~round_s:(match workload with Cold_plan -> probe_round_s | Warm_hot -> warm_round_s)
  in
  (* The measured work: set-up, then the stressed part with the others
     interleaved. It starts from a settled heap, as a fresh daemon
     would, and so does each warm block on cold_plan and each set-up on
     warm_hot: the heap's high-water mark then depends on the work, not
     on when the collector last ran. *)
  Gc.compact ();
  let (serve, cold, warm_source, setup_planned, setup_paces), _ =
    M.span "phase.measure" (fun _ ->
        match workload with
        | Cold_plan ->
          let setups = List.init cold_setups (fun _ -> setup ~preplan:false) in
          let serve, _, _ = List.nth setups (cold_setups - 1) in
          (* The warm set comes first in the stream; once it is planned,
             blocks of warm rounds replay it between cold plans. *)
          let stream =
            T.cold_stream (Util.Rng.create (sub_seed seed "cold")) ~length:cold_stream_length
          in
          let n_warm = Array.length T.warm_set in
          let targets = ref [||] in
          let warm_block rounds =
            Gc.compact ();
            for _ = 1 to probe_warmup_rounds do round serve !targets ~timed:false done;
            for _ = 1 to rounds do round serve !targets ~timed:true done
          in
          let t0 = M.now_ns () in
          let rec go i acc =
            if i >= Array.length stream
               || (i >= min_cold_requests && M.seconds_since t0 >= seconds)
            then List.rev acc
            else begin
              let acc =
                match
                  gate_plan (M.histo_add plan_acc plan_hists (fun () -> plan_paced serve stream.(i)))
                with
                | Some s -> s :: acc
                | None -> acc
              in
              if i = n_warm - 1 then begin
                let planned = in_warm_set_order acc in
                if List.length planned <> n_warm then failwith "the warm set was not planned";
                targets := targets_of planned
              end;
              if i >= n_warm && (i - n_warm) mod warm_every = 0 then
                warm_block (probe_rounds / warm_blocks);
              if i mod validate_every = 0 then ignore (validate_step ());
              go (i + 1) acc
            end
          in
          let cold = go 0 [] in
          if Array.length !targets = 0 then failwith "the warm set was not planned";
          if timed_rounds () < probe_rounds then warm_block (probe_rounds - timed_rounds ());
          (serve, cold, in_warm_set_order cold, [], List.map (fun (_, _, p) -> p) setups)
        | Warm_hot ->
          (* Set up, then serve hits on that daemon; three times. *)
          let timed_total = max 1 (int_of_float (Float.round (seconds /. warm_round_s))) in
          let warmup = int_of_float (Float.ceil (warm_warmup_s /. warm_round_s)) in
          let setups =
            List.init warm_setups (fun b ->
                if b > 0 then Gc.compact ();
                let serve, planned, paces = setup ~preplan:true in
                if List.length planned <> Array.length T.warm_set then
                  failwith "the warm set was not planned";
                let targets = targets_of planned in
                for _ = 1 to warmup do round serve targets ~timed:false done;
                let until = timed_total * (b + 1) / warm_setups in
                while timed_rounds () < until do
                  round serve targets ~timed:true;
                  ignore (validate_step ())
                done;
                (serve, planned, paces))
          in
          let serve, planned, _ = List.nth setups (warm_setups - 1) in
          let all_planned = List.concat_map (fun (_, p, _) -> p) setups in
          (* warm_hot's cold latencies are its set-up plans. *)
          (serve, all_planned, planned, all_planned, List.map (fun (_, _, p) -> p) setups))
  in
  let warm = warm_finish () in
  let v = validate_finish () in
  let cold_samples = cold in
  if traced then record_request_spans cold_samples;
  (* The warm set as this run planned it: hits replayed it, and plan
     quality is judged on it, so neither depends on the seed's stream. *)
  let targets = targets_of warm_source in
  let cold_raw_ms = Array.of_list (List.map (fun s -> 1e3 *. s.handle_s) cold_samples) in
  let stats =
    Obs.Json.of_string (fst (Serve.handle serve "{\"op\":\"stats\"}"))
  in
  let cache_field f =
    match Option.bind (Obs.Json.member "cache" stats) (Obs.Json.member f) with
    | Some j -> float_of_int (Option.value (Obs.Json.to_int j) ~default:0)
    | None -> Float.nan
  in
  (* The system's peak, read before the benchmark's own judging: two
     concurrent oracle sweeps would otherwise set it, by how their
     garbage happens to interleave. *)
  let peak = M.peak_rss_mb () in
  (* Judged on every other warm-set input: the oracle sweeps the whole
     legal set, about 0.4 s per input. *)
  let quality_set = List.filteri (fun i _ -> i mod 2 = 0) warm_source in
  let (oracle_frac, speedup), _ = M.span "phase.quality" (fun _ -> quality quality_set) in
  let n_legal_mean =
    Util.Stats.mean (Array.of_list (List.map (fun s -> float_of_int s.planned.n_legal) quality_set))
  in
  let self_times = M.self_times () in
  info "phases: %s"
    (String.concat " "
       (List.filter_map
          (fun p ->
            match Hashtbl.find_opt self_times ("phase." ^ p) with
            | Some (n, total, _) -> Some (Printf.sprintf "%s=%.2fs/%d" p total n)
            | None -> None)
          [ "tune"; "setup"; "measure"; "quality" ]));
  info "peak RSS after each phase: %s"
    (String.concat " "
       (List.rev_map (fun (n, mb) -> Printf.sprintf "%s=%.0fMB" n mb) !M.phase_peaks));
  (* Every probe is in: scale each paced stretch to nominal speed. *)
  let med a = M.median (Array.of_list a) in
  let sum = List.fold_left ( +. ) 0.0 in
  let cold_ms =
    Array.of_list (List.map (fun s -> 1e3 *. s.handle_s *. M.factor s.pace) cold_samples)
  in
  let setup_s = med (List.map (fun paces -> sum (List.map M.at_nominal paces)) setup_paces) in
  let tune_s = M.at_nominal tune_pace in
  let validate_s = sum (List.map M.at_nominal v.segments) in
  let warm_paced = warm_figures warm ~factor:M.factor in
  let warm_raw = warm_figures warm ~factor:(fun _ -> 1.0) in
  info "samples: cold=%d warm=%d in %d rounds (warm-up %.1fs per block discarded) validated=%d kernels, %d instrs"
    (Array.length cold_ms) warm.requests (List.length warm.timed)
    (match workload with Cold_plan -> float_of_int probe_warmup_rounds *. probe_round_s | Warm_hot -> warm_warmup_s)
    v.kernels v.instrs;
  let probes = M.sorted (Array.of_list (List.map snd !M.probes)) in
  info "host: %d probes, median %.3f ms (nominal %.3f ms), quartiles %.3f-%.3f ms"
    (Array.length probes) (1e3 *. M.median probes) (1e3 *. M.nominal_probe_s)
    (1e3 *. M.quantile probes 0.25) (1e3 *. M.quantile probes 0.75);
  info "deterministic: plan_oracle_frac=%.17g speedup_vs_vendor=%.17g model_mse=%.17g search.n_legal=%.17g interp.instrs=%d"
    oracle_frac speedup mse n_legal_mean v.instrs;
  let e2e =
    [ metric "setup_s" "s" setup_s;
      metric "peak_rss_mb" "MB" peak;
      metric "cold_ms_p50" "ms" (M.quantile cold_ms 0.5);
      metric "cold_ms_p90" "ms" (M.quantile cold_ms 0.9);
      metric "plan_oracle_frac" "ratio" oracle_frac;
      metric "speedup_vs_vendor" "ratio" speedup;
      metric "warm_us_p50" "us" warm_paced.p50_us;
      metric "warm_us_p99" "us" warm_paced.p99_us;
      metric "warm_req_per_s" "1/s" warm_paced.req_per_s;
      metric "tune_s" "s" tune_s;
      metric "model_mse" "mse" mse;
      metric "validate_s" "s" validate_s ]
  in
  (* The paced timings as the wall clock read them. *)
  let wall_clock =
    [ metric "setup_s" "s" (med (List.map (fun paces -> sum (List.map (fun p -> p.M.wall_s) paces)) setup_paces));
      metric "cold_ms_p50" "ms" (M.quantile cold_raw_ms 0.5);
      metric "cold_ms_p90" "ms" (M.quantile cold_raw_ms 0.9);
      metric "warm_us_p50" "us" warm_raw.p50_us;
      metric "warm_us_p99" "us" warm_raw.p99_us;
      metric "warm_req_per_s" "1/s" warm_raw.req_per_s;
      metric "tune_s" "s" tune_pace.M.wall_s;
      metric "validate_s" "s" (sum (List.map (fun p -> p.M.wall_s) v.segments)) ]
  in
  info "wall clock: %s" (Obs.Json.to_string (Obs.Json.Obj wall_clock));
  let metrics =
    if not traced then e2e
    else begin
      Obs.Trace.stop ();
      let program_trace = Obs.Trace.read_file (Filename.concat dir "program-trace.jsonl") in
      let scored, legal =
        List.fold_left
          (fun (s, l) ev ->
            match (Obs.Json.member "name" ev, Obs.Json.member "meta" ev) with
            | Some (Obs.Json.String "search.score"), Some meta ->
              let get k = float_of_int (Option.value (Option.bind (Obs.Json.member k meta) Obs.Json.to_int) ~default:0) in
              (s +. get "n_scored", l +. get "n_legal")
            | _ -> (s, l))
          (0.0, 0.0) program_trace
      in
      let w name = Hashtbl.find plan_acc name in
      let plans = (w "search.inference_s").count in
      let per_plan_ms name = 1e3 *. (w ("search." ^ name ^ "_s")).sum /. float_of_int plans in
      let phases_ms = List.fold_left (fun a p -> a +. per_plan_ms p) 0.0 phase_names in
      let isaac_ms = 1e3 *. (w "plan.latency_s").sum /. float_of_int (w "plan.latency_s").count in
      let all_planned = match workload with Warm_hot -> setup_planned | Cold_plan -> cold in
      let plan_ms =
        1e3 *. Util.Stats.mean (Array.of_list (List.map (fun s -> s.planned.latency_s) all_planned))
      in
      let lookup = Hashtbl.find warm_acc "plan.latency_s" in
      let parse_s, encode_s =
        replay_parse_encode targets
          (Array.map (fun (line, _) -> fst (Serve.handle serve line)) targets)
      in
      let l = tune_layers in
      let hits = cache_field "hits" and misses = cache_field "misses" in
      M.write_spans (Filename.concat dir "spans.jsonl");
      info "self times (span: count, mean ms, mean self ms):";
      List.iter
        (fun (n, (c, total, self)) ->
          info "  %-18s %7d %12.4f %12.4f" n c (1e3 *. total /. float_of_int c)
            (1e3 *. self /. float_of_int c))
        (List.sort compare (List.of_seq (Hashtbl.to_seq self_times)));
      [ metric "search.inference_ms" "ms" (per_plan_ms "inference");
        metric "mlp.configs_per_s" "1/s" (scored /. (w "search.inference_s").sum);
        metric "search.enumerate_ms" "ms" (per_plan_ms "enumerate");
        metric "search.featurize_ms" "ms" (per_plan_ms "featurize");
        metric "search.argmax_ms" "ms" (per_plan_ms "argmax");
        metric "search.rebench_ms" "ms" (per_plan_ms "rebench");
        metric "isaac.plan_ms" "ms" plan_ms;
        metric "isaac.self_ms" "ms" (isaac_ms -. phases_ms);
        metric "isaac.unattributed_ms" "ms" (plan_ms -. isaac_ms);
        metric "search.n_legal" "count" n_legal_mean;
        metric "search.scored_frac" "ratio" (scored /. legal);
        metric "serve.handle_us" "us" (1e6 *. warm.handle_mean_s);
        metric "serve.parse_us" "us" (1e6 *. parse_s);
        metric "serve.encode_us" "us" (1e6 *. encode_s);
        metric "plan_cache.lookup_us" "us" (1e6 *. lookup.sum /. float_of_int lookup.count);
        metric "plan_cache.hit_ratio" "ratio" (hits /. (hits +. misses));
        metric "plan_cache.misses" "count" misses;
        metric "plan_cache.evictions" "count" (cache_field "evictions");
        metric "train.epoch_s" "s" (l.train_s /. float_of_int l.epochs);
        metric "sampler.fit_s" "s" (l.fit_s /. float_of_int l.fits);
        metric "sampler.acceptance" "ratio" (Util.Stats.mean (Array.of_list l.acceptance));
        metric "dataset.samples_per_s" "1/s" (float_of_int l.samples /. l.generate_s);
        metric "codegen.kernels_per_s" "1/s" (float_of_int v.kernels /. v.generate_s);
        metric "interp.instr_per_s" "1/s" (float_of_int v.instrs /. v.interp_s);
        metric "interp.instrs" "count" (float_of_int v.instrs) ]
    end
  in
  let knobs =
    Obs.Json.Obj
      (List.map (fun (k, v) -> (k, Obs.Json.String v))
         (("ISAAC_DOMAINS", Option.value (Sys.getenv_opt "ISAAC_DOMAINS") ~default:"")
         :: Util.Env_config.snapshot ()))
  in
  let result =
    Obs.Json.Obj
      [ ("correct", Obs.Json.Bool (!failed = 0));
        ("attempted", Obs.Json.Int !attempted);
        ("failed", Obs.Json.Int !failed);
        ("metrics", Obs.Json.Obj metrics) ]
  in
  List.iter (fun f -> info "failure: %s" f) (List.rev !failures);
  let oc = open_out (Filename.concat dir "result.json") in
  output_string oc
    (Obs.Json.to_string
       (Obs.Json.Obj
          [ ("workload", Obs.Json.String name); ("seed", Obs.Json.Int seed);
            ("seconds", Obs.Json.Float seconds); ("knobs", knobs);
            ("cold_samples", Obs.Json.Int (Array.length cold_ms));
            ("warm_samples", Obs.Json.Int warm.requests);
            (* A traced run's end-to-end figures, compared with an
               untraced run's at the same seed, give the tracing
               overhead. *)
            ("end_to_end", Obs.Json.Obj e2e);
            ("wall_clock", Obs.Json.Obj wall_clock);
            ("result", result) ]));
  close_out oc;
  info "knobs: %s" (Obs.Json.to_string knobs);
  print_endline (Obs.Json.to_string result)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then begin
    M.serve_probes ();
    exit 0
  end;
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " cold_plan | warm_hot");
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " how long the stressed phase measures");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ledger.exe --workload W --seed N --seconds S --trace 0|1";
  let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt in
  let workload =
    match workload_of_string !workload with
    | Some w -> w
    | None -> die "unknown workload %S (cold_plan, warm_hot)" !workload
  in
  if !seed < 0 then die "--seed must be given and non-negative";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match pinned_env () with Ok () -> () | Error e -> die "%s (run through ledger/run.sh)" e);
  M.start_prober ();
  Fun.protect ~finally:M.stop_prober (fun () ->
      M.warm_prober ();
      run ~workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1))
