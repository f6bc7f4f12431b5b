(* What the ledger sends: the Table 4/5 suite inputs, seeded random
   top-ups, request lines in the daemon's wire protocol, and the checks
   every response must pass. *)

module GP = Codegen.Gemm_params
module CP = Codegen.Conv_params

type input = Gemm of GP.input | Conv of CP.input

let device = Gpu.Device.p100

(* DeepBench M=K on Pascal, as in the paper's P100 figures. *)
let deepbench_mk = 2560

(* Table 4 fp32 and mixed GEMM suites (34) and Table 5 CONV in f32 and
   f16 (28), in paper order. *)
let suite =
  let gemm =
    List.map
      (fun (t : Workloads.Gemm_suites.task) -> Gemm t.input)
      (Workloads.Gemm_suites.fp32_suite ~mk:deepbench_mk
      @ Workloads.Gemm_suites.mixed_suite ~mk:deepbench_mk)
  in
  let conv dtype =
    List.map
      (fun (t : Workloads.Conv_suites.task) -> Conv t.input)
      (Workloads.Conv_suites.suite dtype)
  in
  Array.of_list (gemm @ conv Ptx.Types.F32 @ conv Ptx.Types.F16)

(* The warm set: every fourth suite input, 16 in all, mixing GEMM and
   CONV shapes and data types. Fixed, so that set-up work does not
   depend on the seed. *)
let warm_set =
  Array.init ((Array.length suite + 3) / 4) (fun i -> suite.(4 * i))

(* The cold stream: the warm set in a seeded order, then the rest of the
   suite in a seeded order, then seeded draws from the tuner's own input
   distributions, alternating GEMM and CONV, skipping repeats so every
   request misses. *)
let cold_stream rng ~length =
  let seen = Hashtbl.create 256 in
  let warm = Array.copy warm_set in
  let rest = Array.of_list (List.filter (fun x -> not (Array.mem x warm_set)) (Array.to_list suite)) in
  Util.Rng.shuffle rng warm;
  Util.Rng.shuffle rng rest;
  let order = Array.append warm rest in
  let out = ref [] and n = ref 0 in
  let push x =
    if not (Hashtbl.mem seen x) then begin
      Hashtbl.add seen x ();
      out := x :: !out;
      incr n
    end
  in
  Array.iter push order;
  let flip = ref false in
  while !n < length do
    flip := not !flip;
    push
      (if !flip then Gemm (Tuner.Dataset.random_gemm_input rng)
       else Conv (Tuner.Dataset.random_conv_input rng))
  done;
  Array.of_list (List.rev !out)

(* --- wire --------------------------------------------------------------- *)

let dtype_json d = Obs.Json.String (Ptx.Types.dtype_name d)

let request_line input =
  let open Obs.Json in
  to_string
    (match input with
     | Gemm i ->
       Obj
         [ ("op", String "gemm"); ("m", Int i.m); ("n", Int i.n);
           ("k", Int i.k); ("dtype", dtype_json i.dtype);
           ("a_trans", Bool i.a_trans); ("b_trans", Bool i.b_trans) ]
     | Conv i ->
       Obj
         [ ("op", String "conv"); ("n", Int i.n); ("c", Int i.c);
           ("k", Int i.k); ("p", Int i.p); ("q", Int i.q); ("r", Int i.r);
           ("s", Int i.s); ("stride", Int i.stride); ("pad", Int i.pad);
           ("dtype", dtype_json i.dtype) ])

(* A cold response that passed its gate. *)
type planned = {
  config : GP.config;
  tflops : float;      (* the daemon's re-benchmarked TFLOPS *)
  n_legal : int;
  latency_s : float;   (* Serve's own timing of the Isaac call *)
  plan_bytes : string; (* the response from its "plan" member on *)
}

let plan_marker = ",\"plan\":"

(* Whether [sub] occurs in [s] at [at], without allocating. *)
let matches_at s at sub =
  let m = String.length sub in
  let rec go j = j = m || (s.[at + j] = sub.[j] && go (j + 1)) in
  at >= 0 && at + m <= String.length s && go 0

let find_sub s sub =
  let rec go i =
    if i + String.length sub > String.length s then None
    else if matches_at s i sub then Some i
    else go (i + 1)
  in
  go 0

let legal input cfg =
  let arr = GP.config_to_array cfg in
  match input with
  | Gemm i -> Tuner.Dataset.gemm_legal device i arr
  | Conv i -> Tuner.Dataset.conv_legal device i arr

let member_float name json =
  match Option.bind (Obs.Json.member name json) Obs.Json.to_float with
  | Some f -> f
  | None -> Float.nan

let member_int name json =
  match Option.bind (Obs.Json.member name json) Obs.Json.to_int with
  | Some i -> i
  | None -> failwith ("response lacks integer " ^ name)

(* The cold gate: an [ok] response served by the search ([cache] is
   [expect]) with a plan whose config is legal for the input and whose
   TFLOPS are finite. *)
let check_plan ~expect input response =
  match Obs.Json.of_string response with
  | exception Obs.Json.Parse_error e -> Error ("unparsable response: " ^ e)
  | json -> (
    let str name = Option.bind (Obs.Json.member name json) Obs.Json.to_str in
    match
      ( Option.bind (Obs.Json.member "ok" json) Obs.Json.to_bool,
        str "cache",
        Obs.Json.member "plan" json )
    with
    | Some true, Some cache, Some (Obs.Json.Obj _ as plan) when cache = expect
      -> (
      match
        let f name = member_int name plan in
        { GP.ms = f "ms"; ns = f "ns"; ks = f "ks"; ml = f "ml"; nl = f "nl";
          u = f "u"; kl = f "kl"; kg = f "kg"; vec = f "vec"; db = f "db" }
      with
      | exception Failure e -> Error e
      | config ->
        let tflops = member_float "tflops" plan in
        let predicted = member_float "predicted_tflops" plan in
        if not (legal input config) then
          Error ("illegal plan " ^ GP.describe config)
        else if not (Float.is_finite tflops && Float.is_finite predicted) then
          Error "plan with non-finite TFLOPS"
        else
          match find_sub response plan_marker with
          | None -> Error "plan member not last in the response"
          | Some at ->
            Ok
              { config;
                tflops;
                n_legal = member_int "n_legal" plan;
                latency_s = member_float "latency_s" json;
                plan_bytes =
                  String.sub response at (String.length response - at) })
    | _ -> Error ("unexpected response: " ^ response))

(* The warm gate, cheap enough for the hot loop: the response says
   [hit] and ends in exactly the plan bytes set-up received. *)
let hit_marker = "\"cache\":\"hit\""

let is_same_hit ~plan_bytes response =
  let plan_at = String.length response - String.length plan_bytes in
  let rec has_hit i =
    i + String.length hit_marker <= plan_at
    && (matches_at response i hit_marker || has_hit (i + 1))
  in
  matches_at response plan_at plan_bytes && has_hit 0

(* --- plan quality -------------------------------------------------------- *)

let model_tflops input cfg =
  let cost =
    match input with Gemm i -> GP.cost i cfg | Conv i -> CP.cost i cfg
  in
  match Gpu.Perf_model.predict device cost with
  | Some r -> r.tflops
  | None -> Float.nan

(* Noise-free TFLOPS of the best legal config: what any search could
   reach at best. *)
let oracle_tflops input =
  match
    match input with
    | Gemm i -> Tuner.Search.oracle_gemm device i
    | Conv i -> Tuner.Search.oracle_conv device i
  with
  | Some (_, r) -> r.tflops
  | None -> Float.nan

(* Noise-free TFLOPS of the vendor-like library's heuristic pick. *)
let vendor_tflops rng input =
  match
    match input with
    | Gemm i -> Baselines.Cublas.heuristic rng device i
    | Conv i -> Baselines.Cudnn.heuristic rng device i
  with
  | Some (_, m) -> m.report.tflops
  | None -> Float.nan
