(* Benchmark-side measurement: a nanosecond monotonic clock, order
   statistics, the host-speed probe every timing is normalized by, the
   in-memory span recorder of the traced run, and windows over the
   program's own telemetry histograms.

   Clock resolution: the benchmark times with clock_gettime(MONOTONIC)
   (nanoseconds). The program's own timings — Serve's [latency_s], the
   search [phases], the [plan.latency_s] histogram — come from
   [Unix.gettimeofday], which resolves 1 us. A warm hit takes a few
   microseconds, so any single program-side reading of one is
   quantised to whole microseconds; the ledger only ever reports means
   of those readings over many requests, which the quantisation does
   not bias. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let seconds_since t0 = seconds_between t0 (now_ns ())

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let sorted a =
  let b = Array.copy a in
  Array.sort Float.compare b;
  b

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. At q = 0.9 over 100 samples, 10 lie beyond. *)
let quantile a q =
  let b = sorted a in
  let n = Array.length b in
  b.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = Util.Stats.median a
let geomean a = Util.Stats.geomean a

(* --- host speed -------------------------------------------------------- *)

(* The benchmark runs on a few cores of a shared host whose speed swings
   by up to 2x for seconds to tens of seconds, with no steal time
   reported. Every timed figure is therefore paced: the work is timed in
   stretches with probes of the host's speed between them (or, for long
   work, during them), and each stretch's wall time is scaled to what
   it would read at nominal speed. A probe times a fixed piece of
   benchmark-owned work — string-keyed hash-table updates, which hash,
   allocate and promote like the program's own hot paths — and slows
   with the host much as the program does: over ten runs, paced timings
   spread about half as much as their wall-clock readings (README.md,
   "Noise floor").

   The probe runs in a child process of its own ([ledger.exe --probe]),
   so nothing the program does to its heap, its GC or its domains moves
   it. Each byte the parent writes asks for one probe; the child
   answers with the median of three timings, and exits at end of
   input. *)

let probe_work () =
  let h = Hashtbl.create 16 in
  for i = 1 to 12_000 do
    Hashtbl.replace h (string_of_int (i land 1023)) (i, [ i; i + 1 ])
  done;
  Hashtbl.length h

let serve_probes () =
  let request = Bytes.create 1 in
  while Unix.read Unix.stdin request 0 1 = 1 do
    let times =
      Array.init 3 (fun _ -> snd (time (fun () -> Sys.opaque_identity (probe_work ()))))
    in
    Array.sort Float.compare times;
    Printf.printf "%.17g\n%!" times.(1)
  done

(* A probe's typical time on the reference machine (a 2-vCPU x86-64
   VM): paced figures read as wall time on that machine at the speed
   where a probe takes this long. *)
let nominal_probe_s = 0.0025

type prober = { pid : int; requests : out_channel; answers : in_channel }

let prober = ref None

let start_prober () =
  let child_in, requests = Unix.pipe ~cloexec:true () in
  let answers, child_out = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; "--probe" |]
      child_in child_out Unix.stderr
  in
  Unix.close child_in;
  Unix.close child_out;
  prober :=
    Some { pid; requests = Unix.out_channel_of_descr requests;
           answers = Unix.in_channel_of_descr answers }

(* Closing the request pipe ends the child; wait until it has. *)
let stop_prober () =
  match !prober with
  | None -> ()
  | Some p ->
    prober := None;
    close_out_noerr p.requests;
    close_in_noerr p.answers;
    ignore (Unix.waitpid [] p.pid)

(* Every probe of the run with the time it ended, latest first. *)
let probes : (int64 * float) list ref = ref []

let ask_probe () =
  match !prober with
  | None -> failwith "the host-speed prober is not running"
  | Some p ->
    output_char p.requests 'p';
    flush p.requests;
    float_of_string (input_line p.answers)

(* A fresh child's first probes run slow while its pages fault in and
   its heap grows; they are dropped. *)
let warm_prober () = for _ = 1 to 20 do ignore (ask_probe ()) done

let probe () =
  let s = ask_probe () in
  probes := (now_ns (), s) :: !probes;
  s

(* A paced stretch of work: its wall time and when it ran. *)
type paced = { wall_s : float; start_ns : int64; end_ns : int64 }

(* [stretch f] times [f] as a stretch without probing around it: its
   factor comes from the probes of the work around it. For short work
   placed between paced stretches. *)
let stretch f =
  let start_ns = now_ns () in
  let v = f () in
  let end_ns = now_ns () in
  (v, { wall_s = seconds_between start_ns end_ns; start_ns; end_ns })

(* [paced f] runs [f] between two probes and returns its value and its
   stretch. The previous stretch's probe after serves as this one's
   before when it ended less than half a second ago. Call from the main
   domain only. *)
let paced f =
  let fresh =
    match !probes with (at, _) :: _ -> seconds_since at < 0.5 | [] -> false
  in
  if not fresh then ignore (probe ());
  let r = stretch f in
  ignore (probe ());
  r

(* [probed_stretch ~every f] runs [f] as a stretch during which the host
   is probed every [every] seconds: a timer signal interrupts [f], and
   the handler asks the child for a probe while [f] waits, so the probe
   runs on an idle machine. The stretch's wall time leaves the pauses
   out. For long work on the main domain alone — a tune runs for
   seconds and the host's speed turns within it, so probes at its two
   ends say little about it. *)
let probed_stretch ~every f =
  let active = ref true and probing = ref false and paused_ns = ref 0L in
  let handler _ =
    if !active && not !probing then begin
      probing := true;
      let t0 = now_ns () in
      ignore (probe ());
      paused_ns := Int64.add !paused_ns (Int64.sub (now_ns ()) t0);
      probing := false
    end
  in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle handler) in
  let set interval = ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval }) in
  let start_ns = now_ns () in
  set every;
  let v =
    Fun.protect f ~finally:(fun () ->
        set 0.0;
        active := false;
        Sys.set_signal Sys.sigalrm previous)
  in
  let end_ns = now_ns () in
  let wall_ns = Int64.sub (Int64.sub end_ns start_ns) !paused_ns in
  (v, { wall_s = Int64.to_float wall_ns *. 1e-9; start_ns; end_ns })

(* The host-speed factor of a stretch: nominal probe time over the
   median of the probes taken during it, or of the fifteen probes
   nearest to it in time if fewer were, so that one probe's own noise
   does not carry into the figure. Call once the run's probes are all
   in. *)
let nearest_probes = 15

let factor p =
  let distance (at, _) =
    if Int64.compare at p.start_ns < 0 then Int64.sub p.start_ns at
    else if Int64.compare at p.end_ns > 0 then Int64.sub at p.end_ns
    else 0L
  in
  let within = List.length (List.filter (fun a -> distance a = 0L) !probes) in
  let near =
    List.sort (fun a b -> Int64.compare (distance a) (distance b)) !probes
    |> List.filteri (fun i _ -> i < max nearest_probes within)
    |> List.map snd
  in
  nominal_probe_s /. median (Array.of_list near)

(* A stretch's wall time at nominal host speed. *)
let at_nominal p = p.wall_s *. factor p

(* Peak resident set of this process, from /proc (Linux). *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith "VmHWM missing from /proc/self/status"
      in
      scan ())

(* --- spans of the traced run ------------------------------------------- *)

(* One span per public call the benchmark makes. [req] ties the spans of
   one request together; [parent] is the enclosing span (0 = root).
   Durations, not end times, are stored: child spans whose duration the
   program measured (Serve's [latency_s]) are placed at their parent's
   start, since the program does not report where inside the parent
   they began. *)
type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  start_s : float;  (* since the run began *)
  dur_s : float;
}

let origin = now_ns ()
let spans : span list ref = ref []
let next_id = ref 1
let next_req = ref 1

(* Spans are recorded from the main domain only. *)
let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let fresh_req () =
  let r = !next_req in
  incr next_req;
  r

let push ~id ~parent ~req ~start_ns ~dur_s name =
  spans :=
    { id; parent; req; name; start_s = seconds_between origin start_ns; dur_s }
    :: !spans

(* A span whose duration was measured elsewhere. *)
let record ?(parent = 0) ?(req = 0) ~start_ns ~dur_s name =
  let id = fresh_id () in
  push ~id ~parent ~req ~start_ns ~dur_s name;
  id

(* The process's peak resident set as each phase ended, latest first:
   it shows which phase sets [peak_rss_mb]. *)
let phase_peaks : (string * float) list ref = ref []

(* [span name f] times [f id], where [id] names the span to its
   children. *)
let span ?(parent = 0) ?(req = 0) name f =
  let id = fresh_id () in
  let start_ns = now_ns () in
  let v = f id in
  let dur_s = seconds_since start_ns in
  push ~id ~parent ~req ~start_ns ~dur_s name;
  if String.starts_with ~prefix:"phase." name then
    phase_peaks := (name, peak_rss_mb ()) :: !phase_peaks;
  (v, dur_s)

(* Per span name: (count, total duration, total self time), where self
   time is a span's duration minus the durations of its children. *)
let self_times () =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_sum s.parent
          (s.dur_s
          +. Option.value (Hashtbl.find_opt child_sum s.parent) ~default:0.0))
    !spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.dur_s -. Option.value (Hashtbl.find_opt child_sum s.id) ~default:0.0
      in
      let n, total, self_total =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. s.dur_s, self_total +. self))
    !spans;
  by_name

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [ ("id", Obs.Json.Int s.id);
                    ("parent", Obs.Json.Int s.parent);
                    ("req", Obs.Json.Int s.req);
                    ("name", Obs.Json.String s.name);
                    ("start_s", Obs.Json.Float s.start_s);
                    ("dur_s", Obs.Json.Float s.dur_s) ]));
          output_char oc '\n')
        (List.rev !spans))

(* --- windows over the program's telemetry ------------------------------ *)

(* The traced run switches the program's telemetry on; these read the
   sum and count a histogram accumulated between two points. *)
type window = { count : int; sum : float }

let histo_state name =
  let s = Obs.Telemetry.Histo.snapshot (Obs.Telemetry.histo name) in
  { count = s.count; sum = s.sum }

let histo_window names f =
  let before = List.map (fun n -> (n, histo_state n)) names in
  let v = f () in
  let deltas =
    List.map
      (fun (n, b) ->
        let a = histo_state n in
        (n, { count = a.count - b.count; sum = a.sum -. b.sum }))
      before
  in
  (v, deltas)

(* [histo_add acc names f] adds the windows [f] spans to the running
   sums in [acc], for work interleaved with other work. *)
let histo_add acc names f =
  let v, deltas = histo_window names f in
  List.iter
    (fun (n, d) ->
      let a = Option.value (Hashtbl.find_opt acc n) ~default:{ count = 0; sum = 0.0 } in
      Hashtbl.replace acc n { count = a.count + d.count; sum = a.sum +. d.sum })
    deltas;
  v
