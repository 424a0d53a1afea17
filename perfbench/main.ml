(* The repository benchmark: one fuzzing workload per process.

     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Workloads (single-threaded, cooperative):
   - native-zephyr: single Zephyr/STM32F4 campaigns on the native
     backend. Only the host fuzzing loop and reboots carry work.
   - link-farm-faulty: 4-board Zephyr farms on the debug link with a
     0.5% per-exchange fault rate and the default Ladder reset policy.
     The only workload where the link stack, the recovery ladder and
     farm epoch merges carry the work.
   - hub-fleet: an in-process hub with a journal, two tenants (Zephyr,
     FreeRTOS) each sharded over 2 farms of 2 native boards. The only
     workload that runs the protocol, journal, hub and transplants.

   A workload is a fixed set of units (campaigns, farms or fleets) whose
   seeds derive from --seed. The first round runs every unit once; its
   outcomes give the counts and virtual-clock figures, which are exact
   for a seed. Further rounds repeat the units in turn until --seconds
   have elapsed, and every repeat must reproduce the unit's first
   digest. Each unit does the same work on every repeat: a payload
   loop's, a set-up's and a step's wall time is its median over the
   repeats. Wall figures are then scaled to a reference speed by a
   kernel timed between the runs (see reference_kernel).

   The program is driven only through Campaign.init/step/finish,
   Farm.init/step/finish/syncs_so_far and Inproc.run; layer counters are
   read off a sinkless Obs bus. Inproc.run is one call, so on hub-fleet
   every other round attaches a sink that timestamps payload events to
   time the steps; the sink switches event construction on, so
   throughput, set-up and GC figures come from the rounds without it.
   With --trace 1 the run records spans around those calls and around
   replays of layer calls on the run's own inputs, prints the per-layer
   metrics and writes the spans to .bench_build/perfbench-traces/. The
   last stdout line is a JSON object: {correct, attempted, failed,
   metrics}. A failed correctness gate prints that line with
   correct=false, names the gate on stderr and exits 1. *)

open Eof_core
module Obs = Eof_obs.Obs
module Machine = Eof_agent.Machine
module Wire = Eof_agent.Wire
module Osbuild = Eof_os.Osbuild
module Eof_error = Eof_util.Eof_error
module Rng = Eof_util.Rng
module Rsp = Eof_debug.Rsp
module Sancov = Eof_cov.Sancov
module Protocol = Eof_hub.Protocol
module Journal = Eof_hub.Journal
module Inproc = Eof_hub.Inproc
module Tenant = Eof_hub.Tenant
module Worker = Eof_hub.Worker
module Targets = Eof_expt.Targets

let now_ns = Tracer.now_ns

(* Scratch files (journals) and trace output, inside the checkout. *)
let work_dir = ".bench_build/perfbench-work"
let trace_dir = ".bench_build/perfbench-traces"

(* --- workload sizes ------------------------------------------------------ *)

(* A round is every unit once. The sizes keep a round a few seconds long,
   so a run repeats each unit several times, while giving counts that
   average over many seeds. Link farms are many and short because a
   farm's virtual throughput turns on its few recovery events: with 32
   farms of 750 payloads, virtual_payloads_per_s spread up to 0.22 over
   ten seeds. *)
let native_campaigns = 16
let native_budget = 2000
let native_diff_prefix = 300
let farm_count = 48
let farm_boards = 4
let farm_budget = 500 (* per farm *)
let farm_fault_rate = 0.005
let hub_fleets = 4
let hub_budget = 3000 (* per tenant *)
let helper_budget = 1000 (* clean-link vs native comparison, per board *)

(* --- seeds ----------------------------------------------------------------- *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Every seed the program sees derives from the workload seed, a tag and
   an index; the program receives only the generated configs. *)
let derive ~seed tag i =
  let h = mix64 (Int64.logxor (Int64.of_int seed) (Int64.of_int (Hashtbl.hash tag))) in
  Int64.logand (mix64 (Int64.add h (Int64.of_int (i + 1)))) 0x3FFF_FFFF_FFFF_FFFFL

(* --- small utilities ------------------------------------------------------- *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* Linear-interpolated quantile of a sorted array. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then s.(n - 1) else s.(i) +. ((pos -. float i) *. (s.(i + 1) -. s.(i)))

let sorted_floats a =
  let s = Array.map float a in
  Array.sort compare s;
  s

let median_int l = quantile (sorted_floats (Array.of_list l)) 0.5

let div a b = if b = 0. then 0. else a /. b

let fi = float_of_int

let zephyr = Option.get (Targets.find "Zephyr")

let target_of os =
  match Targets.find os with Some t -> t | None -> failwith ("unknown OS " ^ os)

let spec_table build =
  let table = Osbuild.api_signatures build in
  match Eof_spec.Synth.validated_of_api table with
  | Ok spec -> (spec, table)
  | Error e -> failwith ("spec synthesis failed: " ^ e)

let endianness build = (Eof_hw.Board.profile (Osbuild.board build)).Eof_hw.Board.arch.Eof_hw.Arch.endianness

let error_kind (e : Eof_error.t) =
  match e.Eof_error.kind with
  | Eof_error.Link_timeout -> "link_timeout"
  | Link_desync _ -> "link_desync"
  | Protocol _ -> "protocol"
  | Remote _ -> "remote"
  | Flash _ -> "flash"
  | Missing_blob _ -> "missing_blob"
  | Agent _ -> "agent"
  | Config _ -> "config"
  | Board_dead _ -> "board_dead"

(* --- results ---------------------------------------------------------------- *)

type metric = { m_name : string; value : float; unit_ : string; clock : string }

let metrics : metric list ref = ref []
let metric m_name unit_ clock value = metrics := { m_name; value; unit_; clock } :: !metrics

let gates : (string * bool) list ref = ref []
let gate name ok = gates := (name, ok) :: !gates

let notes : string list ref = ref []
let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt

(* --- the reference kernel ------------------------------------------------------ *)

(* On a shared host, speed drifts by up to 1.6x in phases lasting from
   seconds to minutes (measured on a 2-vCPU 2.0 GHz Xeon VM with a
   2 MiB L2 cache per core). A phase slows cache-bound code, such as
   this program, far more than register-bound code, and a run of tens of
   seconds can sit wholly inside one, so no estimator over a run's own
   samples removes it: raw wall figures moved 10-40% between runs of the
   same seed. Wall figures are therefore scaled to a reference speed.
   Before every unit run the benchmark times a fixed kernel, random byte
   reads and writes over a 768 KiB buffer that stays in the L2 cache,
   and scales each wall figure by [reference_ns] over the kernel's
   median time in the run. On windows of one long run, the scaled
   payload-loop time spread 0.05-0.06 (interquartile range over median)
   where the raw one spread 0.20-0.29; kernels that allocate, chase
   pointers through 8 MiB or do register arithmetic tracked the phases
   worse. [reference_ns] is about the kernel's time on that VM, so scaled
   figures read close to wall figures there. *)
let reference_buf = Bytes.make (768 * 1024) '\000'
let reference_ns = 4e6

let reference_kernel () =
  let n = Bytes.length reference_buf in
  let acc = ref 0 in
  (* Bring the buffer back into the cache first: that cost depends on
     what the preceding unit run left there. *)
  for i = 0 to (n / 64) - 1 do
    acc := !acc + Char.code (Bytes.unsafe_get reference_buf (i * 64))
  done;
  let x = ref 12345 in
  let t0 = now_ns () in
  for _ = 1 to 400_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x mod n in
    acc := !acc + Char.code (Bytes.unsafe_get reference_buf i);
    Bytes.unsafe_set reference_buf ((i + !acc) mod n) (Char.unsafe_chr (!acc land 255))
  done;
  let t = now_ns () - t0 in
  ignore (Sys.opaque_identity !acc : int);
  t

(* --- the measured run, shared by all workloads ---------------------------------- *)

type gc_delta = { minor : float; promoted : float; majors : int }

let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor = g1.Gc.minor_words -. g0.Gc.minor_words;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      majors = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

(* One run of a unit: a campaign, a farm or a fleet. *)
type unit_run = {
  payloads : int;
  loop_ns : int;  (** wall ns of the payload loop, set-up excluded *)
  setup_ns : int;
  steps : int array;  (** wall ns of each timed step; empty when steps are not timed *)
  merges : bool array;  (** per timed step: an epoch merge ran in it *)
  gc : gc_delta;  (** over the payload loop *)
  digest : string;
}

(* The timed repeats of one unit under one tracer state. *)
type repeats = {
  mutable loops : int list;  (** payload loops of the runs without the step sink *)
  mutable setups : int list;  (** set-ups of the runs without the step sink *)
  mutable step_runs : int array list;  (** each step's wall ns, per run that timed steps *)
  mutable merge_flags : bool array;
}

type tally = {
  reps : repeats array;
  mutable gc_minor : float;
  mutable gc_promoted : float;
  mutable gc_majors : int;
  mutable gc_payloads : int;
}

let new_tally units =
  {
    reps = Array.init units (fun _ -> { loops = []; setups = []; step_runs = []; merge_flags = [||] });
    gc_minor = 0.;
    gc_promoted = 0.;
    gc_majors = 0;
    gc_payloads = 0;
  }

type measured = {
  plain : tally;  (** runs without the recording tracer *)
  traced : tally;  (** runs with it (--trace 1 only) *)
  top_heap_words : int;  (** the heap high-water mark after the first round *)
  runs : int;
  scale : float;  (** [reference_ns] over the reference kernel's median ns *)
}

(* Run every unit once: the first round gives each unit's outcomes and
   warms caches and lazy set-up, and is not timed. Then repeat the units
   in turn while the next run is expected to end no more than half a run
   after [seconds]. Every run starts from a compacted heap after one
   timing of the reference kernel, so repeats of a unit start alike.
   With [step_sink], timed rounds alternate between runs without the
   step sink (throughput, set-up, GC) and runs with it (step times).
   With the recording tracer on, timed rounds (or pairs of rounds)
   alternate between it and a disabled one, so a traced run can measure
   the tracer's own overhead; every alternation gets at least one round.
   [run_unit] records the unit's outcomes on its first run. *)
let measure ~seconds ~(tr : Tracer.t) ~units ~step_sink run_unit =
  let off = Tracer.create ~on:false in
  let plain = new_tally units and traced = new_tally units in
  let period = if step_sink then 2 else 1 in
  let min_rounds = 1 + (period * if Tracer.on tr then 2 else 1) in
  let digests = Array.make units "" in
  let deterministic = ref true and heap = ref 0 and runs = ref 0 and kernel = ref [] in
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let fold t i r ~sink =
    let u = t.reps.(i) in
    if not sink then begin
      u.loops <- r.loop_ns :: u.loops;
      u.setups <- r.setup_ns :: u.setups;
      t.gc_minor <- t.gc_minor +. r.gc.minor;
      t.gc_promoted <- t.gc_promoted +. r.gc.promoted;
      t.gc_majors <- t.gc_majors + r.gc.majors;
      t.gc_payloads <- t.gc_payloads + r.payloads
    end;
    if Array.length r.steps > 0 then begin
      (match u.step_runs with
       | s :: _ when Array.length s <> Array.length r.steps -> deterministic := false
       | _ -> ());
      u.step_runs <- r.steps :: u.step_runs;
      u.merge_flags <- r.merges
    end
  in
  let rec go k i =
    let j = k - 1 in
    let is_traced = k > 0 && Tracer.on tr && j / period mod 2 = 0 in
    let sink = step_sink && k > 0 && j mod 2 = 1 in
    let tr_k = if is_traced then tr else off in
    let started = now_ns () in
    Gc.compact ();
    let kernel_ns = reference_kernel () in
    let root = Tracer.open_ tr_k ~layer:"bench" ~name:"unit" ~trace:i () in
    let r = run_unit i ~first:(k = 0) ~sink ~tr:tr_k ~root in
    Tracer.close tr_k root;
    incr runs;
    if k = 0 then digests.(i) <- r.digest
    else begin
      kernel := kernel_ns :: !kernel;
      fold (if is_traced then traced else plain) i r ~sink;
      if not (String.equal r.digest digests.(i)) then deterministic := false
    end;
    let k', i' = if i + 1 = units then (k + 1, 0) else (k, i + 1) in
    if k' = 1 && i' = 0 then heap := (Gc.quick_stat ()).Gc.top_heap_words;
    let now = now_ns () in
    if k' < min_rounds || now + ((now - started) / 2) < deadline then go k' i'
  in
  go 0 0;
  gate "repeated runs reproduce each unit's first digest and step count" !deterministic;
  let kernel_ns = median_int !kernel in
  note "reference kernel: median %.3f ms over %d runs; wall figures scaled by %.4f" (kernel_ns /. 1e6)
    (List.length !kernel) (reference_ns /. kernel_ns);
  { plain; traced; top_heap_words = !heap; runs = !runs; scale = reference_ns /. kernel_ns }

(* The tally to read step times from: untraced runs when there are any. *)
let step_tally m = if Array.exists (fun u -> u.step_runs <> []) m.plain.reps then m.plain else m.traced

(* A unit's steps: each step's median wall ns over the runs that timed it. *)
let unit_steps u =
  match u.step_runs with
  | [] -> [||]
  | s :: _ -> Array.init (Array.length s) (fun j -> median_int (List.map (fun a -> a.(j)) u.step_runs))

let all_steps t = Array.concat (Array.to_list (Array.map unit_steps t.reps))

let sorted a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* Payloads and wall ns of the payload loops of the units that executed
   payloads, each loop at its median over the repeats. *)
let loop_ns t ~payloads =
  let ns = ref 0. and n = ref 0 in
  Array.iteri
    (fun i p ->
      match t.reps.(i).loops with
      | _ :: _ as l when p > 0 ->
        ns := !ns +. median_int l;
        n := !n + p
      | _ -> ())
    payloads;
  (!n, !ns)

(* The end-to-end metrics every workload reports. [payloads] holds each
   unit's executed payloads from its first run. Wall figures are scaled
   to the reference speed; the raw ones are printed as notes. *)
let end_to_end m ~payloads ~virtual_s ~executed ~budget ~edges ~bugs =
  let n, ns = loop_ns m.plain ~payloads in
  let steps = sorted (all_steps (step_tally m)) in
  let setups = List.concat_map (fun u -> u.setups) (Array.to_list m.plain.reps) in
  let setup_ns = median_int setups in
  let s = m.scale in
  metric "payloads_per_s" "1/s-ref" "host-wall scaled" (div (fi n) (ns *. s /. 1e9));
  metric "step_p99_us" "us-ref" "host-wall scaled" (quantile steps 0.99 *. s /. 1e3);
  metric "setup_s" "s" "host-wall scaled" (setup_ns *. s /. 1e9);
  (* The median and the 99.9th percentile are reported per layer, without
     a bound. The median step sits where generated programs (about 9x
     the cost of a mutation) meet mutated ones, so it follows each seed's
     mix of the two: over ten seeds it spread 0.13-0.24 (interquartile
     range over median) where payloads_per_s spread 0.07-0.17. On the hub
     a seed may or may not find programs that run 10-30 ms natively, and
     about 30 such steps in a round decide whether p999 reads 3 or 12 ms. *)
  metric "campaign.step_p50_us" "us-ref" "host-wall scaled" (quantile steps 0.5 *. s /. 1e3);
  metric "campaign.step_p999_us" "us-ref" "host-wall scaled" (quantile steps 0.999 *. s /. 1e3);
  metric "virtual_payloads_per_s" "1/s-virtual" "virtual" (div (fi executed) virtual_s);
  metric "edges" "count" "count" edges;
  metric "bugs" "count" "count" bugs;
  metric "executed_share" "ratio" "count" (div (fi executed) (fi budget));
  (* Taken after the first round: repeats add no live data, only heap
     growth whose amount depends on how many runs fit. *)
  metric "peak_heap_mb" "MB" "host" (fi (m.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  note "runs: %d over %d unit(s); %d steps in the percentiles; %d set-ups" m.runs (Array.length payloads)
    (Array.length steps) (List.length setups);
  note "unscaled host-wall: payloads_per_s %.1f, step_p50_us %.3f, step_p99_us %.3f, setup_s %.6f"
    (div (fi n) (ns /. 1e9)) (quantile steps 0.5 /. 1e3) (quantile steps 0.99 /. 1e3) (setup_ns /. 1e9);
  note "failed_share = %.6f (%d of %d payloads did not execute)"
    (div (fi (budget - executed)) (fi budget)) (budget - executed) budget

let gc_metrics m =
  let t = if m.plain.gc_payloads > 0 then m.plain else m.traced in
  let p = fi (max 1 t.gc_payloads) in
  metric "gc.minor_words_per_payload" "words/payload" "count" (t.gc_minor /. p);
  metric "gc.promoted_words_per_payload" "words/payload" "count" (t.gc_promoted /. p);
  metric "gc.major_collections_per_kpayload" "1/kpayload" "count" (fi t.gc_majors *. 1000. /. p)

(* Share by which the tracer slows the payload loops: median traced loop
   against median untraced loop, over the units that have both. *)
let tracer_overhead m =
  let on = ref 0. and off = ref 0. in
  Array.iteri
    (fun i t ->
      match (t.loops, m.plain.reps.(i).loops) with
      | (_ :: _ as a), (_ :: _ as b) ->
        on := !on +. median_int a;
        off := !off +. median_int b
      | _ -> ())
    m.traced.reps;
  div (!on -. !off) !off

(* Time one payload loop: wall ns of every step, whether an epoch merge
   ran in it ([syncs] grew), and the GC work of the loop. *)
let step_loop ~tr ~root ~layer ~step_index ~finished ~step ~syncs =
  let steps = Samples.create () and merges = ref [] in
  let t0 = now_ns () in
  let (), gc =
    with_gc (fun () ->
        while not (finished ()) do
          let s0 = syncs () in
          let a = now_ns () in
          step ();
          let b = now_ns () in
          Samples.push steps (b - a);
          if syncs () > s0 then merges := (steps.Samples.n - 1) :: !merges;
          ignore (Tracer.record tr ~layer ~name:"step" ~parent:root ~trace:!step_index ~start:a ~stop:b () : int);
          incr step_index
        done)
  in
  let loop_ns = now_ns () - t0 in
  let flags = Array.make steps.Samples.n false in
  List.iter (fun j -> flags.(j) <- true) !merges;
  (Samples.to_array steps, flags, loop_ns, gc)

(* --- layer replays on the run's own inputs ----------------------------------- *)

(* Mean wall ns per call of [f i] over [n] calls, as one span. *)
let time_per_call tr ~root ~layer ~name n f =
  let t0 = now_ns () in
  for i = 0 to n - 1 do f i done;
  let t1 = now_ns () in
  ignore (Tracer.record tr ~layer ~name ~parent:root ~start:t0 ~stop:t1 () : int);
  div (fi (t1 - t0)) (fi n)

let replay_rounds = 4000

type layer_costs = {
  generate_ns : float;
  mutate_ns : float;
  wire_ns : float;  (** encode + decode *)
  cov_ns_per_record : float;  (** sancov decode + feedback merge *)
  corpus_next_ns : float;
  corpus_add_ns : float;
  reboot_ns : float;
}

let reboot_us tr ~root build =
  let m =
    match Machine.create_native build with
    | Ok m -> m
    | Error e -> failwith ("native machine: " ^ Eof_error.to_string e)
  in
  let ready = (Osbuild.syms build).Osbuild.sym_executor_main in
  ignore (Machine.set_breakpoint m ready : (unit, Eof_error.t) result);
  let rec to_ready budget =
    if budget = 0 then failwith "reboot replay: executor_main not reached"
    else
      match Machine.continue_ m with
      | Ok (Machine.Stopped_breakpoint pc) when pc = ready -> ()
      | Ok _ -> to_ready (budget - 1)
      | Error e -> failwith ("reboot replay: " ^ Eof_error.to_string e)
  in
  to_ready 10_000;
  let samples =
    List.init 40 (fun _ ->
        let t0 = now_ns () in
        (match Machine.reset_target m with
         | Ok () -> ()
         | Error e -> failwith ("reboot replay: " ^ Eof_error.to_string e));
        to_ready 10_000;
        let t1 = now_ns () in
        ignore (Tracer.record tr ~layer:"machine" ~name:"reboot" ~parent:root ~start:t0 ~stop:t1 () : int);
        t1 - t0)
  in
  median_int samples /. 1e3

(* The host fuzzing loop's layers, replayed on the workload's final Zephyr
   corpus and on drains of the mean size it observed. Every workload runs
   this loop. *)
let replay_host tr ~root ~seed ~corpus ~records_per_drain =
  let build = Targets.build_hw zephyr in
  let max_len = Campaign.default_config.max_prog_len in
  let spec, table = spec_table build in
  let endianness = endianness build in
  let rng = Rng.create (derive ~seed "replay" 0) in
  let g = Gen.create ~rng ~spec ~table () in
  let corpus = match corpus with [] -> List.init 16 (fun _ -> Gen.generate g ~max_len) | c -> c in
  let progs = Array.of_list corpus in
  let np = Array.length progs in
  let prog i = progs.(i mod np) in
  (* gen *)
  let generate_ns =
    time_per_call tr ~root ~layer:"gen" ~name:"generate" replay_rounds (fun _ ->
        ignore (Gen.generate g ~max_len : Prog.t))
  in
  let mutate_ns =
    time_per_call tr ~root ~layer:"gen" ~name:"mutate" replay_rounds (fun i ->
        ignore (Gen.mutate g (prog i) ~max_len:(2 * max_len) : Prog.t))
  in
  metric "gen.generate_ns" "ns-wall" "host-wall" generate_ns;
  metric "gen.mutate_ns" "ns-wall" "host-wall" mutate_ns;
  (* wire *)
  let buf = Buffer.create 4096 in
  let encode_ns =
    time_per_call tr ~root ~layer:"wire" ~name:"encode" replay_rounds (fun i ->
        Buffer.clear buf;
        ignore (Wire.encode_into ~endianness buf (Prog.to_wire (prog i)) : (unit, string) result))
  in
  let encoded =
    Array.map
      (fun p ->
        match Wire.encode ~endianness (Prog.to_wire p) with
        | Ok s -> s
        | Error e -> failwith ("wire encode: " ^ e))
      progs
  in
  let decode_ns =
    time_per_call tr ~root ~layer:"wire" ~name:"decode" replay_rounds (fun i ->
        ignore (Wire.decode ~endianness encoded.(i mod np) : (Wire.program, string) result))
  in
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  metric "wire.encode_ns" "ns-wall" "host-wall" encode_ns;
  metric "wire.decode_ns" "ns-wall" "host-wall" decode_ns;
  metric "wire.bytes_per_prog" "B" "count" (div (fi bytes) (fi np));
  (* sancov / feedback: a drain of the observed mean size *)
  let count = max 1 (int_of_float (Float.round records_per_drain)) in
  let cap = Osbuild.edge_capacity build in
  let raw = Bytes.create (4 * count) in
  let erng = Rng.create (derive ~seed "records" 0) in
  for k = 0 to count - 1 do
    let e = Int32.of_int (Rng.int erng cap) in
    match endianness with
    | Eof_hw.Arch.Little -> Bytes.set_int32_le raw (4 * k) e
    | Eof_hw.Arch.Big -> Bytes.set_int32_be raw (4 * k) e
  done;
  let raw = Bytes.to_string raw in
  let scratch = Array.make count 0 in
  let drains = max 1 (200_000 / count) in
  let decode_drain =
    time_per_call tr ~root ~layer:"sancov" ~name:"decode_records_into" drains (fun _ ->
        ignore (Sancov.decode_records_into ~endianness ~count raw scratch : int))
  in
  let fb = Feedback.create ~edge_capacity:cap in
  let merge_drain =
    time_per_call tr ~root ~layer:"feedback" ~name:"merge_array" drains (fun _ ->
        ignore (Feedback.merge_array fb scratch ~len:count : int))
  in
  metric "sancov.decode_ns_per_record" "ns-wall" "host-wall" (decode_drain /. fi count);
  metric "feedback.merge_ns_per_record" "ns-wall" "host-wall" (merge_drain /. fi count);
  (* corpus *)
  let fresh () = Corpus.create ~rng:(Rng.create (derive ~seed "corpus" 0)) () in
  let c = ref (fresh ()) in
  let add_ns =
    time_per_call tr ~root ~layer:"corpus" ~name:"add" replay_rounds (fun i ->
        if i mod np = 0 then c := fresh ();
        ignore (Corpus.add !c ~prog:(prog i) ~new_edges:1 ~crashed:false : bool))
  in
  let next_ns =
    time_per_call tr ~root ~layer:"corpus" ~name:"next" replay_rounds (fun _ ->
        ignore (Corpus.next !c ~target:Corpus.default_target : (Prog.t * int) option))
  in
  metric "corpus.add_ns" "ns-wall" "host-wall" add_ns;
  metric "corpus.next_ns" "ns-wall" "host-wall" next_ns;
  (* machine *)
  let reboot = reboot_us tr ~root (Targets.build_hw zephyr) in
  metric "machine.reboot_us" "us-wall" "host-wall" reboot;
  {
    generate_ns;
    mutate_ns;
    wire_ns = encode_ns +. decode_ns;
    cov_ns_per_record = (decode_drain +. merge_drain) /. fi count;
    corpus_next_ns = next_ns;
    corpus_add_ns = add_ns;
    reboot_ns = reboot *. 1e3;
  }

(* The link layers' replays: the fused continue+drain batch through the
   RSP codec, and one partition reflash over a clean link. Only
   link-farm-faulty runs these layers; elsewhere they read 0. *)
let replay_link tr ~root ~ran =
  let codec_ns, reflash_ms =
    if not ran then (0., 0.)
    else begin
      let layout = Osbuild.covbuf_layout (Targets.build_hw zephyr) in
      let ops =
        [
          Rsp.B_continue;
          Rsp.B_read_counted
            {
              count_addr = Sancov.Layout.write_index_addr layout;
              data_addr = Sancov.Layout.records_addr layout;
              stride = 4;
              max_count = layout.Sancov.Layout.capacity_records;
              reset = true;
            };
          Rsp.B_read_counted
            {
              count_addr = Sancov.Layout.cmp_count_addr layout;
              data_addr = Sancov.Layout.cmp_ring_addr layout;
              stride = 8;
              max_count = Sancov.Layout.cmp_ring_entries;
              reset = true;
            };
          Rsp.B_monitor "uart";
        ]
      in
      let codec_ns =
        time_per_call tr ~root ~layer:"rsp" ~name:"batch_codec" replay_rounds (fun _ ->
            ignore (Rsp.parse_batch_ops (Rsp.render_batch_ops ops) : (Rsp.batch_op list, Eof_error.t) result))
      in
      let reflash =
        List.init 3 (fun _ ->
            let b = Targets.build_hw zephyr in
            let m =
              match Machine.create b with
              | Ok m -> m
              | Error e -> failwith ("link machine: " ^ Eof_error.to_string e)
            in
            let image = Osbuild.image b in
            let flash_base = (Eof_hw.Board.profile (Osbuild.board b)).Eof_hw.Board.flash_base in
            let t0 = now_ns () in
            (match Liveness.restore_partitions m ~flash_base ~image ~table:image.Eof_hw.Image.table with
             | Ok _ -> ()
             | Error e -> failwith ("reflash replay: " ^ Eof_error.to_string e));
            let t1 = now_ns () in
            ignore (Tracer.record tr ~layer:"recovery" ~name:"restore_partitions" ~parent:root ~start:t0 ~stop:t1 () : int);
            t1 - t0)
      in
      (codec_ns, median_int reflash /. 1e6)
    end
  in
  metric "rsp.batch_codec_ns" "ns-wall" "host-wall" codec_ns;
  metric "recovery.reflash_ms" "ms-wall" "host-wall" reflash_ms

(* The hub layers' replays on the journaled frames and seeds. Only
   hub-fleet runs these layers; elsewhere they read 0. *)
let replay_hub tr ~root ~frames ~transplants =
  let frames = Array.of_list frames in
  let nf = Array.length frames in
  let codec_ns, append_ns, retype_ns =
    if nf = 0 then (0., 0., 0.)
    else begin
      let decoded =
        Array.map
          (fun f -> match Protocol.decode f with Ok m -> m | Error e -> failwith (Protocol.error_to_string e))
          frames
      in
      let codec_ns =
        time_per_call tr ~root ~layer:"protocol" ~name:"decode+encode" (max nf (replay_rounds / 4)) (fun i ->
            match Protocol.decode frames.(i mod nf) with
            | Ok m -> ignore (Protocol.encode m : string)
            | Error _ -> ())
      in
      let jpath = Filename.concat work_dir "replay.jnl" in
      (try Sys.remove jpath with Sys_error _ -> ());
      let j = match Journal.open_ jpath with Ok j -> j | Error e -> failwith e in
      let append_ns =
        time_per_call tr ~root ~layer:"journal" ~name:"append" (max nf 400) (fun i -> Journal.append j decoded.(i mod nf))
      in
      Journal.close j;
      Sys.remove jpath;
      let dst = Hashtbl.create 2 in
      let retype_dst =
        Array.of_list
          (List.map
             (fun (p, os) ->
               if not (Hashtbl.mem dst os) then Hashtbl.replace dst os (spec_table (Targets.build_hw (target_of os)));
               let s, t = Hashtbl.find dst os in
               (p, s, t))
             transplants)
      in
      let nt = Array.length retype_dst in
      let retype_ns =
        if nt = 0 then 0.
        else
          time_per_call tr ~root ~layer:"transplant" ~name:"retype" (max nt 400) (fun i ->
              let p, s, t = retype_dst.(i mod nt) in
              ignore (Transplant.retype ~dst_spec:s ~dst_table:t p : Transplant.outcome option))
      in
      (codec_ns, append_ns, retype_ns)
    end
  in
  metric "protocol.codec_ns_per_frame" "ns-wall" "host-wall" codec_ns;
  metric "journal.append_us_per_frame" "us-wall" "host-wall" (append_ns /. 1e3);
  metric "transplant.retype_us" "us-wall" "host-wall" (retype_ns /. 1e3)

(* --- clean link vs native, same seeds and boards --------------------------- *)

let run_farm tr ~root ~name fcfg mk_build =
  match Farm.init ~obs:(Obs.create ()) fcfg mk_build with
  | Error e -> failwith (name ^ ": " ^ Eof_error.to_string e)
  | Ok f ->
    let t0 = now_ns () in
    while not (Farm.finished f) do Farm.step f done;
    let t1 = now_ns () in
    ignore (Tracer.record tr ~layer:"farm" ~name ~parent:root ~start:t0 ~stop:t1 () : int);
    (Farm.finish f, t1 - t0)

(* Run one farm over a clean link and one natively; gate on equal
   digests. The wall difference per payload is the link's host cost. *)
let link_vs_native tr ~root ~boards (base : Campaign.config) target =
  let fcfg backend =
    { Farm.default_config with boards; base = { base with fault_rate = 0.; backend } }
  in
  let mk _ = Targets.build_hw target in
  let link, link_ns = run_farm tr ~root ~name:"run-clean-link" (fcfg Machine.Link) mk in
  let native, native_ns = run_farm tr ~root ~name:"run-native" (fcfg Machine.Native) mk in
  gate "clean-link farm digest = native farm digest"
    (String.equal (Report.farm_digest link) (Report.farm_digest native));
  div (fi (link_ns - native_ns) /. 1e3) (fi link.Farm.executed_programs)

(* Median of the steps in which an epoch merge ran, minus the median
   step, scaled like the end-to-end step times. *)
let merge_step_us m =
  let t = step_tally m in
  let merged =
    Array.concat
      (Array.to_list
         (Array.map
            (fun u ->
              let steps = unit_steps u in
              Array.of_list (List.filteri (fun j _ -> u.merge_flags.(j)) (Array.to_list steps)))
            t.reps))
  in
  if Array.length merged = 0 then 0.
  else (quantile (sorted merged) 0.5 -. quantile (sorted (all_steps t)) 0.5) *. m.scale /. 1e3

(* The layer table: shares of the mean step that the replayed layer
   costs explain; the remainder is unattributed. The campaign does not
   expose its generate/mutate split, so the table assumes the split sits
   at the configured mutation_bias ceiling, which it approaches once
   fresh generation stops finding edges; each mutation draws one
   Corpus.next. *)
let layer_table ~mean_step costs ~records_per_payload ~admit_share ~resets_per_payload =
  let m = Campaign.default_config.mutation_bias in
  let rows =
    [
      ("gen", (m *. costs.mutate_ns) +. ((1. -. m) *. costs.generate_ns));
      ("wire", costs.wire_ns);
      ("sancov/feedback", records_per_payload *. costs.cov_ns_per_record);
      ("corpus", (m *. costs.corpus_next_ns) +. (admit_share *. costs.corpus_add_ns));
      ("machine.reboot", costs.reboot_ns *. resets_per_payload);
    ]
  in
  let attributed = List.fold_left (fun acc (_, ns) -> acc +. ns) 0. rows in
  Printf.printf "layer table (share of mean step %.2f us, host-wall):\n" (mean_step /. 1e3);
  List.iter
    (fun (name, ns) -> Printf.printf "  %-16s %9.3f us  %6.2f%%\n" name (ns /. 1e3) (100. *. div ns mean_step))
    rows;
  let unattributed = 1. -. div attributed mean_step in
  Printf.printf "  %-16s %9.3f us  %6.2f%%\n" "unattributed" ((mean_step -. attributed) /. 1e3)
    (100. *. unattributed);
  metric "campaign.unattributed_share" "ratio" "host-wall" unattributed

let print_self_times tr =
  Printf.printf "span self time by layer (host-wall, %d spans):\n" (Tracer.count tr);
  List.iter
    (fun (layer, ns) -> Printf.printf "  %-12s %12.3f ms\n" layer (fi ns /. 1e6))
    (Tracer.self_ns_by_layer tr)

let validate_all what progs =
  gate (what ^ ": every program passes Prog.validate")
    (List.for_all (fun p -> Result.is_ok (Prog.validate p)) progs)

let note_aborts causes =
  if causes <> [] then
    note "abort causes: %s"
      (String.concat ", "
         (List.map (fun k -> Printf.sprintf "%s=%d" k (List.length (List.filter (( = ) k) causes)))
            (List.sort_uniq compare causes)))
  else note "abort causes: none"

(* --- per-layer metrics shared by the workloads ------------------------------ *)

let per_p n payloads = fi n /. fi (max 1 payloads)
let per_k n payloads = 1000. *. per_p n payloads

let board_virtual_s (o : Farm.outcome) =
  Array.fold_left (fun acc (b : Campaign.outcome) -> acc +. b.Campaign.virtual_s) 0. o.Farm.per_board

(* The host fuzzing loop's counts per payload, its layer replays and the
   layer table built from both. *)
let host_loop_layers tr ~root ~seed m ~unit_payloads ~payloads ~resets ~stops ~records ~drains ~admits ~corpus =
  let costs = replay_host tr ~root ~seed ~corpus ~records_per_drain:(div (fi records) (fi drains)) in
  metric "machine.resets_per_kpayload" "1/kpayload" "count" (per_k resets payloads);
  metric "machine.stops_per_payload" "1/payload" "count" (per_p stops payloads);
  metric "sancov.records_per_payload" "1/payload" "count" (per_p records payloads);
  metric "corpus.admit_share" "ratio" "count" (per_p admits payloads);
  (* Unscaled, like the replayed layer costs it is compared with. *)
  let n, ns = loop_ns m.plain ~payloads:unit_payloads in
  layer_table ~mean_step:(div ns (fi n)) costs ~records_per_payload:(per_p records payloads)
    ~admit_share:(per_p admits payloads) ~resets_per_payload:(per_p resets payloads)

let link_metrics ~host_us ~payloads ~board_virtual counter =
  metric "link.exchanges_per_payload" "1/payload" "count" (per_p (counter "transport.exchanges") payloads);
  metric "link.bytes_per_payload" "B/payload" "count"
    (per_p (counter "transport.bytes_tx" + counter "transport.bytes_rx") payloads);
  metric "link.virtual_us_per_payload" "us-virtual" "virtual" (board_virtual *. 1e6 /. fi (max 1 payloads));
  metric "link.host_us_per_payload" "us-wall" "host-wall" host_us

let no_link () = link_metrics ~host_us:0. ~payloads:0 ~board_virtual:0. (fun _ -> 0)

(* [counter] reads the workload's campaign buses; off the faulty link the
   ladder never runs and these counters stay 0. *)
let recovery_metrics ~payloads ~dead counter =
  metric "recovery.retry_per_kpayload" "1/kpayload" "count" (per_k (counter "session.retries") payloads);
  metric "recovery.resync_per_kpayload" "1/kpayload" "count" (per_k (counter "recover.resync") payloads);
  metric "recovery.reset_per_kpayload" "1/kpayload" "count" (per_k (counter "recover.reset") payloads);
  metric "recovery.reflash_per_kpayload" "1/kpayload" "count" (per_k (counter "recover.reflash") payloads);
  metric "recovery.dead_boards" "count" "count" (fi dead)

let farm_metrics ~payloads ~syncs ~bringup_failures ~merge_us =
  metric "farm.syncs_per_kpayload" "1/kpayload" "count" (per_k syncs payloads);
  metric "farm.merge_step_us" "us-ref" "host-wall scaled" merge_us;
  metric "farm.bringup_failures" "count" "count" (fi bringup_failures)

let no_farm () = farm_metrics ~payloads:0 ~syncs:0 ~bringup_failures:0 ~merge_us:0.

let hub_metrics ~payloads ~frames ~transplants =
  metric "hub.frames_per_kpayload" "1/kpayload" "count" (per_k (List.length frames) payloads);
  metric "hub.frame_bytes_per_payload" "B/payload" "count"
    (per_p (List.fold_left (fun acc f -> acc + String.length f) 0 frames) payloads);
  metric "hub.transplants_per_kpayload" "1/kpayload" "count" (per_k transplants payloads)

let no_hub () = hub_metrics ~payloads:0 ~frames:[] ~transplants:0

(* --- workload: native-zephyr ----------------------------------------------- *)

type outcome_summary = { budget : int; failed : int; measured : measured }

let sum f = List.fold_left (fun acc x -> acc + f x) 0

let native_zephyr ~seed ~seconds ~tr =
  let cfg i =
    {
      Campaign.default_config with
      seed = derive ~seed "native" i;
      iterations = native_budget;
      backend = Machine.Native;
    }
  in
  (match Diff.run { (cfg 0) with iterations = native_diff_prefix } (fun () -> Targets.build_hw zephyr) with
   | Ok v -> gate "Diff.run link = native on a prefix" v.Diff.equal
   | Error e -> note "Diff.run: %s" (Eof_error.to_string e); gate "Diff.run link = native on a prefix" false);
  let first = Array.make native_campaigns None in
  let step_index = ref 0 in
  let run_unit i ~first:is_first ~sink:_ ~tr ~root =
    let obs = Obs.create () in
    let t0 = now_ns () in
    let st =
      match Campaign.init ~obs (cfg i) (Targets.build_hw zephyr) with
      | Ok st -> st
      | Error e -> failwith ("Campaign.init: " ^ Eof_error.to_string e)
    in
    let t1 = now_ns () in
    ignore (Tracer.record tr ~layer:"campaign" ~name:"init" ~parent:root ~start:t0 ~stop:t1 () : int);
    let steps, merges, loop_ns, gc =
      step_loop ~tr ~root ~layer:"campaign" ~step_index
        ~finished:(fun () -> Campaign.finished st)
        ~step:(fun () -> Campaign.step st)
        ~syncs:(fun () -> 0)
    in
    let o = Tracer.span tr ~layer:"campaign" ~name:"finish" ~parent:root (fun () -> Campaign.finish st) in
    if is_first then first.(i) <- Some (o, obs);
    {
      payloads = o.Campaign.executed_programs;
      loop_ns;
      setup_ns = t1 - t0;
      steps;
      merges;
      gc;
      digest = Report.campaign_digest o;
    }
  in
  let m = measure ~seconds ~tr ~units:native_campaigns ~step_sink:false run_unit in
  let outs = Array.to_list (Array.map Option.get first) in
  let os = List.map fst outs in
  let unit_payloads = Array.of_list (List.map (fun (o : Campaign.outcome) -> o.executed_programs) os) in
  let executed = Array.fold_left ( + ) 0 unit_payloads in
  let budget = native_campaigns * native_budget in
  let virtual_s = List.fold_left (fun acc (o : Campaign.outcome) -> acc +. o.virtual_s) 0. os in
  let edges = fi (sum (fun (o : Campaign.outcome) -> o.coverage) os) /. fi native_campaigns in
  let bugs =
    fi (sum (fun (o : Campaign.outcome) -> List.length (Targets.found_ids o.crashes)) os) /. fi native_campaigns
  in
  validate_all "final corpus" (List.concat_map (fun (o : Campaign.outcome) -> o.final_corpus) os);
  note "dead boards: 0 (native)";
  note_aborts (List.filter_map (fun (o : Campaign.outcome) -> Option.map error_kind o.abort_cause) os);
  end_to_end m ~payloads:unit_payloads ~virtual_s ~executed ~budget ~edges ~bugs;
  if Tracer.on tr then begin
    let root = Tracer.open_ tr ~layer:"bench" ~name:"layers" () in
    let c name = sum (fun (_, obs) -> Obs.counter_value obs name) outs in
    host_loop_layers tr ~root ~seed m ~unit_payloads ~payloads:executed
      ~resets:(sum (fun (o : Campaign.outcome) -> o.resets) os)
      ~stops:(c "native.stops") ~records:(c "native.records") ~drains:(c "native.drains")
      ~admits:(c "campaign.corpus_admits") ~corpus:(List.hd os).final_corpus;
    (* No link, recovery, farm or hub runs here. *)
    replay_link tr ~root ~ran:false;
    no_link ();
    recovery_metrics ~payloads:executed ~dead:0 c;
    no_farm ();
    replay_hub tr ~root ~frames:[] ~transplants:[];
    no_hub ();
    Tracer.close tr root
  end;
  { budget; failed = budget - executed; measured = m }

(* --- workload: link-farm-faulty -------------------------------------------- *)

let link_farm_faulty ~seed ~seconds ~tr =
  let base i =
    {
      Campaign.default_config with
      seed = derive ~seed "farm" i;
      iterations = farm_budget;
      backend = Machine.Link;
      reset_policy = Campaign.Ladder;
      fault_rate = farm_fault_rate;
      fault_seed = derive ~seed "probe" i;
    }
  in
  let fcfg i = { Farm.default_config with boards = farm_boards; base = base i } in
  (* A farm whose bring-up fails (a probe fault before the boards are up)
     runs no payload: its whole budget counts as failed, and its failed
     bring-up counts as set-up time. *)
  let first = Array.make farm_count None in
  let bringup_failed = Array.make farm_count None in
  let step_index = ref 0 in
  let run_unit i ~first:is_first ~sink:_ ~tr ~root =
    let obs = Obs.create () in
    let t0 = now_ns () in
    let init = Farm.init ~obs (fcfg i) (fun _ -> Targets.build_hw zephyr) in
    let t1 = now_ns () in
    ignore (Tracer.record tr ~layer:"farm" ~name:"init" ~parent:root ~start:t0 ~stop:t1 () : int);
    match init with
    | Error e ->
      if is_first then bringup_failed.(i) <- Some (error_kind e);
      let none = { minor = 0.; promoted = 0.; majors = 0 } in
      {
        payloads = 0;
        loop_ns = 0;
        setup_ns = t1 - t0;
        steps = [||];
        merges = [||];
        gc = none;
        digest = "bring-up failed: " ^ Eof_error.to_string e;
      }
    | Ok f ->
      let steps, merges, loop_ns, gc =
        step_loop ~tr ~root ~layer:"farm" ~step_index
          ~finished:(fun () -> Farm.finished f)
          ~step:(fun () -> Farm.step f)
          ~syncs:(fun () -> Farm.syncs_so_far f)
      in
      let o = Tracer.span tr ~layer:"farm" ~name:"finish" ~parent:root (fun () -> Farm.finish f) in
      if is_first then first.(i) <- Some (o, obs);
      {
        payloads = o.Farm.executed_programs;
        loop_ns;
        setup_ns = t1 - t0;
        steps;
        merges;
        gc;
        digest = Report.farm_digest o;
      }
  in
  let m = measure ~seconds ~tr ~units:farm_count ~step_sink:false run_unit in
  let outs = List.filter_map Fun.id (Array.to_list first) in
  let os = List.map fst outs in
  let unit_payloads =
    Array.map (function Some ((o : Farm.outcome), _) -> o.executed_programs | None -> 0) first
  in
  let executed = Array.fold_left ( + ) 0 unit_payloads in
  let budget = farm_count * farm_budget in
  let virtual_s = List.fold_left (fun acc (o : Farm.outcome) -> acc +. o.virtual_s) 0. os in
  (* Per farm that came up: the budget that bring-up failures lose shows
     in executed_share. *)
  let ran = fi (max 1 (List.length os)) in
  let edges = fi (sum (fun (o : Farm.outcome) -> o.coverage) os) /. ran in
  let bugs = fi (sum (fun (o : Farm.outcome) -> List.length (Targets.found_ids o.crashes)) os) /. ran in
  validate_all "final corpus" (List.concat_map (fun (o : Farm.outcome) -> o.final_corpus) os);
  let dead = sum (fun (o : Farm.outcome) -> o.dead_boards) os in
  let bringup = List.filter_map Fun.id (Array.to_list bringup_failed) in
  note "dead boards: %d of %d" dead (farm_count * farm_boards);
  note "bring-up failures: %d of %d farms (%d payloads of budget)" (List.length bringup) farm_count
    (List.length bringup * farm_budget);
  note_aborts
    (List.map (fun k -> "bring-up:" ^ k) bringup
    @ List.concat_map
        (fun (o : Farm.outcome) ->
          List.filter_map
            (fun (b : Campaign.outcome) -> Option.map error_kind b.abort_cause)
            (Array.to_list o.per_board))
        os);
  end_to_end m ~payloads:unit_payloads ~virtual_s ~executed ~budget ~edges ~bugs;
  if Tracer.on tr then begin
    let root = Tracer.open_ tr ~layer:"bench" ~name:"layers" () in
    let c name = sum (fun (_, obs) -> Obs.counter_value obs name) outs in
    host_loop_layers tr ~root ~seed m ~unit_payloads ~payloads:executed
      ~resets:
        (sum
           (fun (o : Farm.outcome) ->
             Array.fold_left (fun acc (b : Campaign.outcome) -> acc + b.resets) 0 o.per_board)
           os)
      ~stops:(c "session.stops") ~records:(c "covlink.records") ~drains:(c "covlink.drains")
      ~admits:(c "campaign.corpus_admits")
      ~corpus:(match os with o :: _ -> o.final_corpus | [] -> []);
    replay_link tr ~root ~ran:true;
    (* link.* counts come from the faulty farms; the host cost from a
       clean-link/native pair on the first farm's seeds. *)
    let host_us =
      link_vs_native tr ~root ~boards:farm_boards { (base 0) with iterations = helper_budget * farm_boards } zephyr
    in
    link_metrics ~host_us ~payloads:executed
      ~board_virtual:(List.fold_left (fun acc o -> acc +. board_virtual_s o) 0. os) c;
    recovery_metrics ~payloads:executed ~dead c;
    farm_metrics ~payloads:executed ~syncs:(sum (fun (o : Farm.outcome) -> o.syncs) os)
      ~bringup_failures:(List.length bringup) ~merge_us:(merge_step_us m);
    replay_hub tr ~root ~frames:[] ~transplants:[];
    no_hub ();
    Tracer.close tr root
  end;
  { budget; failed = budget - executed; measured = m }

(* --- workload: hub-fleet ------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Split a journal into its raw frames. *)
let raw_frames data =
  let rec go pos acc =
    if pos >= String.length data then List.rev acc
    else
      match Protocol.frame_size (String.sub data pos (String.length data - pos)) with
      | Ok (Some n) when pos + n <= String.length data -> go (pos + n) (String.sub data pos n :: acc)
      | _ -> List.rev acc
  in
  go 0 []

let hub_oses = [ ("zephyr", "Zephyr"); ("freertos", "FreeRTOS") ]

let hub_fleet ~seed ~seconds ~tr =
  let tenants k =
    List.map
      (fun (name, os) ->
        {
          Tenant.default with
          tenant = name;
          os;
          seed = derive ~seed ("tenant-" ^ name) k;
          iterations = hub_budget;
          boards = 2;
          farms = 2;
          backend = Machine.Native;
        })
      hub_oses
  in
  let journal k = Filename.concat work_dir (Printf.sprintf "hub-%d.jnl" k) in
  (* Set-up on this workload is the time inside the build callbacks. *)
  let in_callback = ref false and cb_ns = ref 0 in
  let timed f =
    let t0 = now_ns () in
    in_callback := true;
    let r = f () in
    cb_ns := !cb_ns + (now_ns () - t0);
    r
  in
  let resolve os =
    timed (fun () ->
        match Targets.find os with
        | None -> Error ("unknown OS " ^ os)
        | Some target ->
          let spec, table = spec_table (Targets.build_hw target) in
          Ok { Worker.mk_build = (fun _ -> timed (fun () -> Targets.build_hw target)); spec; table })
  in
  (* Steps on the hub are the wall intervals between consecutive payload
     events; an interval that ran a build callback is set-up, not a step. *)
  let steps = Samples.create () and merges = ref [] in
  let last = ref 0 and synced = ref false and resets = ref 0 in
  let sink =
    Obs.sink (fun ~t:_ ~board:_ ~tenant:_ ev ->
        match ev with
        | Obs.Event.Payload _ ->
          let n = now_ns () in
          if !last > 0 && not !in_callback then begin
            Samples.push steps (n - !last);
            if !synced then merges := (steps.Samples.n - 1) :: !merges
          end;
          last := n;
          in_callback := false;
          synced := false
        | Obs.Event.Epoch_sync _ -> synced := true
        | Obs.Event.Reset_board -> incr resets
        | _ -> ())
  in
  let first = Array.make hub_fleets None in
  let fleet_resets = Array.make hub_fleets 0 in
  let run_unit k ~first:is_first ~sink:with_sink ~tr ~root =
    let path = journal k in
    (try Sys.remove path with Sys_error _ -> ());
    let obs = Obs.create () in
    if with_sink then Obs.add_sink obs sink;
    steps.Samples.n <- 0;
    merges := [];
    cb_ns := 0;
    last := 0;
    resets := 0;
    let t0 = now_ns () in
    let o, gc =
      with_gc (fun () ->
          Tracer.span tr ~layer:"hub" ~name:"Inproc.run" ~parent:root ~trace:k (fun () ->
              Inproc.run ~obs ~journal:path ~farms:2 (tenants k) ~resolve))
    in
    let wall = now_ns () - t0 in
    let o = match o with Ok o -> o | Error e -> failwith ("Inproc.run: " ^ e) in
    if is_first then first.(k) <- Some (o, obs, read_file path);
    if with_sink then fleet_resets.(k) <- !resets;
    let flags = Array.make steps.Samples.n false in
    List.iter (fun j -> flags.(j) <- true) !merges;
    {
      payloads = o.Inproc.payloads;
      loop_ns = wall - !cb_ns;
      setup_ns = !cb_ns;
      steps = Samples.to_array steps;
      merges = flags;
      gc;
      digest = o.fleet_digest;
    }
  in
  let m = measure ~seconds ~tr ~units:hub_fleets ~step_sink:true run_unit in
  let outs = Array.to_list (Array.map Option.get first) in
  let os = List.map (fun (o, _, _) -> o) outs in
  let unit_payloads = Array.of_list (List.map (fun (o : Inproc.outcome) -> o.payloads) os) in
  let executed = sum (fun (o : Inproc.outcome) -> sum (fun (t : Inproc.tenant_result) -> t.executed) o.tenants) os in
  let lost = sum (fun (o : Inproc.outcome) -> o.payloads_lost) os in
  let budget = hub_fleets * hub_budget * List.length hub_oses in
  let journals = List.map (fun (_, _, data) -> raw_frames data) outs in
  let frames = List.concat journals in
  gate "every journaled frame round-trips byte-identically through Protocol"
    (frames <> []
    && List.for_all
         (fun f -> match Protocol.decode f with Ok m -> String.equal (Protocol.encode m) f | Error _ -> false)
         frames);
  let decode_all frames = List.filter_map (fun f -> Result.to_option (Protocol.decode f)) frames in
  let fleets = List.map decode_all journals in
  (* A fleet's shards run in parallel: its virtual time is its slowest
     shard's. *)
  let virtual_s =
    List.fold_left
      (fun acc fleet ->
        acc
        +. List.fold_left
             (fun acc -> function Protocol.Shard_done { virtual_s; _ } -> Float.max acc virtual_s | _ -> acc)
             0. fleet)
      0. fleets
  in
  (* Journaled seeds, rebound through the pushing tenant's personality.
     The hub numbers campaigns from 1 in the order it accepts submits. *)
  let personality =
    List.map (fun (_, os) -> (os, spec_table (Targets.build_hw (target_of os)))) hub_oses
  in
  let fleet_seeds =
    List.map
      (fun fleet ->
        let os_of =
          List.mapi (fun i c -> (i + 1, c.Tenant.os))
            (List.filter_map (function Protocol.Submit c -> Some c | _ -> None) fleet)
        in
        List.fold_left
          (fun (pushed, seeds) -> function
            | Protocol.Corpus_push { campaign; progs; _ } ->
              let os = List.assoc campaign os_of in
              let spec, table = List.assoc os personality in
              let rebound =
                List.filter_map
                  (fun s ->
                    match Wire.decode ~endianness:Eof_hw.Arch.Little s with
                    | Error _ -> None
                    | Ok w -> Result.to_option (Prog.of_wire ~spec ~table w))
                  progs
              in
              (pushed + List.length progs, seeds @ List.map (fun p -> (os, p)) rebound)
            | _ -> (pushed, seeds))
          (0, []) fleet)
      fleets
  in
  let pushed = sum fst fleet_seeds and seeds = List.concat_map snd fleet_seeds in
  gate "every journaled seed rebinds through its tenant's personality" (List.length seeds = pushed);
  validate_all "journaled corpus" (List.map snd seeds);
  let edges =
    fi (sum (fun (o : Inproc.outcome) -> sum (fun (t : Inproc.tenant_result) -> t.coverage) o.tenants) os)
    /. fi hub_fleets
  in
  let bugs =
    fi (sum (fun (o : Inproc.outcome) -> List.length (Targets.found_ids (List.map fst o.fleet_crashes))) os)
    /. fi hub_fleets
  in
  note "dead boards: 0 (native); hub payloads lost: %d" lost;
  end_to_end m ~payloads:unit_payloads ~virtual_s ~executed:(executed - lost) ~budget ~edges ~bugs;
  if Tracer.on tr then begin
    let root = Tracer.open_ tr ~layer:"bench" ~name:"layers" () in
    let c name = sum (fun (_, obs, _) -> Obs.counter_value obs name) outs in
    let other os = if os = "Zephyr" then "FreeRTOS" else "Zephyr" in
    host_loop_layers tr ~root ~seed m ~unit_payloads ~payloads:executed
      ~resets:(Array.fold_left ( + ) 0 fleet_resets)
      ~stops:(c "native.stops") ~records:(c "native.records") ~drains:(c "native.drains")
      ~admits:(c "campaign.corpus_admits")
      ~corpus:(List.filter_map (fun (os, p) -> if os = "Zephyr" then Some p else None) (snd (List.hd fleet_seeds)));
    replay_link tr ~root ~ran:false;
    no_link ();
    recovery_metrics ~payloads:executed ~dead:0 c;
    (* The hub's shards are farms: one heartbeat frame per epoch merge. *)
    farm_metrics ~payloads:executed
      ~syncs:(List.length (List.filter (function Protocol.Heartbeat _ -> true | _ -> false) (List.concat fleets)))
      ~bringup_failures:0 ~merge_us:(merge_step_us m);
    replay_hub tr ~root ~frames ~transplants:(List.map (fun (os, p) -> (p, other os)) seeds);
    hub_metrics ~payloads:executed ~frames ~transplants:(sum (fun (o : Inproc.outcome) -> o.transplants) os);
    Tracer.close tr root
  end;
  { budget; failed = budget - executed + lost; measured = m }

(* --- entry point ------------------------------------------------------------------ *)

let e2e_names =
  [ "payloads_per_s"; "step_p99_us"; "virtual_payloads_per_s"; "edges"; "bugs";
    "executed_share"; "setup_s"; "peak_heap_mb" ]

let json_metrics names =
  let by_name = List.map (fun m -> (m.m_name, m)) !metrics in
  String.concat ", "
    (List.map
       (fun n ->
         let m = List.assoc n by_name in
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n m.value m.unit_)
       names)

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "native-zephyr | link-farm-faulty | hub-fleet");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: traced run, per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  let run_workload =
    match !workload with
    | "native-zephyr" -> native_zephyr
    | "link-farm-faulty" -> link_farm_faulty
    | "hub-fleet" -> hub_fleet
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
  mkdir_p work_dir;
  let tr = Tracer.create ~on:(!trace = 1) in
  let summary = run_workload ~seed:!seed ~seconds:(max 1 !seconds) ~tr in
  gc_metrics summary.measured;
  if Tracer.on tr then metric "obs.trace_overhead_share" "ratio" "host-wall" (tracer_overhead summary.measured);
  List.iter print_endline (List.rev !notes);
  List.iter
    (fun m -> Printf.printf "metric %-36s %16.6f %-12s [%s]\n" m.m_name m.value m.unit_ m.clock)
    (List.rev !metrics);
  if Tracer.on tr then begin
    print_self_times tr;
    mkdir_p trace_dir;
    let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.jsonl" !workload !seed) in
    Tracer.write tr path;
    Printf.printf "spans written to %s\n" path
  end;
  let finite = List.for_all (fun m -> Float.is_finite m.value) !metrics in
  gate "every metric is finite" finite;
  let failed_gates = List.filter (fun (_, ok) -> not ok) (List.rev !gates) in
  List.iter (fun (g, ok) -> Printf.printf "gate %-4s %s\n" (if ok then "ok" else "FAIL") g) (List.rev !gates);
  let names =
    if Tracer.on tr then
      List.rev_map (fun m -> m.m_name) (List.filter (fun m -> not (List.mem m.m_name e2e_names)) !metrics)
    else e2e_names
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed_gates = []) summary.budget summary.failed (json_metrics names);
  if failed_gates <> [] then begin
    List.iter (fun (g, _) -> prerr_endline ("correctness gate failed: " ^ g)) failed_gates;
    exit 1
  end
