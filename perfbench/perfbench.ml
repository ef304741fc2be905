(* Host-time benchmark of the simulator: four workloads driven through
   the library's public entry points.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   [--commit SHA] [--out DIR]

   Every number is host time or host memory.  Simulated cycles and
   latencies are model outputs: the benchmark checks them (digests of
   each run's deterministic output, replays that must reproduce the
   run's cycles) and never scores them.

   --trace 0 repeats setup + run for S seconds and reports the median
   end-to-end metrics.  --trace 1 makes two untraced runs, the second
   being the reference, then one run with host wall-clock spans
   recorded around the calls into each layer, followed by replays of
   the run's lookups that time the layers the run call hides; it
   reports the per-layer metrics and writes the spans to a side file.
   Both first make one warm-up run, checked but not counted.  Use
   perfbench/run.py, which builds this executable first. *)

module A = Ascend
module Config = A.Arch.Config
module Json = A.Util.Json
module Graph = A.Nn.Graph
module Load_gen = A.Serving.Load_gen
module Serve = A.Serving.Serve
module Cost = A.Serving.Cost
module Serving_metrics = A.Serving.Metrics
module Request = A.Serving.Request
module Fleet = A.Fleet.Fleet
module Decode_engine = A.Decode.Engine
module Decode_cost = A.Decode.Cost
module Decode_metrics = A.Decode.Metrics
module Decode_request = A.Decode.Request
module Service = A.Exec.Service
module Cache = A.Exec.Cache
module Fusion = A.Compiler.Fusion
module Tiling = A.Compiler.Tiling
module Codegen = A.Compiler.Codegen
module Engine = A.Compiler.Engine
module Simulator = A.Core_sim.Simulator
module Scheduler = A.Runtime.Scheduler

let now = Span.now

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* jobs = nproc: more domains than CPUs only adds contention *)
let nproc = Domain.recommended_domain_count ()

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

let ratio a b = if b = 0 then 0. else float a /. float b
let digest_string s = Digest.to_hex (Digest.string s)
let digest_json j = digest_string (Json.to_string j)

(* --- correctness accounting ---------------------------------------- *)

(* every operation the benchmark attempts — a run call, a replayed
   lookup or step, a verified program, a digest comparison — counts
   once; failures are errors, exceptions, verifier findings, replays
   whose cycles disagree with the run and digest mismatches *)
let attempted = ref 0
let failed = ref 0

let check ok what =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAILED: %s\n%!" what
  end

(* --- tracing hooks --------------------------------------------------- *)

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }
let tracer_of sp = { span = (fun name f -> Span.with_ sp name f) }

let wrap_build tr build ~batch = tr.span "nn.build" (fun () -> build ~batch)

(* --- workloads ------------------------------------------------------- *)

type model = {
  m_name : string;
  m_build : batch:int -> Graph.t;
}

let model m_name m_build = { m_name; m_build }

(* per-model seeds as the CLI derives them, so --seed N here equals the
   equivalent CLI command's --seed N *)
let model_seed seed i = seed + (7919 * i)

let completed_requests (m : Serving_metrics.t) =
  List.fold_left
    (fun acc (s : Serving_metrics.model_summary) -> acc + s.completed)
    0 m.Serving_metrics.summaries

(* fleet_open *)

let fleet_cli =
  "fleet gesture,face-detect --core tiny --nodes 4 --cores-per-node 4 \
   --replicas 0,1 --policy round-robin --rate 15000,5000 --duration 0.5"

let fleet_models =
  [
    (model "gesture" (fun ~batch -> A.Nn.Gesture.build ~batch ()), 15000., 0);
    (model "face-detect" (fun ~batch -> A.Nn.Face_detect.build ~batch ()),
     5000., 1);
  ]

let fleet_config ~scale =
  {
    (Fleet.default_config ~core:Config.tiny ~nodes:4) with
    Fleet.cores_per_node = 4;
    max_batch = 8;
    max_delay_s = 0.002;
    queue_depth = 64;
    duration_s = 0.5 *. scale;
    bucket_s = 0.05;
    policy = A.Fleet.Router.Round_robin;
    costing = `Exact;
    hbm_bytes_per_node = None;
  }

(* the arrivals themselves are drawn inside [Fleet.run] *)
let fleet_setup tr ~seed ~scale =
  let config = fleet_config ~scale in
  ( config,
    List.mapi
      (fun i (m, rate, replicas) ->
        let gen =
          tr.span "load_gen" (fun () ->
              Load_gen.create ~rate_per_s:rate
                ~duration_s:config.Fleet.duration_s ~seed:(model_seed seed i) ())
        in
        {
          Fleet.name = m.m_name;
          build = wrap_build tr m.m_build;
          priority = 0;
          slo_ms = 50.;
          workload = Serve.Open_loop gen;
          replicas;
          kv_bytes = 0;
        })
      fleet_models )

let fleet_run (config, specs) = Fleet.run config specs

let fleet_summary (r : Fleet.result) =
  (completed_requests r.Fleet.fleet_metrics, digest_json (Fleet.to_json r))

(* serve_closed *)

let serve_cli =
  "serve bert-base,resnet50 --core max --cores 2 --closed 16 --batch-max 4 \
   --priority 5,0 --slo-ms 500,100 --duration 20"

let serve_models =
  [
    (model "bert-base" (fun ~batch -> A.Nn.Bert.base ~batch ~seq_len:128 ()),
     5, 500.);
    (model "resnet50" (fun ~batch -> A.Nn.Resnet.v1_5 ~batch ()), 0, 100.);
  ]

let serve_config ~scale =
  {
    Serve.core = Config.max;
    cores = 2;
    max_batch = 4;
    max_delay_s = 0.002;
    queue_depth = 64;
    duration_s = 20. *. scale;
    bucket_s = 0.05;
    costing = `Exact;
  }

let serve_setup tr ~seed ~scale =
  let specs =
    List.mapi
      (fun i (m, priority, slo_ms) ->
        {
          Serve.name = m.m_name;
          build = wrap_build tr m.m_build;
          priority;
          slo_ms;
          workload =
            Serve.Closed_loop
              { clients = 16; think_s = 0.; seed = model_seed seed i };
        })
      serve_models
  in
  (serve_config ~scale, specs)

let serve_run (config, specs) = Serve.run config specs

let serve_summary (r : Serve.result) =
  (completed_requests r.Serve.metrics, digest_json (Serve.to_json r))

(* decode_stream *)

let decode_cli = "decode --core lite --rate 2000 --duration 32 --mode continuous"

let decode_config =
  {
    (Decode_engine.default_config ~core:Config.lite ()) with
    Decode_engine.llm = A.Nn.Llm.tiny_config;
    mode = Decode_engine.Continuous;
    costing = `Exact;
    max_batch = 8;
    hbm_bytes = 1024 * A.Util.Units.mib;
    max_cache_len = 64;
  }

let decode_setup tr ~seed ~scale =
  tr.span "load_gen" (fun () ->
      let gen =
        Load_gen.create ~rate_per_s:2000. ~duration_s:(32. *. scale) ~seed ()
      in
      Decode_request.of_load_gen ~gen
        ~prompt:(Load_gen.Geometric { mean = 16.; max_len = 48 })
        ~output:(Load_gen.Geometric { mean = 8.; max_len = 32 }))

let decode_run requests = Decode_engine.run decode_config requests

let decode_summary (r : Decode_engine.result) =
  (r.Decode_engine.metrics.Decode_metrics.total_tokens,
   digest_json (Decode_engine.to_json r))

(* zoo_compile *)

let zoo_cli =
  "cold compile+simulate+verify of gesture, resnet18, mobilenet and \
   bert-base (seq 32) on every supporting Table-5 core, default codegen \
   options, one fresh execution service at jobs = nproc"

let zoo_models =
  [
    model "gesture" (fun ~batch -> A.Nn.Gesture.build ~batch ());
    model "resnet18" (fun ~batch -> A.Nn.Resnet.v1_5_18 ~batch ());
    model "mobilenet" (fun ~batch -> A.Nn.Mobilenet.v2 ~batch ());
    model "bert-base-s32" (fun ~batch -> A.Nn.Bert.base ~batch ~seq_len:32 ());
  ]

type zoo_input = {
  pairs : (int * string * Config.t * Graph.t) list;
      (* canonical index, model, core, graph — in submission order *)
  service : Service.t;
}

(* the seed fixes the submission order of the model/core pairs; the
   output is compared in canonical order, so it does not depend on it *)
let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let zoo_setup tr ~seed ~scale:_ =
  let pairs =
    List.concat_map
      (fun m ->
        let g = wrap_build tr m.m_build ~batch:1 in
        List.filter_map
          (fun config ->
            if Config.supports config (Graph.dtype g) then
              Some (m.m_name, config, g)
            else None)
          Config.all)
      zoo_models
  in
  {
    pairs =
      shuffle ~seed (List.mapi (fun i (m, c, g) -> (i, m, c, g)) pairs);
    service = Service.create ~jobs:nproc ();
  }

type zoo_row = {
  z_index : int;
  z_model : string;
  z_core : string;
  z_tag : string;
  z_cycles : int;
  z_findings : int;
}

let zoo_digest rows =
  let rows =
    List.stable_sort (fun a b -> compare a.z_index b.z_index) rows
  in
  digest_string
    (String.concat "\n"
       (List.map
          (fun r ->
            Printf.sprintf "%s %s %s %d %d" r.z_model r.z_core r.z_tag
              r.z_cycles r.z_findings)
          rows))

(* one compile+simulate per pair on the pooled service, then the static
   verifier over every program on the same pool *)
let zoo_run ?(tr = untraced) input =
  let compiled =
    List.map
      (fun (i, m, config, g) ->
        tr.span "exec.run_inference" (fun () ->
            match Service.run_inference input.service config g with
            | Ok nr -> (i, m, config, nr)
            | Error e -> failwith (Printf.sprintf "%s/%s: %s" m config.Config.name e)))
      input.pairs
  in
  let programs =
    List.concat_map
      (fun (i, m, config, nr) ->
        List.map (fun l -> (i, m, config, l)) nr.Engine.layers)
      compiled
  in
  let findings =
    tr.span "exec.verify_map" (fun () ->
        Service.map input.service
          (fun (_, _, config, (l : Engine.layer_result)) ->
            List.length (A.Verify.analyze config l.Engine.program))
          programs)
  in
  Ok
    (List.map2
       (fun (i, m, config, (l : Engine.layer_result)) n ->
         {
           z_index = i;
           z_model = m;
           z_core = config.Config.name;
           z_tag = l.Engine.group.Fusion.tag;
           z_cycles = l.Engine.report.Simulator.total_cycles;
           z_findings = n;
         })
       programs findings)

let zoo_summary rows = (List.length rows, zoo_digest rows)

(* The digest of each workload's output at the reference size and seed,
   recorded when the benchmark was written.  zoo_compile's output does
   not depend on the seed, so every run is compared at full size. *)
let reference_seed = 42

let golden =
  [
    ("fleet_open", (0.25, "a53e48649583953952e23e87d194f6cc"));
    ("serve_closed", (0.25, "e4986ee6caf73555ed7e09991f5c886f"));
    ("decode_stream", (0.25, "c672f4078bcb7989e2f86af958748286"));
    ("zoo_compile", (1.0, "1a4cab87e617a92194ec49eea2703139"));
  ]

(* --- the timed loop ------------------------------------------------ *)

type iteration = {
  setup_s : float list;
  wall_s : float;
  cpu_s : float;
  units : int;
  digest : string;
  alloc_mb : float;
  major_collections : int;
}

let alloc_words () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words,
   s.Gc.major_collections)

(* Set-up can take a microsecond, well below the clock's resolution, so
   it is timed in batches of back-to-back calls, the batch size doubling
   until one batch lasts [min_batch_s]; a sample is the batch time over
   its size.  Each iteration takes [min_setups] samples and keeps the
   last input; [after] releases every other one. *)
let min_setups = 5
let min_batch_s = 0.002

let time_setups ~setup ~after ~seed ~scale =
  let rec go k samples =
    let t0 = now () in
    let inputs = List.init k (fun _ -> setup untraced ~seed ~scale) in
    let dt = now () -. t0 in
    let last = List.nth inputs (k - 1) in
    List.iteri (fun i x -> if i < k - 1 then after x) inputs;
    if dt < min_batch_s then begin
      after last;
      go (2 * k) samples
    end
    else
      let samples = (dt /. float k) :: samples in
      if List.length samples >= min_setups then (last, List.rev samples)
      else begin
        after last;
        go k samples
      end
  in
  go 1 []

(* setup + one run call, timed from outside; the heap is compacted
   before each so every iteration starts from the same state *)
let iterate ~setup ~run ~summary ~after ~seed ~scale =
  Gc.compact ();
  let input, setup_s = time_setups ~setup ~after ~seed ~scale in
  Gc.compact ();
  let t1 = now () in
  let c1 = cpu_now () in
  let w1, m1 = alloc_words () in
  let r = run input in
  let t2 = now () in
  let c2 = cpu_now () in
  let w2, m2 = alloc_words () in
  after input;
  match r with
  | Error e ->
    check false ("run returned Error: " ^ e);
    None
  | Ok r ->
    check true "run";
    let units, digest = summary r in
    Some
      {
        setup_s;
        wall_s = t2 -. t1;
        cpu_s = c2 -. c1;
        units;
        digest;
        alloc_mb = (w2 -. w1) *. float (Sys.word_size / 8) /. 1e6;
        major_collections = m2 - m1;
      }

type workload = {
  name : string;
  cli : string;
  unit_name : string;
  seeds : int -> int list;  (* the seeds the run's inputs are drawn from *)
  measure : seed:int -> scale:float -> iteration option;
  traced : seed:int -> Span.t -> iteration -> (string * float * string) list;
      (* per-layer metrics (name, value, unit), given the untraced
         reference iteration of the same seed *)
}

let run_guarded f =
  try f () with e ->
    check false ("exception: " ^ Printexc.to_string e);
    None

(* --- replays shared by the serving loops ---------------------------- *)

type priced = { p_model : string; p_size : int; p_cycles : int }

(* re-price every dispatched batch through [Cost.lookup], in dispatch
   order, on a fresh oracle: the lookups the run call made, timed one
   by one; then time the graph partition and content hashing each
   lookup repeats, on the same inputs *)
let replay_serving tr ~core ~max_batch ~(models : model list) batches =
  let build name = (List.find (fun m -> m.m_name = name) models).m_build in
  let cost = Cost.create ~costing:`Exact ~max_batch ~core () in
  List.iter
    (fun b ->
      let build = build b.p_model in
      let r =
        tr.span "serving_cost.lookup" (fun () ->
            Cost.lookup cost ~model:b.p_model ~build ~batch:b.p_size)
      in
      check
        (match r with Ok e -> e.Cost.cycles = b.p_cycles | Error _ -> false)
        (Printf.sprintf "replayed lookup %s x%d" b.p_model b.p_size))
    batches;
  let groups = ref 0 in
  List.iter
    (fun b ->
      let g = build b.p_model ~batch:b.p_size in
      let gs = tr.span "fusion" (fun () -> Fusion.partition g) in
      tr.span "exec_key" (fun () ->
          List.iter (fun grp -> ignore (Service.key core grp)) gs);
      groups := !groups + List.length gs)
    batches;
  (Cost.hits cost, Cost.misses cost, !groups)

let cache_metrics (s : Cache.stats) =
  [
    ("exec_cache.hits", float s.Cache.hits, "count");
    ("exec_cache.misses", float s.Cache.misses, "count");
    ("exec_cache.hit_ratio", ratio s.Cache.hits (s.Cache.hits + s.Cache.misses),
     "ratio");
  ]

(* one content address per partitioned group *)
let serving_cost_metrics sp ~hits ~misses ~groups =
  let s, n = Span.total sp "serving_cost.lookup" in
  let us = List.map (fun d -> d *. 1e6) (Span.durations sp "serving_cost.lookup") in
  let fs, _ = Span.total sp "fusion" and ks, _ = Span.total sp "exec_key" in
  [
    ("serving_cost.s", s, "s");
    ("serving_cost.lookups", float n, "count");
    ("serving_cost.lookup_us_p50", percentile 50. us, "us");
    ("serving_cost.lookup_us_p99", percentile 99. us, "us");
    ("serving_cost.group_hit_ratio", ratio hits (hits + misses), "ratio");
    ("fusion.s", fs, "s");
    ("fusion.groups", float groups, "count");
    ("exec_key.s", ks, "s");
    ("exec_key.calls", float groups, "count");
  ]

let same_json what a b =
  check (Json.to_string a = Json.to_string b) (what ^ " differs from the run's")

(* the traced run call must reproduce the untraced output *)
let reproduces (base : iteration) digest what =
  check (digest = base.digest) (what ^ ": traced digest differs from untraced")

(* --- per-workload traced runs ---------------------------------------- *)

(* The traced run: the root span "workload" holds the set-up and the run
   call and nothing else, so its duration is the traced wall time.  The
   replays and probes that follow get roots of their own. *)
let traced_run sp ~setup ~run_name ~run =
  Span.with_ sp "workload" (fun () ->
      let input = Span.with_ sp "setup" setup in
      (input, Span.with_ sp run_name (fun () -> run input)))

let fleet_traced ~seed sp (base : iteration) =
  let tr = tracer_of sp in
  let (config, _), r =
    traced_run sp ~run_name:"fleet.run" ~run:fleet_run
      ~setup:(fun () -> fleet_setup tr ~seed ~scale:1.)
  in
  match r with
  | Error e ->
    check false ("traced fleet run: " ^ e);
    []
  | Ok r ->
    reproduces base (snd (fleet_summary r)) "fleet_open";
    let hits, misses, groups =
      tr.span "replay" (fun () ->
          let counts =
            replay_serving tr ~core:config.Fleet.core
              ~max_batch:config.Fleet.max_batch
              ~models:(List.map (fun (m, _, _) -> m) fleet_models)
              (List.map
                 (fun (b : Fleet.batch_exec) ->
                   { p_model = b.bx_model; p_size = b.bx_size;
                     p_cycles = b.bx_cycles })
                 r.Fleet.batches)
          in
          let cpn = config.Fleet.cores_per_node in
          let m =
            tr.span "serving_metrics" (fun () ->
                Serving_metrics.build ~duration_s:config.Fleet.duration_s
                  ~bucket_s:config.Fleet.bucket_s
                  ~cores:(config.Fleet.nodes * cpn)
                  ~models:
                    (List.map (fun (m, _, _) -> (m.m_name, 0, 50.)) fleet_models)
                  ~busy:
                    (List.concat_map
                       (fun n ->
                         List.rev_map
                           (fun (b : Fleet.batch_exec) ->
                             ((n * cpn) + b.bx_core, b.bx_start_s, b.bx_finish_s))
                           (List.filter
                              (fun (b : Fleet.batch_exec) -> b.bx_node = n)
                              r.Fleet.batches))
                       (List.init config.Fleet.nodes Fun.id))
                  (List.map
                     (fun (n, (q : Request.record)) ->
                       if q.Request.outcome = Request.Completed then
                         { q with Request.core = (n * cpn) + q.Request.core }
                       else q)
                     r.Fleet.records))
          in
          same_json "replayed fleet metrics" (Serving_metrics.to_json m)
            (Serving_metrics.to_json r.Fleet.fleet_metrics);
          counts)
    in
    (* the scaling probe: the same traffic shape over twice the window,
       untraced *)
    let wall_2x =
      tr.span "fleet.run_2x" (fun () ->
          let input = fleet_setup untraced ~seed ~scale:2. in
          let t0 = now () in
          let r2 = fleet_run input in
          let dt = now () -. t0 in
          check (Result.is_ok r2) "fleet run at 2x";
          dt)
    in
    let run_s, _ = Span.total sp "fleet.run" in
    let cost_s, _ = Span.total sp "serving_cost.lookup" in
    let metrics_s, _ = Span.total sp "serving_metrics" in
    let lg, _ = Span.total sp "load_gen" in
    let bs, bn = Span.total sp "nn.build" in
    [
      ("load_gen.s", lg, "s");
      (* every generated arrival leaves one record *)
      ("load_gen.requests", float (List.length r.Fleet.records), "count");
      ("nn.build_s", bs, "s");
      ("nn.build_calls", float bn, "count");
    ]
    @ serving_cost_metrics sp ~hits ~misses ~groups
    @ cache_metrics r.Fleet.cost_stats
    @ [
        ("exec.jobs", 1., "count");
        ("serving_metrics.s", metrics_s, "s");
        ("serving_metrics.records", float (List.length r.Fleet.records), "count");
        ("fleet.run_s", run_s, "s");
        ("fleet.self_s", run_s -. cost_s -. metrics_s, "s");
        ("fleet.page_ins", float r.Fleet.total_page_ins, "count");
        ("fleet.doubling_ratio", wall_2x /. base.wall_s, "ratio");
        ("trace.overhead_s", run_s -. base.wall_s, "s");
      ]

let serve_traced ~seed sp (base : iteration) =
  let tr = tracer_of sp in
  let (config, _), r =
    traced_run sp ~run_name:"serve.run" ~run:serve_run
      ~setup:(fun () -> serve_setup tr ~seed ~scale:1.)
  in
  match r with
  | Error e ->
    check false ("traced serve run: " ^ e);
    []
  | Ok r ->
    reproduces base (snd (serve_summary r)) "serve_closed";
    let apps = Serve.scheduler_apps r in
    let hits, misses, groups =
      tr.span "replay" (fun () ->
          let counts =
            replay_serving tr ~core:config.Serve.core
              ~max_batch:config.Serve.max_batch
              ~models:(List.map (fun (m, _, _) -> m) serve_models)
              (List.map
                 (fun (b : Serve.batch_exec) ->
                   { p_model = b.bx_model; p_size = b.bx_size;
                     p_cycles = b.bx_cycles })
                 r.Serve.batches)
          in
          let sched =
            tr.span "scheduler.repack" (fun () ->
                Scheduler.run ~cores:config.Serve.cores apps)
          in
          check
            (sched.Scheduler.makespan_cycles = r.Serve.offline_makespan_cycles)
            "replayed offline repack makespan";
          let m =
            tr.span "serving_metrics" (fun () ->
                Serving_metrics.build ~duration_s:config.Serve.duration_s
                  ~bucket_s:config.Serve.bucket_s ~cores:config.Serve.cores
                  ~models:
                    (List.map (fun (m, p, slo) -> (m.m_name, p, slo)) serve_models)
                  ~busy:
                    (List.rev_map
                       (fun (b : Serve.batch_exec) ->
                         (b.bx_core, b.bx_start_s, b.bx_finish_s))
                       r.Serve.batches)
                  r.Serve.records)
          in
          same_json "replayed serve metrics" (Serving_metrics.to_json m)
            (Serving_metrics.to_json r.Serve.metrics);
          counts)
    in
    (* the same run with an observability collector installed *)
    let collector_wall =
      tr.span "obs.collector_run" (fun () ->
          let input = serve_setup untraced ~seed ~scale:1. in
          let c = A.Obs.Collector.create ~capacity:262144 () in
          let t0 = now () in
          let r2 = A.Obs.Hook.with_collector c (fun () -> serve_run input) in
          let dt = now () -. t0 in
          (match r2 with
          | Ok r2 ->
            reproduces base (snd (serve_summary r2)) "serve_closed with collector"
          | Error e -> check false ("serve run with collector: " ^ e));
          dt)
    in
    let run_s, _ = Span.total sp "serve.run" in
    let cost_s, _ = Span.total sp "serving_cost.lookup" in
    let repack_s, _ = Span.total sp "scheduler.repack" in
    let metrics_s, _ = Span.total sp "serving_metrics" in
    let bs, bn = Span.total sp "nn.build" in
    let tasks =
      List.fold_left
        (fun acc (a : Scheduler.app) ->
          List.fold_left
            (fun acc (s : Scheduler.stream) -> acc + List.length s.Scheduler.tasks)
            acc a.Scheduler.streams)
        0 apps
    in
    [ ("nn.build_s", bs, "s"); ("nn.build_calls", float bn, "count") ]
    @ serving_cost_metrics sp ~hits ~misses ~groups
    @ cache_metrics r.Serve.cost_stats
    @ [
        ("exec.jobs", 1., "count");
        ("scheduler.repack_s", repack_s, "s");
        ("scheduler.tasks", float tasks, "count");
        ("serving_metrics.s", metrics_s, "s");
        ("serving_metrics.records", float (List.length r.Serve.records), "count");
        ("serve.run_s", run_s, "s");
        ("serve.batches", float (List.length r.Serve.batches), "count");
        ("serve.self_s", run_s -. cost_s -. repack_s -. metrics_s, "s");
        ("obs.collector_overhead", collector_wall /. base.wall_s, "ratio");
        ("trace.overhead_s", run_s -. base.wall_s, "s");
      ]

let decode_traced ~seed sp (base : iteration) =
  let tr = tracer_of sp in
  let requests, r =
    traced_run sp ~run_name:"decode_engine.run" ~run:decode_run
      ~setup:(fun () -> decode_setup tr ~seed ~scale:1.)
  in
  match r with
  | Error e ->
    check false ("traced decode run: " ^ e);
    []
  | Ok r ->
    reproduces base (snd (decode_summary r)) "decode_stream";
    let c = decode_config in
    let cost =
      Decode_cost.create ~costing:`Exact ~max_batch:c.Decode_engine.max_batch
        ~max_cache_len:c.Decode_engine.max_cache_len ~core:c.Decode_engine.core
        c.Decode_engine.llm ()
    in
    tr.span "replay" (fun () ->
        List.iter
          (fun (st : Decode_metrics.step) ->
            let e =
              tr.span "decode_cost" (fun () ->
                  match st.Decode_metrics.st_kind with
                  | Decode_metrics.Prefill ->
                    Decode_cost.prefill cost ~batch:st.st_batch
                      ~prompt_len:st.st_tokens
                  | Decode_metrics.Decode ->
                    Decode_cost.decode_step cost ~batch:st.st_batch
                      ~cache_len:st.st_cache_len)
            in
            check
              (match e with
              | Ok e -> e.Decode_cost.cycles = st.st_cycles
              | Error _ -> false)
              "replayed decode step")
          r.Decode_engine.steps;
        let m =
          tr.span "decode_metrics" (fun () ->
              Decode_metrics.build ~records:r.Decode_engine.records
                ~steps:r.Decode_engine.steps)
        in
        same_json "replayed decode metrics" (Decode_metrics.to_json m)
          (Decode_metrics.to_json r.Decode_engine.metrics));
    let run_s, _ = Span.total sp "decode_engine.run" in
    let cost_s, calls = Span.total sp "decode_cost" in
    let metrics_s, _ = Span.total sp "decode_metrics" in
    let lg, _ = Span.total sp "load_gen" in
    let hits = Decode_cost.hits cost and misses = Decode_cost.misses cost in
    [
      ("load_gen.s", lg, "s");
      ("load_gen.requests", float (List.length requests), "count");
    ]
    @ cache_metrics r.Decode_engine.cost_stats
    @ [
        ("exec.jobs", 1., "count");
        ("decode_engine.run_s", run_s, "s");
        ("decode_engine.self_s", run_s -. cost_s -. metrics_s, "s");
        ("decode_engine.steps", float (List.length r.Decode_engine.steps), "count");
        ("decode_cost.s", cost_s, "s");
        ("decode_cost.calls", float calls, "count");
        ("decode_cost.misses", float misses, "count");
        ("decode_cost.hit_ratio", ratio hits (hits + misses), "ratio");
        ("decode_metrics.s", metrics_s, "s");
        ("trace.overhead_s", run_s -. base.wall_s, "s");
      ]

(* the zoo's run call fans out over the pool, where no span can reach;
   the replay walks the same pairs serially through each layer's public
   function so every layer gets its own host time *)
let zoo_traced ~seed sp (base : iteration) =
  let tr = tracer_of sp in
  let input, rows =
    traced_run sp ~run_name:"zoo.run" ~run:(zoo_run ~tr)
      ~setup:(fun () -> zoo_setup tr ~seed ~scale:1.)
  in
  let stats = Service.stats input.service in
  Service.shutdown input.service;
  (match rows with
  | Ok rows -> reproduces base (zoo_digest rows) "zoo_compile"
  | Error _ -> ());
  let searches = ref 0 and programs = ref 0 and instrs = ref 0 in
  let executed = ref 0 and groups = ref 0 and findings = ref 0 in
  let replayed =
    tr.span "replay" (fun () ->
        List.concat_map
          (fun (i, m, config, g) ->
            let gs = tr.span "fusion" (fun () -> Fusion.partition g) in
            tr.span "exec_key" (fun () ->
                List.iter (fun grp -> ignore (Service.key config grp)) gs);
            groups := !groups + List.length gs;
            List.map
              (fun (grp : Fusion.t) ->
                if grp.Fusion.kind = Fusion.Cube_anchored then
                  List.iter
                    (fun (w : A.Nn.Workload.gemm) ->
                      incr searches;
                      ignore
                        (tr.span "tiling" (fun () ->
                             Tiling.choose config ~precision:grp.Fusion.precision
                               ~img2col_expansion:grp.Fusion.img2col_expansion
                               ~m:w.m ~k:w.k ~n:w.n ())))
                    grp.Fusion.gemms;
                let p = tr.span "codegen" (fun () -> Codegen.group_program config grp) in
                incr programs;
                instrs := !instrs + List.length p.A.Isa.Program.instructions;
                let cycles =
                  match tr.span "core_sim" (fun () -> Simulator.run config p) with
                  | Ok rep ->
                    Array.iter
                      (fun (ps : Simulator.pipe_stats) ->
                        executed := !executed + ps.Simulator.instruction_count)
                      rep.Simulator.pipes;
                    rep.Simulator.total_cycles
                  | Error e ->
                    check false ("replayed simulation: " ^ e);
                    -1
                in
                let n =
                  List.length (tr.span "verify" (fun () -> A.Verify.analyze config p))
                in
                findings := !findings + n;
                { z_index = i; z_model = m; z_core = config.Config.name;
                  z_tag = grp.Fusion.tag; z_cycles = cycles; z_findings = n })
              gs)
          input.pairs)
  in
  check (zoo_digest replayed = base.digest)
    "zoo_compile: serial layer replay differs from the pooled run";
  let total name = fst (Span.total sp name) in
  let run_s = total "zoo.run" in
  let serial =
    total "fusion" +. total "exec_key" +. total "codegen" +. total "core_sim"
    +. total "verify"
  in
  let bs, bn = Span.total sp "nn.build" in
  [
    ("nn.build_s", bs, "s");
    ("nn.build_calls", float bn, "count");
    ("fusion.s", total "fusion", "s");
    ("fusion.groups", float !groups, "count");
    ("exec_key.s", total "exec_key", "s");
    ("exec_key.calls", float !groups, "count");
  ]
  @ cache_metrics stats
  @ [
      ("tiling.s", total "tiling", "s");
      ("tiling.searches", float !searches, "count");
      ("codegen.s", total "codegen", "s");
      ("codegen.programs", float !programs, "count");
      ("codegen.instructions", float !instrs, "count");
      ("core_sim.s", total "core_sim", "s");
      ("core_sim.instructions", float !executed, "count");
      ("core_sim.instr_per_s", float !executed /. total "core_sim", "1/s");
      ("verify.s", total "verify", "s");
      ("verify.programs", float !programs, "count");
      ("verify.findings", float !findings, "count");
      ("exec.jobs", float nproc, "count");
      ("exec.pool_efficiency", serial /. (float nproc *. base.wall_s), "ratio");
      ("trace.overhead_s", run_s -. base.wall_s, "s");
    ]

(* --- the workload table -------------------------------------------- *)

let measure_with ~setup ~run ~summary ?(after = fun _ -> ()) () ~seed ~scale =
  run_guarded (fun () -> iterate ~setup ~run ~summary ~after ~seed ~scale)

let workloads =
  [
    {
      name = "fleet_open";
      cli = fleet_cli;
      unit_name = "requests";
      seeds = (fun seed -> [ model_seed seed 0; model_seed seed 1 ]);
      measure =
        measure_with ~setup:fleet_setup ~run:fleet_run ~summary:fleet_summary ();
      traced = fleet_traced;
    };
    {
      name = "serve_closed";
      cli = serve_cli;
      unit_name = "requests";
      seeds = (fun seed -> [ model_seed seed 0; model_seed seed 1 ]);
      measure =
        measure_with ~setup:serve_setup ~run:serve_run ~summary:serve_summary ();
      traced = serve_traced;
    };
    {
      name = "decode_stream";
      cli = decode_cli;
      unit_name = "tokens";
      seeds = (fun seed -> [ seed ]);
      measure =
        measure_with ~setup:decode_setup ~run:decode_run
          ~summary:decode_summary ();
      traced = decode_traced;
    };
    {
      name = "zoo_compile";
      cli = zoo_cli;
      unit_name = "programs";
      seeds = (fun seed -> [ seed ]);
      measure =
        measure_with ~setup:zoo_setup
          ~run:(fun input -> zoo_run input)
          ~summary:(fun rows ->
            List.iter
              (fun r ->
                check (r.z_findings = 0)
                  (Printf.sprintf "verifier findings on %s/%s/%s" r.z_model
                     r.z_core r.z_tag))
              rows;
            zoo_summary rows)
          ~after:(fun input -> Service.shutdown input.service)
          ();
      traced = zoo_traced;
    };
  ]

(* the per-layer metrics every traced run reports, in this order; a
   layer a workload does not exercise reports 0 *)
let per_layer =
  [
    ("load_gen.s", "s"); ("load_gen.requests", "count");
    ("nn.build_s", "s"); ("nn.build_calls", "count");
    ("serving_cost.s", "s"); ("serving_cost.lookups", "count");
    ("serving_cost.lookup_us_p50", "us"); ("serving_cost.lookup_us_p99", "us");
    ("serving_cost.group_hit_ratio", "ratio");
    ("fusion.s", "s"); ("fusion.groups", "count");
    ("exec_key.s", "s"); ("exec_key.calls", "count");
    ("exec_cache.hits", "count"); ("exec_cache.misses", "count");
    ("exec_cache.hit_ratio", "ratio");
    ("tiling.s", "s"); ("tiling.searches", "count");
    ("codegen.s", "s"); ("codegen.programs", "count");
    ("codegen.instructions", "count");
    ("core_sim.s", "s"); ("core_sim.instructions", "count");
    ("core_sim.instr_per_s", "1/s");
    ("verify.s", "s"); ("verify.programs", "count"); ("verify.findings", "count");
    ("exec.jobs", "count"); ("exec.pool_efficiency", "ratio");
    ("scheduler.repack_s", "s"); ("scheduler.tasks", "count");
    ("serving_metrics.s", "s"); ("serving_metrics.records", "count");
    ("serve.run_s", "s"); ("serve.batches", "count"); ("serve.self_s", "s");
    ("fleet.run_s", "s"); ("fleet.self_s", "s"); ("fleet.page_ins", "count");
    ("fleet.doubling_ratio", "ratio");
    ("decode_engine.run_s", "s"); ("decode_engine.self_s", "s");
    ("decode_engine.steps", "count");
    ("decode_cost.s", "s"); ("decode_cost.calls", "count");
    ("decode_cost.misses", "count"); ("decode_cost.hit_ratio", "ratio");
    ("decode_metrics.s", "s");
    ("gc.alloc_mb", "MB"); ("gc.major_collections", "count");
    ("obs.collector_overhead", "ratio");
    ("trace.overhead_s", "s");
  ]

(* --- reporting ------------------------------------------------------- *)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

let iteration_json (i : iteration) =
  Json.Obj
    [
      ("setup_s", Json.List (List.map (fun x -> Json.Float x) i.setup_s));
      ("wall_s", Json.Float i.wall_s);
      ("cpu_s", Json.Float i.cpu_s);
      ("units", Json.Int i.units);
      ("digest", Json.String i.digest);
      ("alloc_mb", Json.Float i.alloc_mb);
      ("major_collections", Json.Int i.major_collections);
    ]

let print_table rows =
  List.iter
    (fun (name, value, unit) -> Printf.printf "  %-32s %14.6g %s\n" name value unit)
    rows

(* one self-time table per root span: the traced run ("workload": set-up
   and run call), then each replay or probe; the root's own row is the
   unattributed remainder and every share is of that root's wall time *)
let print_self_times sp =
  List.iter
    (fun (root : Span.span) ->
      let wall = Span.duration root in
      Printf.printf "  %s: wall %.6f s\n" root.Span.name wall;
      Printf.printf "    %-24s %8s %12s %7s\n" "span" "calls" "self s" "share";
      List.iter
        (fun (name, calls, self) ->
          let name = if name = root.Span.name then "(unattributed)" else name in
          Printf.printf "    %-24s %8d %12.6f %6.2f%%\n" name calls self
            (100. *. self /. wall))
        (Span.self_times sp root))
    (Span.roots sp)

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

let write_json path doc =
  let oc = open_out path in
  output_string oc (Json.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc

(* --- main ------------------------------------------------------------ *)

let golden_check w (iterations : iteration list) =
  let scale, expected = List.assoc w.name golden in
  if w.name = "zoo_compile" then
    List.iter
      (fun (i : iteration) ->
        check (i.digest = expected)
          (Printf.sprintf "zoo_compile digest %s, recorded %s" i.digest expected))
      iterations
  else
    match w.measure ~seed:reference_seed ~scale with
    | None -> ()
    | Some i ->
      Printf.printf "reference digest (seed %d, size x%g): %s\n" reference_seed
        scale i.digest;
      check (i.digest = expected)
        (Printf.sprintf "%s reference digest %s, recorded %s" w.name i.digest
           expected)

let main ~workload ~seed ~seconds ~trace ~commit ~out =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  Printf.printf "workload %s (seed %d, %s, nproc %d)\n  equivalent: %s\n%!"
    w.name seed
    (if trace then "traced" else Printf.sprintf "%gs" seconds)
    nproc w.cli;
  let start = now () in
  (* the first iteration in a process pays heap growth, page faults and
     the pool's first domains; it is checked but not counted.  The
     traced run is compared with the second, warm, untraced run. *)
  let warmup = w.measure ~seed ~scale:1. in
  let iterations =
    if trace then Option.to_list (w.measure ~seed ~scale:1.)
    else
      let rec loop acc tries =
        let acc =
          match w.measure ~seed ~scale:1. with Some i -> i :: acc | None -> acc
        in
        let tries = tries + 1 in
        let elapsed = now () -. start in
        let per_try = elapsed /. float (tries + 1) in
        if tries < 3 || elapsed +. per_try <= seconds then loop acc tries
        else List.rev acc
      in
      loop [] 0
  in
  let every = Option.to_list warmup @ iterations in
  List.iteri
    (fun k (i : iteration) ->
      Printf.printf
        "  %s: setup %.6f s, run %.4f s wall, %.4f s cpu, %d %s, digest %s\n%!"
        (if k = 0 && warmup <> None then "warm-up"
         else Printf.sprintf "iteration %d" (k + 1))
        (median i.setup_s) i.wall_s i.cpu_s i.units w.unit_name i.digest)
    every;
  (match every with
  | first :: rest ->
    List.iter
      (fun (i : iteration) ->
        check (i.digest = first.digest) "output differs between iterations")
      rest
  | [] -> ());
  let metrics, spans =
    match (trace, iterations) with
    | _, [] -> ([], None)
    | false, _ ->
      let med f = median (List.map f iterations) in
      ( [
          ("units_per_s",
           med (fun i -> float i.units /. i.wall_s), "1/s");
          ("wall_s", med (fun i -> i.wall_s), "s");
          ("cpu_s", med (fun i -> i.cpu_s), "s");
          ("setup_s", median (List.concat_map (fun i -> i.setup_s) iterations),
           "s");
          ("peak_rss_mb", peak_rss_mb (), "MB");
        ],
        None )
    | true, iterations ->
      let base = List.nth iterations (List.length iterations - 1) in
      let sp = Span.create w.name in
      let layers =
        try w.traced ~seed sp base
        with e ->
          check false ("traced run: " ^ Printexc.to_string e);
          []
      in
      let layers =
        layers
        @ [
            ("gc.alloc_mb", base.alloc_mb, "MB");
            ("gc.major_collections", float base.major_collections, "count");
          ]
      in
      ( List.map
          (fun (name, unit) ->
            match List.find_opt (fun (n, _, _) -> n = name) layers with
            | Some m -> m
            | None -> (name, 0., unit))
          per_layer,
        if sp.Span.spans = [] then None else Some sp )
  in
  golden_check w every;
  let failed_share = ratio !failed !attempted in
  Printf.printf "%s metrics:\n" (if trace then "per-layer" else "end-to-end");
  print_table metrics;
  if not trace then
    Printf.printf "  %-32s %14.6g %s\n" "failed_share" failed_share "ratio";
  mkdir_p out;
  let stem = Printf.sprintf "%s/%s-seed%d-trace%d" out w.name seed (Bool.to_int trace) in
  (match spans with
  | Some sp ->
    print_self_times sp;
    Span.write_jsonl (stem ^ "-spans.jsonl") sp;
    Printf.printf "spans: %s-spans.jsonl\n" stem
  | None -> ());
  write_json (stem ^ ".json")
    (Json.Obj
       [
         ( "manifest",
           Json.Obj
             [
               ("workload", Json.String w.name);
               ("equivalent_cli", Json.String w.cli);
               ("commit", Json.String commit);
               ("ocaml_version", Json.String Sys.ocaml_version);
               ("seed", Json.Int seed);
               ("input_seeds", Json.List (List.map (fun x -> Json.Int x) (w.seeds seed)));
               ("reference_seed", Json.Int reference_seed);
               ("size_multiplier", Json.Float 1.);
               ("reference_size_multiplier", Json.Float (fst (List.assoc w.name golden)));
               ("seconds", Json.Float seconds);
               ("traced", Json.Bool trace);
               ("nproc", Json.Int nproc);
               ("jobs", Json.Int (if w.name = "zoo_compile" then nproc else 1));
             ] );
         ("warmup", Json.List (List.map iteration_json (Option.to_list warmup)));
         ("iterations", Json.List (List.map iteration_json iterations));
         ("metrics", Json.Obj (List.map metric_json metrics));
         ("attempted", Json.Int !attempted);
         ("failed", Json.Int !failed);
         ("failed_share", Json.Float failed_share);
       ]);
  if metrics = [] then begin
    prerr_endline "no successful run; no result";
    exit 1
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (!failed = 0));
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("metrics", Json.Obj (List.map metric_json metrics));
          ]))

let () =
  (* a disk tier would warm one run from another *)
  Unix.putenv "ASCEND_CACHE_DIR" "";
  let workload = ref "" and seed = ref 42 and seconds = ref 10. in
  let trace = ref 0 and commit = ref "unknown" and out = ref "perfbench/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--commit", Arg.Set_string commit, "SHA recorded in the result file");
      ("--out", Arg.Set_string out, "DIR for result and span files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    ~commit:!commit ~out:!out
