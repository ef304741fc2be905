module Scheduler = Ascend_runtime.Scheduler
module Json = Ascend_util.Json
module Obs = Ascend_obs

type workload = Loop.workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }

type model_spec = Loop.model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;
  slo_ms : float;
  workload : workload;
}

type config = {
  core : Ascend_arch.Config.t;
  cores : int;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  duration_s : float;
  bucket_s : float;
  costing : Cost.costing;
}

let default_config ~core ~cores =
  {
    core;
    cores;
    max_batch = 8;
    max_delay_s = 2e-3;
    queue_depth = 64;
    duration_s = 1.;
    bucket_s = 50e-3;
    costing = `Exact;
  }

type batch_exec = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_core : int;
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;
}

type result = {
  served_config : config;
  records : Request.record list;
  batches : batch_exec list;
  metrics : Metrics.t;
  offline_makespan_cycles : int;
  offline_utilization : float;
  cost_hits : int;
  cost_misses : int;
  cost_interpolated : int;
  cost_fallbacks : int;
  cost_stats : Ascend_exec.Cache.stats;
}

(* obs lanes: one thread per model queue, then one per core.
   Timestamps are simulated seconds scaled to microseconds — virtual
   time, so a traced run stays byte-reproducible. *)
let obs_lanes config specs =
  let n_models = Array.length specs in
  let pid =
    Obs.Hook.alloc_pid ~name:("serve:" ^ config.core.Ascend_arch.Config.name)
  in
  Array.iteri
    (fun i s -> Obs.Hook.name_thread ~pid ~tid:i ("model:" ^ s.name))
    specs;
  for c = 0 to config.cores - 1 do
    Obs.Hook.name_thread ~pid ~tid:(n_models + c) (Printf.sprintf "core%d" c)
  done;
  let us t = t *. 1e6 in
  let queue_depth ~model ~ts q =
    Obs.Hook.counter ~cat:"serving"
      ~name:("queue_depth:" ^ specs.(model).name) ~pid ~tid:model ~ts:(us ts)
      ~value:(float_of_int (Batcher.length q))
      ()
  in
  {
    Loop.on_take = (fun ~node:_ ~model ~now q -> queue_depth ~model ~ts:now q);
    on_admit =
      (fun ~node:_ ~model r q -> queue_depth ~model ~ts:r.Request.arrival_s q);
    on_shed =
      (fun ~node:_ ~model r q ->
        Obs.Hook.instant
          ~args:[ ("id", Obs.Event.Int r.Request.id) ]
          ~cat:"request" ~name:"shed" ~pid ~tid:model
          ~ts:(us r.Request.arrival_s) ();
        Obs.Hook.counter ~cat:"serving"
          ~name:("sheds:" ^ r.Request.model) ~pid ~tid:model
          ~ts:(us r.Request.arrival_s)
          ~value:(float_of_int (Batcher.sheds q))
          ());
    on_batch =
      (fun b ->
        Obs.Hook.span
          ~args:
            [
              ("size", Obs.Event.Int b.Loop.bx_size);
              ("cycles", Obs.Event.Int b.Loop.bx_cycles);
              ("priority", Obs.Event.Int b.Loop.bx_priority);
            ]
          ~cat:"batch" ~name:b.Loop.bx_model ~pid
          ~tid:(n_models + b.Loop.bx_core) ~ts:(us b.Loop.bx_start_s)
          ~dur:(us (b.Loop.bx_finish_s -. b.Loop.bx_start_s))
          ());
    (* request lifecycle on the model lane:
       arrival -> (queued) -> dispatched -> (execute) -> done *)
    on_done =
      (fun ~model b r ->
        let arr = r.Request.arrival_s in
        let start_s = b.Loop.bx_start_s and finish_s = b.Loop.bx_finish_s in
        Obs.Hook.span
          ~args:
            [
              ("id", Obs.Event.Int r.Request.id);
              ("batch", Obs.Event.Int b.Loop.bx_size);
              ("core", Obs.Event.Int b.Loop.bx_core);
            ]
          ~cat:"request" ~name:b.Loop.bx_model ~pid ~tid:model ~ts:(us arr)
          ~dur:(us (finish_s -. arr))
          ();
        Obs.Hook.span ~cat:"request" ~name:"queued" ~pid ~tid:model
          ~ts:(us arr)
          ~dur:(us (start_s -. arr))
          ();
        Obs.Hook.span ~cat:"request" ~name:"execute" ~pid ~tid:model
          ~ts:(us start_s)
          ~dur:(us (finish_s -. start_s))
          ();
        Obs.Hook.instant
          ~args:[ ("id", Obs.Event.Int r.Request.id) ]
          ~cat:"request" ~name:"done" ~pid ~tid:model ~ts:(us finish_s) ());
  }

(* one app per (model, priority) that dispatched any batch, one
   single-block stream per batch, in dispatch order *)
let batch_apps models batches =
  List.filter_map
    (fun (model, priority) ->
      match List.filter (fun b -> b.bx_model = model) batches with
      | [] -> None
      | mine ->
        Some
          (Scheduler.app ~priority ~name:model
             (List.mapi
                (fun j b ->
                  Loop.batch_stream (Printf.sprintf "%s.%d" model j)
                    ~cycles:b.bx_cycles)
                mine)))
    models

let run config specs =
  if config.cores <= 0 then invalid_arg "Serve.run: non-positive cores";
  Loop.validate ~who:"Serve.run" ~duration_s:config.duration_s
    ~bucket_s:config.bucket_s specs;
  let specs = Array.of_list specs in
  let cost =
    Cost.create ~costing:config.costing ~max_batch:config.max_batch
      ~core:config.core ()
  in
  let lanes =
    if Obs.Hook.enabled () then Some (obs_lanes config specs) else None
  in
  match
    Loop.run ~cost ~nodes:1 ~cores_per_node:config.cores
      ~max_batch:config.max_batch ~max_delay_s:config.max_delay_s
      ~queue_depth:config.queue_depth ~duration_s:config.duration_s
      ~route:(fun _ ~depth:_ -> 0)
      ~stall:(fun ~node:_ ~model:_ ~now:_ -> None)
      ?lanes specs
  with
  | Error _ as e -> e
  | Ok o ->
    let records = List.map snd o.Loop.records in
    let batches =
      List.map
        (fun (b : Loop.batch) ->
          {
            bx_model = b.Loop.bx_model;
            bx_priority = b.Loop.bx_priority;
            bx_size = b.Loop.bx_size;
            bx_core = b.Loop.bx_core;
            bx_start_s = b.Loop.bx_start_s;
            bx_finish_s = b.Loop.bx_finish_s;
            bx_cycles = b.Loop.bx_cycles;
          })
        o.Loop.batches
    in
    let metrics =
      Metrics.build ~duration_s:config.duration_s ~bucket_s:config.bucket_s
        ~cores:config.cores
        ~models:
          (Array.to_list
             (Array.map (fun s -> (s.name, s.priority, s.slo_ms)) specs))
        ~busy:o.Loop.busy.(0) records
    in
    (* offline cross-check: the same batches as one closed §5.2 schedule *)
    let offline =
      Scheduler.run ~cores:config.cores
        (batch_apps
           (Array.to_list (Array.map (fun s -> (s.name, s.priority)) specs))
           batches)
    in
    Ok
      {
        served_config = config;
        records;
        batches;
        metrics;
        offline_makespan_cycles = offline.Scheduler.makespan_cycles;
        offline_utilization = Scheduler.utilization offline;
        cost_hits = Cost.hits cost;
        cost_misses = Cost.misses cost;
        cost_interpolated = Cost.interpolated cost;
        cost_fallbacks = Cost.fallbacks cost;
        cost_stats = Cost.stats cost;
      }

let scheduler_apps result =
  batch_apps
    (List.sort_uniq compare
       (List.map (fun b -> (b.bx_model, b.bx_priority)) result.batches))
    result.batches

let to_json r =
  let c = r.served_config in
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("core", Json.String c.core.Ascend_arch.Config.name);
            ("cores", Json.Int c.cores);
            ("max_batch", Json.Int c.max_batch);
            ("max_delay_ms", Json.Float (1e3 *. c.max_delay_s));
            ("queue_depth", Json.Int c.queue_depth);
            ("duration_s", Json.Float c.duration_s);
            ("costing", Json.String (Cost.costing_name c.costing));
          ] );
      ("metrics", Metrics.to_json r.metrics);
      ( "batches",
        Json.Obj
          [
            ("count", Json.Int (List.length r.batches));
            ("offline_makespan_cycles", Json.Int r.offline_makespan_cycles);
            ("offline_utilization", Json.Float r.offline_utilization);
          ] );
      ( "cost_cache",
        Cost.counters_json ~hits:r.cost_hits ~misses:r.cost_misses
          ~interpolated:r.cost_interpolated ~fallbacks:r.cost_fallbacks
          r.cost_stats );
    ]

let pp ppf r =
  Format.fprintf ppf "%a" Metrics.pp r.metrics;
  Format.fprintf ppf
    "batches: %d dispatched; offline §5.2 repack: makespan %d cycles at \
     %.1f%% utilization@."
    (List.length r.batches) r.offline_makespan_cycles
    (100. *. r.offline_utilization);
  Format.fprintf ppf
    "latency cache: %d compile+simulate runs, %d cached lookups@."
    r.cost_misses r.cost_hits;
  Cost.pp_tiers ppf ~costing:r.served_config.costing
    ~interpolated:r.cost_interpolated ~fallbacks:r.cost_fallbacks r.cost_stats
