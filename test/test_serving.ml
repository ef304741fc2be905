(* Request-level serving subsystem (lib/serving): load generation,
   dynamic batching, admission control, SLO metrics, and the end-to-end
   discrete-event dispatcher over the §5.2 scheduler. *)

module Load_gen = Ascend.Serving.Load_gen
module Batcher = Ascend.Serving.Batcher
module Request = Ascend.Serving.Request
module Metrics = Ascend.Serving.Metrics
module Cost = Ascend.Serving.Cost
module Serve = Ascend.Serving.Serve
module Loop = Ascend.Serving.Loop
module Config = Ascend.Arch.Config
module Json = Ascend.Util.Json

let req ?(model = "m") ?(priority = 0) ?(slo_s = 1.) id arrival_s =
  { Request.id; model; arrival_s; priority; slo_s }

(* ------------------------------------------------------------------ *)
(* Load generation                                                    *)

let test_load_gen_deterministic () =
  let spec process =
    Load_gen.create ~process ~rate_per_s:500. ~duration_s:0.5 ~seed:42 ()
  in
  List.iter
    (fun p ->
      let a = Load_gen.arrivals (spec p) in
      let b = Load_gen.arrivals (spec p) in
      Alcotest.(check (list (float 0.)))
        (Load_gen.process_name p ^ " reproducible") a b)
    [ Load_gen.Uniform; Load_gen.Poisson;
      Load_gen.Bursty { factor = 4.; period_s = 0.1 } ];
  let other =
    Load_gen.arrivals
      (Load_gen.create ~rate_per_s:500. ~duration_s:0.5 ~seed:43 ())
  in
  Alcotest.(check bool) "seed matters" true
    (other <> Load_gen.arrivals (spec Load_gen.Poisson))

let test_load_gen_uniform_spacing () =
  let g = Load_gen.create ~process:Load_gen.Uniform ~rate_per_s:100.
      ~duration_s:0.1 ~seed:0 ()
  in
  let a = Load_gen.arrivals g in
  Alcotest.(check int) "count = rate * duration" 10 (List.length a);
  List.iteri
    (fun i t ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "arrival %d at i/rate" i)
        (float_of_int i /. 100.) t)
    a

let test_load_gen_rejects_bad_specs () =
  let rejects label ?process ~rate ~duration () =
    Alcotest.(check bool) label true
      (try
         ignore
           (Load_gen.create ?process ~rate_per_s:rate ~duration_s:duration
              ~seed:0 ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "zero rate" ~rate:0. ~duration:1. ();
  rejects "nan rate" ~rate:Float.nan ~duration:1. ();
  rejects "infinite rate" ~rate:Float.infinity ~duration:1. ();
  rejects "nan duration" ~rate:100. ~duration:Float.nan ();
  rejects "infinite duration" ~rate:100. ~duration:Float.infinity ();
  List.iter
    (fun (label, factor, period_s) ->
      rejects label
        ~process:(Load_gen.Bursty { factor; period_s })
        ~rate:100. ~duration:1. ())
    [
      ("nan bursty factor", Float.nan, 0.1);
      ("infinite bursty factor", Float.infinity, 0.1);
      ("nan burst period", 4., Float.nan);
      ("infinite burst period", 4., Float.infinity);
    ];
  List.iter
    (fun (label, mean) ->
      Alcotest.(check bool) label true
        (try
           ignore
             (Load_gen.lengths
                (Load_gen.Geometric { mean; max_len = 8 })
                ~seed:0 ~n:1);
           false
         with Invalid_argument _ -> true))
    [
      ("nan geometric mean", Float.nan);
      ("infinite geometric mean", Float.infinity);
      ("geometric mean below 1", 0.5);
    ]

let arrivals_well_formed_prop =
  QCheck.Test.make ~count:60 ~name:"arrivals sorted within [0, duration)"
    QCheck.(pair (int_range 0 1000) (int_range 1 3))
    (fun (seed, which) ->
      let process =
        match which with
        | 1 -> Load_gen.Uniform
        | 2 -> Load_gen.Poisson
        | _ -> Load_gen.Bursty { factor = 3.; period_s = 0.05 }
      in
      let g =
        Load_gen.create ~process ~rate_per_s:800. ~duration_s:0.2 ~seed ()
      in
      let a = Load_gen.arrivals g in
      let rec sorted = function
        | x :: (y :: _ as rest) -> x <= y && sorted rest
        | _ -> true
      in
      sorted a && List.for_all (fun t -> t >= 0. && t < 0.2) a)

let test_poisson_rate () =
  (* 200 expected arrivals: the count should land well within +-30% *)
  let g = Load_gen.create ~rate_per_s:200. ~duration_s:1.0 ~seed:7 () in
  let n = List.length (Load_gen.arrivals g) in
  Alcotest.(check bool) "count near rate * duration" true
    (n > 140 && n < 260)

let test_length_dist_pinned () =
  (* fixed lengths are constant regardless of seed *)
  Alcotest.(check (list int)) "fixed" [ 7; 7; 7 ]
    (Load_gen.lengths (Load_gen.Fixed 7) ~seed:1 ~n:3);
  (* the geometric stream is a pinned pure function of its seed *)
  let geo = Load_gen.Geometric { mean = 8.; max_len = 32 } in
  let a = Load_gen.lengths geo ~seed:42 ~n:8 in
  Alcotest.(check (list int)) "geometric pinned trace"
    [ 7; 2; 2; 1; 30; 3; 3; 2 ] a;
  Alcotest.(check (list int)) "reproducible" a
    (Load_gen.lengths geo ~seed:42 ~n:8);
  Alcotest.(check bool) "seed matters" true
    (Load_gen.lengths geo ~seed:43 ~n:8 <> a);
  Alcotest.(check string) "dist names" "fixed:geometric"
    (Load_gen.length_dist_name (Load_gen.Fixed 1)
    ^ ":"
    ^ Load_gen.length_dist_name geo)

let test_length_dist_shape () =
  let geo = Load_gen.Geometric { mean = 8.; max_len = 32 } in
  let draws = Load_gen.lengths geo ~seed:7 ~n:500 in
  List.iter
    (fun l ->
      Alcotest.(check bool) "draw within [1, max_len]" true (l >= 1 && l <= 32))
    draws;
  let mean =
    float_of_int (List.fold_left ( + ) 0 draws) /. float_of_int 500
  in
  Alcotest.(check bool) "empirical mean near the target" true
    (mean > 6. && mean < 10.);
  Alcotest.check_raises "bad mean rejected"
    (Invalid_argument "Load_gen.lengths: geometric mean < 1") (fun () ->
      ignore
        (Load_gen.lengths
           (Load_gen.Geometric { mean = 0.5; max_len = 4 })
           ~seed:0 ~n:1))

let test_bursty_structure () =
  let factor = 4. and period_s = 0.1 in
  let g =
    Load_gen.create ~process:(Load_gen.Bursty { factor; period_s })
      ~rate_per_s:400. ~duration_s:1.0 ~seed:11 ()
  in
  let a = Load_gen.arrivals g in
  (* every arrival falls in the on-phase: the first period/factor of
     its window *)
  let on_len = period_s /. factor in
  List.iter
    (fun t ->
      let into = Float.rem t period_s in
      Alcotest.(check bool) "arrival inside on-phase" true
        (into <= on_len +. 1e-9))
    a;
  (* the on/off modulation preserves the mean rate *)
  let n = List.length a in
  Alcotest.(check bool) "mean rate preserved" true (n > 280 && n < 520)

(* ------------------------------------------------------------------ *)
(* Dynamic batcher + admission control                                 *)

let test_batcher_coalescing_bounds () =
  let b = Batcher.create ~max_batch:4 ~max_delay_s:1. ~queue_depth:64 () in
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "offer %d admitted" i)
      true
      (Batcher.offer b (req i 0.) = Batcher.Admitted)
  done;
  Alcotest.(check bool) "full queue is ready" true (Batcher.ready b ~now:0.);
  let batch = Batcher.take b in
  Alcotest.(check int) "batch capped at max_batch" 4 (List.length batch);
  Alcotest.(check (list int)) "FIFO order" [ 0; 1; 2; 3 ]
    (List.map (fun r -> r.Request.id) batch);
  Alcotest.(check int) "rest still queued" 6 (Batcher.length b);
  ignore (Batcher.take b);
  Alcotest.(check int) "tail batch is the remainder" 2
    (List.length (Batcher.take b))

let test_batcher_delay_bound () =
  let b = Batcher.create ~max_batch:8 ~max_delay_s:0.002 ~queue_depth:64 () in
  ignore (Batcher.offer b (req 0 0.010));
  Alcotest.(check bool) "below max_batch and fresh: not ready" false
    (Batcher.ready b ~now:0.011);
  Alcotest.(check (option (float 1e-12))) "deadline = arrival + delay"
    (Some 0.012) (Batcher.deadline b);
  Alcotest.(check bool) "ready at the delay bound" true
    (Batcher.ready b ~now:0.012);
  Alcotest.(check int) "partial batch released" 1
    (List.length (Batcher.take b));
  Alcotest.(check (option (float 0.))) "empty queue has no deadline" None
    (Batcher.deadline b)

let test_admission_sheds_only_past_depth () =
  let b = Batcher.create ~max_batch:4 ~max_delay_s:1. ~queue_depth:3 () in
  let verdicts = List.init 5 (fun i -> Batcher.offer b (req i 0.)) in
  Alcotest.(check (list bool)) "first depth admitted, rest shed"
    [ true; true; true; false; false ]
    (List.map (fun v -> v = Batcher.Admitted) verdicts);
  (* draining the queue re-opens admission *)
  ignore (Batcher.take b);
  Alcotest.(check bool) "admits again after drain" true
    (Batcher.offer b (req 9 1.) = Batcher.Admitted)

let test_batcher_rejects_bad_delay () =
  List.iter
    (fun d ->
      Alcotest.(check bool) (Printf.sprintf "max_delay %g raises" d) true
        (try
           ignore
             (Batcher.create ~max_batch:4 ~max_delay_s:d ~queue_depth:8 ());
           false
         with Invalid_argument _ -> true))
    [ -1e-3; Float.nan; Float.infinity ]

(* random op sequences against a FIFO reference model: drains come out
   in offer order, the shed counter counts exactly the over-depth
   offers, and the live length always agrees with the model *)
let batcher_fifo_model_prop =
  QCheck.Test.make ~count:200 ~name:"offer/drain matches a FIFO reference"
    QCheck.(pair (int_range 1 6) (small_list (int_bound 3)))
    (fun (max_batch, ops) ->
      let depth = 5 in
      let b =
        Batcher.create ~max_batch ~max_delay_s:1. ~queue_depth:depth ()
      in
      let model = Queue.create () in
      let next = ref 0 and sheds = ref 0 and ok = ref true in
      List.iter
        (fun op ->
          if op = 0 then (
            (* drain: up to max_batch ids, oldest first *)
            let expect = ref [] in
            for _ = 1 to min max_batch (Queue.length model) do
              expect := Queue.pop model :: !expect
            done;
            let got = List.map (fun r -> r.Request.id) (Batcher.take b) in
            if got <> List.rev !expect then ok := false)
          else (
            let id = !next in
            incr next;
            let v = Batcher.offer b (req id 0.) in
            if Queue.length model >= depth then (
              incr sheds;
              if v <> Batcher.Shed then ok := false)
            else (
              Queue.push id model;
              if v <> Batcher.Admitted then ok := false)))
        ops;
      !ok
      && Batcher.sheds b = !sheds
      && Batcher.length b = Queue.length model)

(* the shed counter never decreases, and moves only on a Shed verdict *)
let batcher_sheds_monotone_prop =
  QCheck.Test.make ~count:200 ~name:"sheds counter is monotone"
    QCheck.(small_list bool)
    (fun ops ->
      let b =
        Batcher.create ~max_batch:2 ~max_delay_s:1. ~queue_depth:3 ()
      in
      let last = ref 0 and id = ref 0 and ok = ref true in
      List.iter
        (fun offer ->
          (if offer then (
             let v = Batcher.offer b (req !id 0.) in
             incr id;
             let s = Batcher.sheds b in
             let bumped = s = !last + 1 and flat = s = !last in
             if not (if v = Batcher.Shed then bumped else flat) then
               ok := false)
           else ignore (Batcher.take b));
          if Batcher.sheds b < !last then ok := false;
          last := Batcher.sheds b)
        ops;
      !ok)

(* ready holds exactly when the queue is a full batch, or the oldest
   queued request has exhausted its delay bound *)
let batcher_ready_iff_prop =
  QCheck.Test.make ~count:300 ~name:"ready iff full batch or delay bound"
    QCheck.(
      triple (int_range 1 8)
        (small_list (float_bound_inclusive 0.01))
        (float_bound_inclusive 0.05))
    (fun (max_batch, gaps, wait) ->
      let max_delay_s = 0.02 in
      let b =
        Batcher.create ~max_batch ~max_delay_s ~queue_depth:64 ()
      in
      let t = ref 0. in
      List.iteri
        (fun i gap ->
          t := !t +. Float.abs gap;
          ignore (Batcher.offer b (req i !t)))
        gaps;
      let now = !t +. Float.abs wait in
      let expect =
        Batcher.length b >= max_batch
        || (match Batcher.oldest b with
           | Some r -> now -. r.Request.arrival_s >= max_delay_s
           | None -> false)
      in
      Batcher.ready b ~now = expect)

(* ------------------------------------------------------------------ *)
(* Pending-arrival order                                              *)

(* the sorted-list insert the serving loop kept its pending arrivals in
   before Loop.Arrivals, as the reference order *)
let rec insert_arrival r = function
  | [] -> [ r ]
  | hd :: tl ->
    if
      hd.Request.arrival_s < r.Request.arrival_s -. 1e-12
      || (Float.abs (hd.Request.arrival_s -. r.Request.arrival_s) <= 1e-12
          && hd.Request.id < r.Request.id)
    then hd :: insert_arrival r tl
    else r :: hd :: tl

(* random pushes and pops against the list, as seeding, re-issue and
   admission use it: Some (cluster, slot) pushes a request at
   cluster x 1 us + slot x 0.3 ps, so a cluster holds exact duplicates
   and times closer than 1e-12; None pops the earliest.  Ids run up or
   down against the times.  Clusters stay narrower than 1e-12, as the
   float rounding of one cycle-derived time makes them in the loop: in
   a chain of arrivals wider than that the tolerant comparison is not
   transitive, and the list's own order depends on insertion order. *)
let arrival_heap_matches_list_prop =
  QCheck.Test.make ~count:500
    ~name:"arrival heap pops in insert_arrival order"
    QCheck.(
      pair bool
        (list_of_size (Gen.int_bound 80)
           (option (pair (int_bound 4) (int_bound 3)))))
    (fun (ascending, ops) ->
      let h = Loop.Arrivals.create () in
      let l = ref [] and ok = ref true in
      let pop_both () =
        let expect =
          match !l with
          | [] -> None
          | r :: rest ->
            l := rest;
            Some r.Request.id
        in
        let got = Option.map (fun r -> r.Request.id) (Loop.Arrivals.pop h) in
        if got <> expect then ok := false
      in
      List.iteri
        (fun i op ->
          match op with
          | Some (cluster, slot) ->
            let id = if ascending then i else 1000 - i in
            let t =
              0.05 +. (float_of_int cluster *. 1e-6)
              +. (float_of_int slot *. 0.3e-12)
            in
            let r = req id t in
            Loop.Arrivals.push h r;
            l := insert_arrival r !l
          | None -> pop_both ())
        ops;
      while !l <> [] do
        pop_both ()
      done;
      !ok && Loop.Arrivals.pop h = None)

(* ------------------------------------------------------------------ *)
(* Metrics vs a hand-computed trace                                    *)

let test_metrics_hand_computed () =
  (* ten completions with latencies exactly 1..10 ms, SLO 6 ms, one
     request rejected on arrival *)
  let records =
    List.init 10 (fun i ->
        let lat_s = float_of_int (i + 1) /. 1000. in
        {
          Request.request = req ~slo_s:0.006 i 0.;
          outcome = Request.Completed;
          start_s = 0.;
          finish_s = lat_s;
          batch = 2;
          core = i mod 2;
        })
    @ [ Request.rejected (req ~slo_s:0.006 10 0.5) ]
  in
  let m =
    Metrics.build ~duration_s:1.0 ~bucket_s:0.25 ~cores:2
      ~models:[ ("m", 0, 6.) ]
      ~busy:[ (0, 0., 0.25); (1, 0.5, 0.75) ]
      records
  in
  let s = List.hd m.Metrics.summaries in
  Alcotest.(check int) "offered" 11 s.Metrics.offered;
  Alcotest.(check int) "completed" 10 s.Metrics.completed;
  Alcotest.(check int) "rejected" 1 s.Metrics.rejected;
  Alcotest.(check (float 1e-9)) "mean" 5.5 s.Metrics.mean_ms;
  (* Stats.percentile is nearest-rank (value at rank ceil(p/100 * n)):
     n=10 over 1..10 ms gives p50 = 5 (rank 5), p95 = p99 = 10
     (ranks 10) — always an observed latency, never interpolated *)
  Alcotest.(check (float 1e-9)) "p50" 5. s.Metrics.p50_ms;
  Alcotest.(check (float 1e-9)) "p95" 10. s.Metrics.p95_ms;
  Alcotest.(check (float 1e-9)) "p99" 10. s.Metrics.p99_ms;
  Alcotest.(check (float 1e-9)) "max" 10. s.Metrics.max_ms;
  (* 6 of 10 completions landed within the 6 ms SLO *)
  Alcotest.(check (float 1e-9)) "slo attainment" 0.6 s.Metrics.slo_attainment;
  Alcotest.(check (float 1e-9)) "goodput" 6. s.Metrics.goodput_per_s;
  Alcotest.(check (float 1e-9)) "throughput" 10. s.Metrics.throughput_per_s;
  Alcotest.(check (float 1e-9)) "rejection rate" (1. /. 11.)
    s.Metrics.rejection_rate;
  Alcotest.(check (float 1e-9)) "mean batch" 2. s.Metrics.mean_batch;
  (* each core busy 0.25 s of the 1 s horizon *)
  Array.iter
    (fun u -> Alcotest.(check (float 1e-9)) "core utilization" 0.25 u)
    m.Metrics.core_utilization;
  (* bucket 0: core0 busy, core1 idle -> mean 0.5; bucket 1: idle *)
  Alcotest.(check (float 1e-9)) "occupancy bucket0" 0.5
    m.Metrics.occupancy.(0);
  Alcotest.(check (float 1e-9)) "occupancy bucket1" 0. m.Metrics.occupancy.(1);
  (* the ASCII table carries the SLO attainment column *)
  let ascii = Format.asprintf "%a" Metrics.pp m in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "slo%% column" true (contains ascii "slo%");
  Alcotest.(check bool) "slo%% value" true (contains ascii "60.0%")

(* ------------------------------------------------------------------ *)
(* End-to-end serve runs (tiny core + gesture net: fast to compile)    *)

let gesture ~batch = Ascend.Nn.Gesture.build ~batch ()

let open_spec ?(priority = 0) ?(slo_ms = 20.) ?(rate = 400.) ?(seed = 5) name
    =
  {
    Serve.name;
    build = gesture;
    priority;
    slo_ms;
    workload =
      Serve.Open_loop
        (Load_gen.create ~rate_per_s:rate ~duration_s:0.2 ~seed ());
  }

let small_config ?(cores = 2) ?(queue_depth = 64) () =
  { (Serve.default_config ~core:Config.tiny ~cores) with
    Serve.duration_s = 0.2; max_batch = 4 }
  |> fun c -> { c with Serve.queue_depth }

let run_ok config specs =
  match Serve.run config specs with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_serve_conservation () =
  let r = run_ok (small_config ()) [ open_spec "gesture" ] in
  let completed, rejected =
    List.fold_left
      (fun (c, j) (rec_ : Request.record) ->
        match rec_.Request.outcome with
        | Request.Completed -> (c + 1, j)
        | Request.Rejected -> (c, j + 1))
      (0, 0) r.Serve.records
  in
  let s = List.hd r.Serve.metrics.Metrics.summaries in
  Alcotest.(check int) "offered = completed + rejected" s.Metrics.offered
    (completed + rejected);
  Alcotest.(check int) "summary agrees on completions" s.Metrics.completed
    completed;
  List.iter
    (fun (b : Serve.batch_exec) ->
      Alcotest.(check bool) "batch within bound" true
        (b.Serve.bx_size >= 1 && b.Serve.bx_size <= 4);
      Alcotest.(check bool) "core in range" true
        (b.Serve.bx_core >= 0 && b.Serve.bx_core < 2);
      Alcotest.(check bool) "positive span" true
        (b.Serve.bx_finish_s > b.Serve.bx_start_s))
    r.Serve.batches;
  List.iter
    (fun (rec_ : Request.record) ->
      match rec_.Request.outcome with
      | Request.Rejected -> ()
      | Request.Completed ->
        Alcotest.(check bool) "no time travel" true
          (rec_.Request.start_s >= rec_.Request.request.Request.arrival_s
          && rec_.Request.finish_s > rec_.Request.start_s))
    r.Serve.records;
  (* distinct (config, fused group, options) keys compile once — at
     most 4 batch sizes x the gesture net's group count — and every
     re-priced batch resolves in the content-addressed cache *)
  let groups_per_graph =
    List.length (Ascend.Compiler.Fusion.partition (gesture ~batch:1))
  in
  Alcotest.(check bool) "cache does the work" true
    (r.Serve.cost_misses <= 4 * groups_per_graph
    && r.Serve.cost_hits > r.Serve.cost_misses)

let test_serve_open_loop_deterministic () =
  let run () = run_ok (small_config ()) [ open_spec "gesture" ] in
  let a = Json.to_string (Serve.to_json (run ())) in
  let b = Json.to_string (Serve.to_json (run ())) in
  Alcotest.(check string) "byte-identical JSON" a b;
  let other =
    run_ok (small_config ()) [ open_spec ~seed:6 "gesture" ]
  in
  Alcotest.(check bool) "different seed, different trace" true
    (Json.to_string (Serve.to_json other) <> a)

let test_serve_closed_loop_deterministic () =
  let spec () =
    {
      Serve.name = "gesture";
      build = gesture;
      priority = 0;
      slo_ms = 20.;
      workload = Serve.Closed_loop { clients = 3; think_s = 0.002; seed = 9 };
    }
  in
  let run () = run_ok (small_config ()) [ spec () ] in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical JSON"
    (Json.to_string (Serve.to_json a))
    (Json.to_string (Serve.to_json b));
  let s = List.hd a.Serve.metrics.Metrics.summaries in
  Alcotest.(check bool) "clients kept the loop busy" true
    (s.Metrics.completed > 3);
  Alcotest.(check int) "closed loop never sheds" 0 s.Metrics.rejected;
  (* the summary surfaces the cost service's cache, disk tier included *)
  let rendered = Format.asprintf "%a" Serve.pp a in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "exec cache line" true
    (contains rendered "exec cache:");
  Alcotest.(check bool) "disk tier counters" true
    (contains rendered "disk tier:")

let test_serve_qos_under_overload () =
  (* one tiny core, two identical models, heavy load: the
     high-priority model must see the shorter queueing delay *)
  let mk name priority slo_ms seed =
    {
      (open_spec ~priority ~slo_ms ~rate:3000. ~seed name) with
      Serve.build = gesture;
    }
  in
  let config = small_config ~cores:1 ~queue_depth:16 () in
  let r =
    run_ok config [ mk "critical" 5 10. 21; mk "background" 0 50. 22 ]
  in
  let find name =
    List.find
      (fun s -> s.Metrics.model = name)
      r.Serve.metrics.Metrics.summaries
  in
  let crit = find "critical" and bg = find "background" in
  Alcotest.(check bool) "overload actually sheds" true
    (crit.Metrics.rejected + bg.Metrics.rejected > 0);
  Alcotest.(check bool) "high priority sees lower p95" true
    (crit.Metrics.p95_ms < bg.Metrics.p95_ms);
  Alcotest.(check bool) "high priority holds the tighter SLO" true
    (crit.Metrics.slo_attainment >= bg.Metrics.slo_attainment)

let test_serve_offline_bound () =
  let r = run_ok (small_config ()) [ open_spec "gesture" ] in
  (* the offline repack sees all work at t=0: its makespan can't exceed
     the span the online run actually used *)
  let online_busy_cycles =
    List.fold_left (fun acc (b : Serve.batch_exec) -> acc + b.Serve.bx_cycles)
      0 r.Serve.batches
  in
  Alcotest.(check bool) "offline makespan >= busy / cores" true
    (r.Serve.offline_makespan_cycles * 2 >= online_busy_cycles);
  Alcotest.(check bool) "offline utilization in (0,1]" true
    (r.Serve.offline_utilization > 0. && r.Serve.offline_utilization <= 1.);
  Alcotest.(check int) "one offline app per model" 1
    (List.length (Serve.scheduler_apps r))

(* ------------------------------------------------------------------ *)
(* The memoised cost oracle against the per-lookup path               *)

let face_detect ~batch = Ascend.Nn.Face_detect.build ~batch ()

(* Serving.Cost as it was before its (model, batch) memo, as the
   reference: every exact pricing rebuilds the graph, partitions it and
   probes the service's cache group by group *)
module Uncached = struct
  module Service = Ascend.Exec.Service
  module Cache = Ascend.Exec.Cache
  module Engine = Ascend.Compiler.Engine
  module Surrogate = Ascend.Cost.Surrogate

  type t = {
    service : Service.t;
    costing : Cost.costing;
    max_batch : int;
    fits : (string, Surrogate.t) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable interpolated : int;
    mutable fallbacks : int;
  }

  let create ~costing ~max_batch =
    {
      service = Service.create ~jobs:1 ?dir:(Service.env_cache_dir ()) ();
      costing;
      max_batch;
      fits = Hashtbl.create 8;
      hits = 0;
      misses = 0;
      interpolated = 0;
      fallbacks = 0;
    }

  let exact t ~build ~batch =
    let before = Service.stats t.service in
    let r =
      match Service.run_inference t.service Config.tiny (build ~batch) with
      | Error _ as e -> e
      | Ok nr ->
        Ok
          {
            Cost.cycles = nr.Engine.total_cycles;
            latency_s = Engine.seconds nr;
            energy_j = nr.Engine.total_energy_j;
          }
    in
    let after = Service.stats t.service in
    t.hits <- t.hits + (after.Cache.hits - before.Cache.hits);
    t.misses <- t.misses + (after.Cache.misses - before.Cache.misses);
    r

  let fit t ~model ~build =
    match Hashtbl.find_opt t.fits model with
    | Some f -> Ok f
    | None -> (
      match
        Ascend.Cost.Calibration.fit ~model
          ~price:(fun ~batch -> exact t ~build ~batch)
          ~max_batch:t.max_batch ()
      with
      | Ok f ->
        Hashtbl.replace t.fits model f;
        Ok f
      | Error _ as e -> e)

  let lookup t ~model ~build ~batch =
    match t.costing with
    | `Exact -> exact t ~build ~batch
    | `Surrogate -> (
      match fit t ~model ~build with
      | Error _ as e -> e
      | Ok f -> (
        match Surrogate.lookup f ~batch with
        | Some e ->
          t.interpolated <- t.interpolated + 1;
          Ok e
        | None ->
          t.fallbacks <- t.fallbacks + 1;
          exact t ~build ~batch))
end

(* random (model, batch) lookup sequences over two tiny-core models,
   under both tiers: batches past max_batch make the surrogate fall
   back; every answer and every counter must match after each lookup *)
let memo_matches_uncached_prop =
  QCheck.Test.make ~count:8 ~name:"memoised oracle equals the uncached oracle"
    QCheck.(list_of_size (Gen.int_range 1 30) (pair bool (int_range 1 6)))
    (fun lookups ->
      List.for_all
        (fun costing ->
          let max_batch = 4 in
          let memo = Cost.create ~costing ~max_batch ~core:Config.tiny () in
          let reference = Uncached.create ~costing ~max_batch in
          List.for_all
            (fun (g, batch) ->
              let model, build =
                if g then ("gesture", gesture) else ("face-detect", face_detect)
              in
              Cost.lookup memo ~model ~build ~batch
              = Uncached.lookup reference ~model ~build ~batch
              && Cost.hits memo = reference.Uncached.hits
              && Cost.misses memo = reference.Uncached.misses
              && Cost.interpolated memo = reference.Uncached.interpolated
              && Cost.fallbacks memo = reference.Uncached.fallbacks
              && Cost.stats memo
                 = Uncached.Service.stats reference.Uncached.service)
            lookups)
        [ `Exact; `Surrogate ])

let test_serve_rejects_bad_inputs () =
  Alcotest.(check bool) "empty spec list raises" true
    (try
       ignore (Serve.run (small_config ()) []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate model names raise" true
    (try
       ignore
         (Serve.run (small_config ())
            [ open_spec "gesture"; open_spec "gesture" ]);
       false
     with Invalid_argument _ -> true)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "serving"
    [
      ( "load-gen",
        [
          Alcotest.test_case "deterministic" `Quick
            test_load_gen_deterministic;
          Alcotest.test_case "uniform spacing" `Quick
            test_load_gen_uniform_spacing;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "bursty structure" `Quick test_bursty_structure;
          Alcotest.test_case "length dist pinned" `Quick
            test_length_dist_pinned;
          Alcotest.test_case "length dist shape" `Quick
            test_length_dist_shape;
          Alcotest.test_case "rejects bad specs" `Quick
            test_load_gen_rejects_bad_specs;
          q arrivals_well_formed_prop;
        ] );
      ( "batcher",
        [
          Alcotest.test_case "coalescing bounds" `Quick
            test_batcher_coalescing_bounds;
          Alcotest.test_case "delay bound" `Quick test_batcher_delay_bound;
          Alcotest.test_case "admission depth" `Quick
            test_admission_sheds_only_past_depth;
          Alcotest.test_case "rejects bad delay" `Quick
            test_batcher_rejects_bad_delay;
          q batcher_fifo_model_prop;
          q batcher_sheds_monotone_prop;
          q batcher_ready_iff_prop;
        ] );
      ( "arrivals", [ q arrival_heap_matches_list_prop ] );
      ( "metrics",
        [
          Alcotest.test_case "hand-computed trace" `Quick
            test_metrics_hand_computed;
        ] );
      ( "serve",
        [
          Alcotest.test_case "conservation" `Quick test_serve_conservation;
          Alcotest.test_case "open-loop determinism" `Quick
            test_serve_open_loop_deterministic;
          Alcotest.test_case "closed-loop determinism" `Quick
            test_serve_closed_loop_deterministic;
          Alcotest.test_case "qos under overload" `Quick
            test_serve_qos_under_overload;
          Alcotest.test_case "offline bound" `Quick test_serve_offline_bound;
          Alcotest.test_case "invalid inputs" `Quick
            test_serve_rejects_bad_inputs;
        ] );
      ( "cost", [ q memo_matches_uncached_prop ] );
    ]
