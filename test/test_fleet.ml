(* Fleet serving (lib/fleet): placement plan structure, router policy
   semantics, end-to-end conservation laws, page-in behaviour, training
   colocation and byte-identical determinism. *)

module Config = Ascend.Arch.Config
module Fleet = Ascend.Fleet.Fleet
module Router = Ascend.Fleet.Router
module Placement = Ascend.Fleet.Placement
module Serve = Ascend.Serving.Serve
module Load_gen = Ascend.Serving.Load_gen
module Request = Ascend.Serving.Request
module Metrics = Ascend.Serving.Metrics
module Json = Ascend.Util.Json

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)

let test_placement_structure () =
  let p =
    Placement.build ~nodes:4
      [ ("hot", 10, 0, 0); ("cold", 20, 0, 1); ("warm", 5, 0, 2) ]
  in
  let hot = Placement.find p "hot" in
  Alcotest.(check (list int)) "hot everywhere" [ 0; 1; 2; 3 ]
    hot.Placement.replicas;
  let cold = Placement.find p "cold" in
  Alcotest.(check int) "cold on one node" 1 (List.length cold.Placement.replicas);
  Alcotest.(check (list int)) "cold pinned to home" [ cold.Placement.home ]
    cold.Placement.replicas;
  let warm = Placement.find p "warm" in
  Alcotest.(check int) "warm on two nodes" 2 (List.length warm.Placement.replicas);
  Alcotest.(check bool) "home is a replica" true
    (List.mem warm.Placement.home warm.Placement.replicas);
  List.iter
    (fun n -> Alcotest.(check bool) "replica in range" true (n >= 0 && n < 4))
    warm.Placement.replicas;
  Alcotest.(check bool) "resident matches replicas" true
    (Placement.resident p ~model:"cold" ~node:cold.Placement.home);
  (* a second build is byte-identical: placement is pure *)
  let p2 =
    Placement.build ~nodes:4
      [ ("hot", 10, 0, 0); ("cold", 20, 0, 1); ("warm", 5, 0, 2) ]
  in
  Alcotest.(check string) "pure function of specs"
    (Json.to_string (Placement.to_json p))
    (Json.to_string (Placement.to_json p2));
  Alcotest.check_raises "duplicate models rejected"
    (Invalid_argument "Placement.build: duplicate model names") (fun () ->
      ignore (Placement.build ~nodes:2 [ ("m", 1, 0, 0); ("m", 1, 0, 0) ]));
  Alcotest.check_raises "negative replica count rejected"
    (Invalid_argument "Placement.build: negative replica count") (fun () ->
      ignore (Placement.build ~nodes:2 [ ("m", 1, 0, -1) ]))

let test_placement_hbm_capacity () =
  (* a model whose weights alone overflow a node's HBM is unservable on
     any node — build refuses the plan outright *)
  Alcotest.check_raises "oversized model rejected"
    (Invalid_argument
       "Placement.build: model big weights (100 B) + kv cache (0 B) exceed \
        a node's 10 B HBM — unservable on any node")
    (fun () ->
      ignore
        (Placement.build ~hbm_bytes_per_node:10 ~nodes:2
           [ ("small", 5, 0, 0); ("big", 100, 0, 1) ]));
  (* reserved KV cache counts against capacity just like weights *)
  Alcotest.check_raises "kv cache counted against HBM"
    (Invalid_argument
       "Placement.build: model kv weights (4 B) + kv cache (8 B) exceed \
        a node's 10 B HBM — unservable on any node")
    (fun () ->
      ignore
        (Placement.build ~hbm_bytes_per_node:10 ~nodes:2
           [ ("kv", 4, 8, 0) ]));
  (* fitting weights build fine with the capacity given *)
  let p =
    Placement.build ~hbm_bytes_per_node:10 ~nodes:2
      [ ("small", 5, 0, 0); ("other", 8, 2, 1) ]
  in
  Alcotest.(check int) "both placed" 2 (List.length p.Placement.entries)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let test_router_policies () =
  let p = Placement.build ~nodes:4 [ ("cold", 8, 0, 1); ("hot", 8, 0, 0) ] in
  let rr = Router.create ~policy:Router.Round_robin ~nodes:4 () in
  let picks =
    List.init 5 (fun _ ->
        Router.route rr ~placement:p ~model:"hot" ~depths:[| 9; 9; 9; 9 |])
  in
  Alcotest.(check (list int)) "round-robin cycles" [ 0; 1; 2; 3; 0 ] picks;
  let ll = Router.create ~policy:Router.Least_loaded ~nodes:4 () in
  Alcotest.(check int) "least-loaded picks the min" 2
    (Router.route ll ~placement:p ~model:"hot" ~depths:[| 3; 2; 1; 2 |]);
  Alcotest.(check int) "ties break to the lowest index" 1
    (Router.route ll ~placement:p ~model:"hot" ~depths:[| 3; 1; 1; 1 |]);
  let af = Router.create ~policy:Router.Model_affinity ~nodes:4 () in
  let home = (Placement.find p "cold").Placement.home in
  Alcotest.(check int) "affinity sticks to the replica set" home
    (Router.route af ~placement:p ~model:"cold" ~depths:[| 0; 0; 0; 0 |])

(* ------------------------------------------------------------------ *)
(* End-to-end fleet runs (tiny core + int8 nets: fast to compile)      *)

let gesture ~batch = Ascend.Nn.Gesture.build ~batch ()
let face_detect ~batch = Ascend.Nn.Face_detect.build ~batch ()

let open_spec ?(rate = 300.) ?(replicas = 0) ?(seed = 3) name build =
  {
    Fleet.name;
    build;
    priority = 0;
    slo_ms = 50.;
    replicas;
    kv_bytes = 0;
    workload =
      Serve.Open_loop
        (Load_gen.create ~rate_per_s:rate ~duration_s:0.2 ~seed ());
  }

let small_config ?(nodes = 4) ?(policy = Router.Least_loaded) () =
  {
    (Fleet.default_config ~core:Config.tiny ~nodes) with
    Fleet.cores_per_node = 2;
    duration_s = 0.2;
    max_batch = 4;
    policy;
  }

let run_ok ?train config specs =
  match Fleet.run ?train config specs with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_fleet_conservation () =
  let r =
    run_ok
      (small_config ~policy:Router.Round_robin ())
      [ open_spec "gesture" gesture; open_spec "face-detect" face_detect ]
  in
  let total = List.length r.Fleet.records in
  Alcotest.(check bool) "requests flowed" true (total > 0);
  (* every record was routed somewhere, and per-node counts add up *)
  let routed_sum =
    List.fold_left (fun a nr -> a + nr.Fleet.routed) 0 r.Fleet.node_reports
  in
  Alcotest.(check int) "routed covers every request" total routed_sum;
  let completed (m : Metrics.t) =
    List.fold_left (fun a s -> a + s.Metrics.completed) 0 m.Metrics.summaries
  in
  let node_completed =
    List.fold_left
      (fun a nr -> a + nr.Fleet.completed)
      0 r.Fleet.node_reports
  in
  Alcotest.(check int) "fleet completions = sum of node completions"
    (completed r.Fleet.fleet_metrics)
    node_completed;
  let route_routed =
    List.fold_left (fun a rc -> a + rc.Fleet.rc_routed) 0 r.Fleet.routes
  in
  Alcotest.(check int) "routing breakdown covers every request" total
    route_routed;
  List.iter
    (fun s ->
      Alcotest.(check int) "offered = completed + rejected" s.Metrics.offered
        (s.Metrics.completed + s.Metrics.rejected))
    r.Fleet.fleet_metrics.Metrics.summaries;
  (* the breakdown has one cell per (node, model) *)
  Alcotest.(check int) "cells" (4 * 2) (List.length r.Fleet.routes)

let test_fleet_deterministic () =
  let run () =
    run_ok
      (small_config ~policy:Router.Round_robin ())
      [
        open_spec "gesture" gesture;
        open_spec ~replicas:1 "face-detect" face_detect;
      ]
  in
  let a = Json.to_string (Fleet.to_json (run ())) in
  let b = Json.to_string (Fleet.to_json (run ())) in
  Alcotest.(check string) "byte-identical across runs" a b;
  (* and a different seed is a different run *)
  let c =
    Json.to_string
      (Fleet.to_json
         (run_ok
            (small_config ~policy:Router.Round_robin ())
            [
              open_spec ~seed:11 "gesture" gesture;
              open_spec ~replicas:1 ~seed:12 "face-detect" face_detect;
            ]))
  in
  Alcotest.(check bool) "seed changes the run" true (a <> c)

let test_cold_model_pages_in () =
  (* round-robin spreads the cold model over nodes that don't hold its
     weights: every non-home node pays exactly one page-in *)
  let specs =
    [ open_spec "gesture" gesture;
      open_spec ~replicas:1 "face-detect" face_detect ]
  in
  let rr = run_ok (small_config ~policy:Router.Round_robin ()) specs in
  Alcotest.(check bool) "round-robin pages the cold model in" true
    (rr.Fleet.total_page_ins > 0);
  Alcotest.(check bool) "at most one page-in per (node, model)" true
    (rr.Fleet.total_page_ins <= 4);
  List.iter
    (fun rc ->
      if rc.Fleet.rc_model = "gesture" then
        Alcotest.(check bool) "hot model never pages" false rc.Fleet.rc_paged)
    rr.Fleet.routes;
  (* affinity routes only to resident nodes: no page-in ever *)
  let af = run_ok (small_config ~policy:Router.Model_affinity ()) specs in
  Alcotest.(check int) "affinity never pages" 0 af.Fleet.total_page_ins

let test_predicted_page_ins_match_observed () =
  (* the static verifier's per-node page-in prediction on the run's own
     placement plan equals what the run observes — the page-in half of
     the lint --cluster differential gate (odd node count, so the
     round-robin rotor visits every node for every model) *)
  let specs =
    [ open_spec "gesture" gesture;
      open_spec ~replicas:1 "face-detect" face_detect ]
  in
  List.iter
    (fun policy ->
      let r = run_ok (small_config ~nodes:3 ~policy ()) specs in
      let plan =
        Placement.verify_plan ~policy:(Router.policy_name policy)
          r.Fleet.placement
      in
      let predicted = Ascend.Verify.Cluster.predicted_page_ins plan in
      let observed = Fleet.observed_page_ins r in
      Alcotest.(check (array int))
        ("prediction matches the run under " ^ Router.policy_name policy)
        predicted observed;
      (* and the two sides of the CI gate serialise byte-identically *)
      Alcotest.(check string) "differential document agrees"
        (Json.to_string
           (Fleet.pagein_json ~policy ~placement:r.Fleet.placement
              ~counts:predicted))
        (Json.to_string
           (Fleet.pagein_json ~policy ~placement:r.Fleet.placement
              ~counts:observed)))
    [ Router.Round_robin; Router.Model_affinity ]

let test_training_colocation () =
  let train =
    { Fleet.tj_model = "gesture"; tj_build = gesture; tj_batch = 8; tj_nodes = 2 }
  in
  let r = run_ok ~train (small_config ()) [ open_spec "gesture" gesture ] in
  (match r.Fleet.training with
  | None -> Alcotest.fail "expected a training report"
  | Some t ->
    Alcotest.(check bool) "step time positive" true (t.Fleet.tr_step_s > 0.);
    Alcotest.(check bool) "interconnect share in (0, 0.95]" true
      (t.Fleet.tr_interconnect_util > 0.
      && t.Fleet.tr_interconnect_util <= 0.95));
  List.iter
    (fun nr ->
      let expect_training = nr.Fleet.node < 2 in
      Alcotest.(check bool) "colocation on the first K nodes" expect_training
        nr.Fleet.colocated_training;
      Alcotest.(check bool) "contention only where colocated" expect_training
        (nr.Fleet.train_interconnect_util > 0.))
    r.Fleet.node_reports

let test_fleet_json_shape () =
  let r =
    run_ok
      (small_config ())
      [ open_spec "gesture" gesture ]
  in
  match Json.of_string (Json.to_string (Fleet.to_json r)) with
  | Error e -> Alcotest.fail e
  | Ok (Json.Obj fields) ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("has " ^ k) true (List.mem_assoc k fields))
      [ "config"; "placement"; "training"; "fleet"; "nodes"; "routing";
        "batches"; "cost_cache" ]
  | Ok _ -> Alcotest.fail "expected a JSON object"

(* ------------------------------------------------------------------ *)
(* Serve.run is the one-node case of Fleet.run                         *)

let test_serve_is_one_node_fleet () =
  let cores = 2 and duration_s = 0.1 in
  let cases =
    [
      ( "open-loop poisson", `Exact,
        [
          ( "gesture", gesture, 5,
            Serve.Open_loop
              (Load_gen.create ~rate_per_s:2000. ~duration_s ~seed:5 ()) );
          ( "face-detect", face_detect, 0,
            Serve.Open_loop
              (Load_gen.create ~rate_per_s:800. ~duration_s ~seed:6 ()) );
        ] );
      ( "closed-loop think time", `Exact,
        [
          ( "gesture", gesture, 0,
            Serve.Closed_loop { clients = 3; think_s = 1e-3; seed = 7 } );
          ( "face-detect", face_detect, 2,
            Serve.Closed_loop { clients = 2; think_s = 1e-3; seed = 8 } );
        ] );
      ( "bursty surrogate", `Surrogate,
        [
          ( "gesture", gesture, 0,
            Serve.Open_loop
              (Load_gen.create
                 ~process:(Load_gen.Bursty { factor = 4.; period_s = 0.02 })
                 ~rate_per_s:3000. ~duration_s ~seed:9 ()) );
        ] );
    ]
  in
  List.iter
    (fun (label, costing, models) ->
      let sconfig =
        {
          (Serve.default_config ~core:Config.tiny ~cores) with
          Serve.duration_s;
          queue_depth = 16;
          costing;
        }
      in
      let fconfig =
        {
          (Fleet.default_config ~core:Config.tiny ~nodes:1) with
          Fleet.cores_per_node = cores;
          max_batch = sconfig.Serve.max_batch;
          max_delay_s = sconfig.Serve.max_delay_s;
          queue_depth = sconfig.Serve.queue_depth;
          duration_s;
          bucket_s = sconfig.Serve.bucket_s;
          policy = Router.Round_robin;
          costing;
        }
      in
      let sspecs =
        List.map
          (fun (name, build, priority, workload) ->
            { Serve.name; build; priority; slo_ms = 20.; workload })
          models
      in
      let fspecs =
        List.map
          (fun (s : Serve.model_spec) ->
            {
              Fleet.name = s.Serve.name;
              build = s.Serve.build;
              priority = s.Serve.priority;
              slo_ms = s.Serve.slo_ms;
              workload = s.Serve.workload;
              replicas = 0;
              kv_bytes = 0;
            })
          sspecs
      in
      let s =
        match Serve.run sconfig sspecs with
        | Ok r -> r
        | Error e -> Alcotest.fail e
      in
      let f = run_ok fconfig fspecs in
      let check what = Alcotest.(check bool) (label ^ ": " ^ what) true in
      check "requests flowed" (s.Serve.records <> []);
      check "records" (s.Serve.records = List.map snd f.Fleet.records);
      check "batches"
        (List.map
           (fun (b : Serve.batch_exec) ->
             ( b.Serve.bx_model, b.Serve.bx_priority, b.Serve.bx_size,
               b.Serve.bx_core, b.Serve.bx_start_s, b.Serve.bx_finish_s,
               b.Serve.bx_cycles ))
           s.Serve.batches
        = List.map
            (fun (b : Fleet.batch_exec) ->
              ( b.Fleet.bx_model, b.Fleet.bx_priority, b.Fleet.bx_size,
                b.Fleet.bx_core, b.Fleet.bx_start_s, b.Fleet.bx_finish_s,
                b.Fleet.bx_cycles ))
            f.Fleet.batches);
      Alcotest.(check string) (label ^ ": metrics json")
        (Json.to_string (Metrics.to_json s.Serve.metrics))
        (Json.to_string (Metrics.to_json f.Fleet.fleet_metrics));
      Alcotest.(check (list int)) (label ^ ": cost counters")
        [ s.Serve.cost_hits; s.Serve.cost_misses; s.Serve.cost_interpolated;
          s.Serve.cost_fallbacks ]
        [ f.Fleet.cost_hits; f.Fleet.cost_misses; f.Fleet.cost_interpolated;
          f.Fleet.cost_fallbacks ])
    cases

(* ------------------------------------------------------------------ *)
(* Invariants over random small fleets                                 *)

type load = Open of float | Closed of int * float  (* clients, think ms *)

type fleet_case = {
  nodes : int;
  cores : int;
  max_batch : int;
  delay_ms : float;
  depth : int;
  policy : Router.policy;
  seed : int;
  models : (string * int * load) list;  (* name, replicas, load *)
}

let fleet_case_gen =
  QCheck.Gen.(
    let model name =
      let* replicas = int_bound 2 in
      let* load =
        oneof
          [
            map (fun r -> Open r) (float_range 200. 4000.);
            map2
              (fun c t -> Closed (c, t))
              (int_range 1 4)
              (oneof [ return 0.; float_bound_inclusive 2. ]);
          ]
      in
      return (name, replicas, load)
    in
    let* nodes = int_range 1 3 in
    let* cores = int_range 1 3 in
    let* max_batch = int_range 1 6 in
    let* delay_ms = float_bound_inclusive 4. in
    let* depth = int_range 1 12 in
    let* policy = oneofl (List.map snd Router.policies) in
    let* seed = int_bound 10_000 in
    let* g = model "gesture" in
    let* f = model "face-detect" in
    let* models = oneofl [ [ g ]; [ f ]; [ g; f ] ] in
    return { nodes; cores; max_batch; delay_ms; depth; policy; seed; models })

let print_fleet_case c =
  Printf.sprintf
    "nodes %d cores %d max_batch %d delay %gms depth %d %s seed %d: %s"
    c.nodes c.cores c.max_batch c.delay_ms c.depth
    (Router.policy_name c.policy) c.seed
    (String.concat ", "
       (List.map
          (fun (name, replicas, load) ->
            Printf.sprintf "%s x%d %s" name replicas
              (match load with
              | Open r -> Printf.sprintf "open %g/s" r
              | Closed (k, t) -> Printf.sprintf "closed %d think %gms" k t))
          c.models))

(* conservation, causality, no core double-booking and determinism of
   Fleet.run: the kernel numbers requests 0, 1, ... as it makes them,
   so every generated request appearing exactly once means the record
   ids are exactly 0..n-1 and each model's n is what its load
   generated.  A closed-loop model makes one request per client plus
   one re-issue per completion whose think time ends inside the window:
   with zero think time that is every completion finishing before the
   window closes. *)
let fleet_invariants_prop =
  QCheck.Test.make ~count:50 ~name:"random fleets conserve requests"
    (QCheck.make ~print:print_fleet_case fleet_case_gen)
    (fun c ->
      let duration_s = 0.03 in
      let config =
        {
          (Fleet.default_config ~core:Config.tiny ~nodes:c.nodes) with
          Fleet.cores_per_node = c.cores;
          duration_s;
          max_batch = c.max_batch;
          max_delay_s = c.delay_ms /. 1e3;
          queue_depth = c.depth;
          policy = c.policy;
          costing = `Surrogate;
        }
      in
      let specs =
        List.mapi
          (fun i (name, replicas, load) ->
            {
              Fleet.name;
              build = (if name = "gesture" then gesture else face_detect);
              priority = i;
              slo_ms = 20.;
              replicas;
              kv_bytes = 0;
              workload =
                (match load with
                | Open rate ->
                  Serve.Open_loop
                    (Load_gen.create ~rate_per_s:rate ~duration_s
                       ~seed:(c.seed + i) ())
                | Closed (clients, think_ms) ->
                  Serve.Closed_loop
                    { clients; think_s = think_ms /. 1e3; seed = c.seed + i });
            })
          c.models
      in
      let r = run_ok config specs in
      let records = List.map snd r.Fleet.records in
      let n = List.length records in
      let generated_ok (s : Fleet.model_spec) =
        let mine =
          List.filter
            (fun rc -> rc.Request.request.Request.model = s.Fleet.name)
            records
        in
        let made = List.length mine in
        match s.Fleet.workload with
        | Serve.Open_loop gen -> made = List.length (Load_gen.arrivals gen)
        | Serve.Closed_loop { clients; think_s; _ } ->
          let reissued =
            List.length
              (List.filter
                 (fun rc ->
                   rc.Request.outcome = Request.Completed
                   && rc.Request.finish_s < duration_s)
                 mine)
          in
          if think_s = 0. then made = clients + reissued
          else clients <= made && made <= clients + reissued
      in
      (* the kernel's float clock counts instants within 1e-12 s as one:
         a zero-think re-issue can arrive a few ulps after the core-free
         instant, computed from another batch's start, that dispatches it *)
      let causal rc =
        rc.Request.outcome = Request.Rejected
        || (rc.Request.request.Request.arrival_s <= rc.Request.start_s +. 1e-12
           && rc.Request.start_s <= rc.Request.finish_s)
      in
      (* no core is double-booked: a batch's records share (node, core,
         start) and one finish, and one core's batches in start order
         must not overlap, up to the same clock tolerance *)
      let spans = Hashtbl.create 64 and one_finish = ref true in
      List.iter
        (fun (node, rc) ->
          if rc.Request.outcome = Request.Completed then begin
            let key = (node, rc.Request.core) in
            let batches =
              Option.value ~default:[] (Hashtbl.find_opt spans key)
            in
            match List.assoc_opt rc.Request.start_s batches with
            | Some finish ->
              if finish <> rc.Request.finish_s then one_finish := false
            | None ->
              Hashtbl.replace spans key
                ((rc.Request.start_s, rc.Request.finish_s) :: batches)
          end)
        r.Fleet.records;
      let rec disjoint = function
        | (_, f) :: ((s, _) :: _ as rest) -> s >= f -. 1e-12 && disjoint rest
        | _ -> true
      in
      let not_double_booked =
        !one_finish
        && Hashtbl.fold
             (fun _ batches ok -> ok && disjoint (List.sort compare batches))
             spans true
      in
      let summaries = r.Fleet.fleet_metrics.Metrics.summaries in
      List.map (fun rc -> rc.Request.request.Request.id) records
      = List.init n Fun.id
      && List.for_all generated_ok specs
      && List.for_all
           (fun s ->
             s.Metrics.offered = s.Metrics.completed + s.Metrics.rejected)
           summaries
      && List.fold_left (fun a s -> a + s.Metrics.offered) 0 summaries = n
      && List.for_all causal records
      && not_double_booked
      && Json.to_string (Fleet.to_json (run_ok config specs))
         = Json.to_string (Fleet.to_json r))

let () =
  Alcotest.run "fleet"
    [
      ( "placement",
        [
          Alcotest.test_case "structure" `Quick test_placement_structure;
          Alcotest.test_case "hbm capacity" `Quick test_placement_hbm_capacity;
        ] );
      ( "router",
        [ Alcotest.test_case "policies" `Quick test_router_policies ] );
      ( "fleet",
        [
          Alcotest.test_case "conservation" `Quick test_fleet_conservation;
          Alcotest.test_case "deterministic" `Quick test_fleet_deterministic;
          Alcotest.test_case "page-in" `Quick test_cold_model_pages_in;
          Alcotest.test_case "predicted page-ins" `Quick
            test_predicted_page_ins_match_observed;
          Alcotest.test_case "training colocation" `Quick
            test_training_colocation;
          Alcotest.test_case "json shape" `Quick test_fleet_json_shape;
          Alcotest.test_case "serve is the one-node case" `Quick
            test_serve_is_one_node_fleet;
          QCheck_alcotest.to_alcotest fleet_invariants_prop;
        ] );
    ]
