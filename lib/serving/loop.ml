module Scheduler = Ascend_runtime.Scheduler
module Prng = Ascend_util.Prng
module Units = Ascend_util.Units

type workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }

type model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;
  slo_ms : float;
  workload : workload;
}

type batch = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_node : int;
  bx_core : int;
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;
  bx_paged : bool;
}

type lanes = {
  on_take : node:int -> model:int -> now:float -> Batcher.t -> unit;
  on_admit : node:int -> model:int -> Request.t -> Batcher.t -> unit;
  on_shed : node:int -> model:int -> Request.t -> Batcher.t -> unit;
  on_batch : batch -> unit;
  on_done : model:int -> batch -> Request.t -> unit;
}

type outcome = {
  records : (int * Request.record) list;
  batches : batch list;
  busy : (int * float * float) list array;
}

exception Cost_error of string

let eps = 1e-12

let validate ~who ~duration_s ~bucket_s specs =
  let fail msg = invalid_arg (who ^ ": " ^ msg) in
  if not (duration_s > 0. && Float.is_finite duration_s) then
    fail "non-positive or non-finite duration";
  if not (bucket_s > 0. && Float.is_finite bucket_s) then
    fail "non-positive or non-finite bucket";
  if specs = [] then fail "no models";
  let names = List.map (fun s -> s.name) specs in
  if List.length (List.sort_uniq compare names) <> List.length names then
    fail "duplicate model names";
  List.iter
    (fun s ->
      match s.workload with
      | Closed_loop { clients; _ } when clients < 1 ->
        fail "closed loop needs at least one client"
      | _ -> ())
    specs

(* sorted insertion by (arrival, id).  O(length) per insert, so seeding
   an n-request trace costs O(n^2): in-order arrivals, the common case,
   walk the whole list every time. *)
let rec insert_arrival r = function
  | [] -> [ r ]
  | hd :: tl ->
    if
      hd.Request.arrival_s < r.Request.arrival_s -. eps
      || (Float.abs (hd.Request.arrival_s -. r.Request.arrival_s) <= eps
          && hd.Request.id < r.Request.id)
    then hd :: insert_arrival r tl
    else r :: hd :: tl

let batch_stream name ~cycles =
  {
    Scheduler.stream_name = name;
    tasks =
      [
        {
          Scheduler.task_name = name;
          blocks = 1;
          cycles_per_block = max 1 cycles;
        };
      ];
  }

let run ~cost ~nodes ~cores_per_node ~max_batch ~max_delay_s ~queue_depth
    ~duration_s ~route ~stall ?lanes specs =
  let n_models = Array.length specs in
  let s_of_cycles c =
    Units.seconds_of_cycles ~cycles:c
      ~frequency_ghz:(Cost.core cost).Ascend_arch.Config.frequency_ghz
  in
  let queues =
    Array.init nodes (fun _ ->
        Array.map
          (fun s ->
            Batcher.create ~label:s.name ~max_batch ~max_delay_s ~queue_depth
              ())
          specs)
  in
  let think_rng =
    Array.map
      (fun s ->
        match s.workload with
        | Closed_loop { seed; _ } -> Some (Prng.create ~seed)
        | Open_loop _ -> None)
      specs
  in
  let next_id = ref 0 in
  let fresh_request spec_idx ~arrival_s =
    let s = specs.(spec_idx) in
    let r =
      {
        Request.id = !next_id;
        model = s.name;
        arrival_s;
        priority = s.priority;
        slo_s = s.slo_ms /. 1e3;
      }
    in
    incr next_id;
    r
  in
  let spec_index = Hashtbl.create n_models in
  Array.iteri (fun i s -> Hashtbl.replace spec_index s.name i) specs;
  (* seed the arrival list: the whole open-loop trace, plus one request
     per closed-loop client at t=0 *)
  let pending = ref [] in
  Array.iteri
    (fun i s ->
      match s.workload with
      | Open_loop gen ->
        List.iter
          (fun t ->
            pending := insert_arrival (fresh_request i ~arrival_s:t) !pending)
          (Load_gen.arrivals gen)
      | Closed_loop { clients; _ } ->
        for _ = 1 to clients do
          pending := insert_arrival (fresh_request i ~arrival_s:0.) !pending
        done)
    specs;
  let core_free = Array.init nodes (fun _ -> Array.make cores_per_node 0.) in
  let busy = Array.make nodes [] in
  let records = ref [] in
  let batches = ref [] in
  let batch_seq = ref 0 in
  let reissue spec_idx ~finish_s =
    match (specs.(spec_idx).workload, think_rng.(spec_idx)) with
    | Closed_loop { think_s; _ }, Some rng ->
      let think =
        if think_s <= 0. then 0.
        else -.think_s *. log (1. -. Prng.float rng ~bound:1.)
      in
      let t = finish_s +. think in
      if t < duration_s then
        pending := insert_arrival (fresh_request spec_idx ~arrival_s:t) !pending
    | _ -> ()
  in
  let price spec_idx ~batch =
    let s = specs.(spec_idx) in
    match Cost.lookup cost ~model:s.name ~build:s.build ~batch with
    | Ok e -> e
    | Error e -> raise (Cost_error (s.name ^ ": " ^ e))
  in
  let node_cores = List.init cores_per_node Fun.id in
  let dispatch_node now n =
    let idle =
      List.filter (fun c -> core_free.(n).(c) <= now +. eps) node_cores
    in
    if idle <> [] then begin
      (* drain every ready batch, spec order for determinism *)
      let ready = ref [] in
      Array.iteri
        (fun m q ->
          while Batcher.ready q ~now do
            let reqs = Batcher.take q in
            Option.iter (fun l -> l.on_take ~node:n ~model:m ~now q) lanes;
            let entry = price m ~batch:(List.length reqs) in
            let stall = stall ~node:n ~model:m ~now in
            let tag = Printf.sprintf "batch%d" !batch_seq in
            incr batch_seq;
            ready := (tag, (m, reqs, entry, stall)) :: !ready
          done)
        queues.(n);
      let ready = List.rev !ready in
      if ready <> [] then begin
        let idle_arr = Array.of_list idle in
        (* one single-block task per batch; Scheduler.run packs them on
           the idle cores in QoS-priority order, a stall as extra cycles
           ahead of the compute *)
        let apps =
          List.map
            (fun (tag, (m, _, (entry : Cost.entry), stall)) ->
              Scheduler.app ~priority:specs.(m).priority ~name:tag
                [
                  batch_stream tag
                    ~cycles:(entry.Cost.cycles + Option.value stall ~default:0);
                ])
            ready
        in
        let sched = Scheduler.run ~cores:(Array.length idle_arr) apps in
        List.iter
          (fun (p : Scheduler.placement) ->
            let m, reqs, (entry : Cost.entry), stall =
              List.assoc p.Scheduler.app ready
            in
            let core = idle_arr.(p.Scheduler.core) in
            let start_s = now +. s_of_cycles p.Scheduler.start_cycle in
            let finish_s = now +. s_of_cycles p.Scheduler.end_cycle in
            core_free.(n).(core) <- Float.max core_free.(n).(core) finish_s;
            busy.(n) <- (core, start_s, finish_s) :: busy.(n);
            let size = List.length reqs in
            let b =
              {
                bx_model = specs.(m).name;
                bx_priority = specs.(m).priority;
                bx_size = size;
                bx_node = n;
                bx_core = core;
                bx_start_s = start_s;
                bx_finish_s = finish_s;
                bx_cycles = entry.Cost.cycles;
                bx_paged = stall <> None;
              }
            in
            batches := b :: !batches;
            Option.iter (fun l -> l.on_batch b) lanes;
            List.iter
              (fun r ->
                records :=
                  ( n,
                    {
                      Request.request = r;
                      outcome = Request.Completed;
                      start_s;
                      finish_s;
                      batch = size;
                      core;
                    } )
                  :: !records;
                Option.iter (fun l -> l.on_done ~model:m b r) lanes;
                reissue m ~finish_s)
              reqs)
          sched.Scheduler.placements
      end
    end
  in
  let depth n =
    Array.fold_left (fun acc q -> acc + Batcher.length q) 0 queues.(n)
  in
  let admit now =
    let rec go () =
      match !pending with
      | r :: rest when r.Request.arrival_s <= now +. eps ->
        pending := rest;
        let m = Hashtbl.find spec_index r.Request.model in
        let n = route r ~depth in
        let q = queues.(n).(m) in
        (match Batcher.offer q r with
        | Batcher.Admitted ->
          Option.iter (fun l -> l.on_admit ~node:n ~model:m r q) lanes
        | Batcher.Shed ->
          records := (n, Request.rejected r) :: !records;
          Option.iter (fun l -> l.on_shed ~node:n ~model:m r q) lanes);
        go ()
      | _ -> ()
    in
    go ()
  in
  let next_time now =
    let best = ref infinity in
    let consider t = if t > now +. eps && t < !best then best := t in
    (match !pending with r :: _ -> consider r.Request.arrival_s | [] -> ());
    Array.iter
      (Array.iter (fun q ->
           match Batcher.deadline q with Some d -> consider d | None -> ()))
      queues;
    let queued =
      Array.exists (Array.exists (fun q -> Batcher.length q > 0)) queues
    in
    if queued then Array.iter (Array.iter consider) core_free;
    if !best = infinity then None else Some !best
  in
  let rec step now =
    admit now;
    for n = 0 to nodes - 1 do
      dispatch_node now n
    done;
    match next_time now with None -> () | Some t -> step t
  in
  match step 0. with
  | () ->
    let records =
      List.sort
        (fun (_, a) (_, b) ->
          compare a.Request.request.Request.id b.Request.request.Request.id)
        !records
    in
    Ok { records; batches = List.rev !batches; busy }
  | exception Cost_error e -> Error e
