module Service = Ascend_exec.Service
module Surrogate = Ascend_cost.Surrogate
module Surrogate2d = Ascend_cost.Surrogate2d
module Calibration2d = Ascend_cost.Calibration2d
module Llm = Ascend_nn.Llm

type entry = Surrogate.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

(* Phase-aware pricing for one LLM on one core.  Same shape as the
   serving oracle (private single-domain service, the shared
   {!Ascend_serving.Cost.run_exact} with its deltas folded into the
   oracle's own counters) with two differences: decode steps are a
   function of (batch, cache length) so the surrogate tier is the 2-D
   grid of {!Ascend_cost.Surrogate2d}, and prefill — once per request,
   never the volume term — stays on the exact tier behind a
   (batch, prompt length) memo. *)
type t = {
  core : Ascend_arch.Config.t;
  cfg : Llm.config;
  costing : costing;
  max_batch : int;
  max_cache_len : int;
  service : Service.t;
  mutable grid : Surrogate2d.t option;
  prefill_memo : (int * int, entry) Hashtbl.t;
  decode_memo : (int * int, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable interpolated : int;
  mutable fallbacks : int;
}

let create ?(costing = `Exact) ?(max_batch = 8) ?(max_cache_len = 64) ~core cfg
    () =
  if max_batch < 1 then invalid_arg "Decode.Cost.create: max_batch < 1";
  if max_cache_len < 1 then invalid_arg "Decode.Cost.create: max_cache_len < 1";
  if max_cache_len >= cfg.Llm.max_position then
    invalid_arg "Decode.Cost.create: max_cache_len >= llm max_position";
  {
    core;
    cfg;
    costing;
    max_batch;
    max_cache_len;
    service = Service.create ~jobs:1 ?dir:(Service.env_cache_dir ()) ();
    grid = None;
    prefill_memo = Hashtbl.create 32;
    decode_memo = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    interpolated = 0;
    fallbacks = 0;
  }

let core t = t.core
let costing t = t.costing
let llm t = t.cfg

(* the exact tier behind [memo]; errors are not memoised *)
let memoised t memo key graph =
  match Hashtbl.find_opt memo key with
  | Some e -> Ok e
  | None -> (
    let x = Ascend_serving.Cost.run_exact t.service t.core (graph ()) in
    t.hits <- t.hits + x.group_hits;
    t.misses <- t.misses + x.group_misses;
    match x.result with
    | Error _ as e -> e
    | Ok e ->
      Hashtbl.replace memo key e;
      Ok e)

let prefill t ~batch ~prompt_len =
  if batch < 1 then invalid_arg "Decode.Cost.prefill: batch < 1";
  if prompt_len < 1 then invalid_arg "Decode.Cost.prefill: prompt_len < 1";
  memoised t t.prefill_memo (batch, prompt_len) (fun () ->
      Llm.prefill ~batch ~seq_len:prompt_len t.cfg)

let exact_decode t ~batch ~cache_len =
  memoised t t.decode_memo (batch, cache_len) (fun () ->
      Llm.decode ~batch ~cache_len t.cfg)

let grid t =
  match t.grid with
  | Some g -> Ok g
  | None -> (
    let r =
      Calibration2d.fit ~model:"llm-decode"
        ~price:(fun ~batch ~cache_len -> exact_decode t ~batch ~cache_len)
        ~max_batch:t.max_batch ~max_len:t.max_cache_len ()
    in
    match r with
    | Ok g ->
      t.grid <- Some g;
      r
    | Error _ -> r)

let decode_step t ~batch ~cache_len =
  if batch < 1 then invalid_arg "Decode.Cost.decode_step: batch < 1";
  if cache_len < 1 then invalid_arg "Decode.Cost.decode_step: cache_len < 1";
  match t.costing with
  | `Exact -> exact_decode t ~batch ~cache_len
  | `Surrogate -> (
    match grid t with
    | Error _ as e -> e
    | Ok g -> (
      match
        if Surrogate2d.in_range g ~batch ~cache_len then
          Surrogate2d.lookup g ~batch ~cache_len
        else None
      with
      | Some e ->
        t.interpolated <- t.interpolated + 1;
        Ok e
      | None ->
        (* past the grid on either axis: extrapolation is outside the
           calibrated budget, so answer exactly instead *)
        t.fallbacks <- t.fallbacks + 1;
        exact_decode t ~batch ~cache_len))

let hits t = t.hits
let misses t = t.misses
let interpolated t = t.interpolated
let fallbacks t = t.fallbacks
let stats t = Service.stats t.service
