module Engine = Ascend_compiler.Engine
module Service = Ascend_exec.Service
module Surrogate = Ascend_cost.Surrogate

type entry = Surrogate.entry = {
  cycles : int;
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

let costing_name = function `Exact -> "exact" | `Surrogate -> "surrogate"

(* One private execution service per oracle: serving sweeps re-price the
   same handful of (model, batch) pairs thousands of times; the memo
   answers every repeat and the service's content-addressed cache works
   below it at the fused-group level.  The service is private (not
   [Service.default]) and single-domain so that a [Serve.run] is a pure
   function of its inputs — counters included — regardless of what else
   the process ran before.  ([ASCEND_CACHE_DIR] is the one documented
   exception: it opts the private service into the persistent disk
   tier, so a warm directory trades some of that purity for
   cross-process reuse.) *)
type t = {
  core : Ascend_arch.Config.t;
  service : Service.t;
  costing : costing;
  max_batch : int;
  fits : (string, Surrogate.t) Hashtbl.t;
  memo : (string * int, (entry, string) result * int) Hashtbl.t;
      (* (model, batch) -> answer and the fused groups it probed *)
  mutable hits : int;
  mutable misses : int;
  mutable interpolated : int;
  mutable fallbacks : int;
}

let create ?(costing = `Exact) ?(max_batch = 8) ~core () =
  if max_batch < 1 then invalid_arg "Cost.create: max_batch < 1";
  {
    core;
    service = Service.create ~jobs:1 ?dir:(Service.env_cache_dir ()) ();
    costing;
    max_batch;
    fits = Hashtbl.create 8;
    memo = Hashtbl.create 32;
    hits = 0;
    misses = 0;
    interpolated = 0;
    fallbacks = 0;
  }

let core t = t.core
let costing t = t.costing

type run = {
  result : (entry, string) result;
  group_hits : int;
  group_misses : int;
  groups : int;
}

let run_exact service core graph =
  let before = Service.stats service in
  let result =
    match Service.run_inference service core graph with
    | Error _ as e -> e
    | Ok nr ->
      Ok
        {
          cycles = nr.Engine.total_cycles;
          latency_s = Engine.seconds nr;
          energy_j = nr.Engine.total_energy_j;
        }
  in
  let after = Service.stats service in
  let open Ascend_exec.Cache in
  let group_hits = after.hits - before.hits
  and group_misses = after.misses - before.misses in
  {
    result;
    group_hits;
    group_misses;
    groups = group_hits + group_misses + (after.disk_hits - before.disk_hits);
  }

(* Tier B, memoised per (model, batch) — sound because a serving run
   names each model once ([Loop.validate] rejects duplicates) and the
   core is fixed.  A memo hit adds the pair's group count to [hits]:
   every group of a repeated batch is in the service's cache by then, so
   pricing it again would have counted each one as a memory hit (unless
   the cache evicted it since — see cost.mli). *)
let exact t ~model ~build ~batch =
  match Hashtbl.find_opt t.memo (model, batch) with
  | Some (r, groups) ->
    t.hits <- t.hits + groups;
    r
  | None ->
    let x = run_exact t.service t.core (build ~batch) in
    t.hits <- t.hits + x.group_hits;
    t.misses <- t.misses + x.group_misses;
    Hashtbl.replace t.memo (model, batch) (x.result, x.groups);
    x.result

(* budget-driven refined fit (see {!Ascend_cost.Calibration}): prices
   every batch in 1..max_batch once through Tier B, then keeps the
   sparsest anchor set whose interpolation stays within the default 5%
   cycle-error budget — the same table the [calibrate] CLI reports on *)
let fit t ~model ~build =
  match Hashtbl.find_opt t.fits model with
  | Some f -> Ok f
  | None -> (
    let r =
      Ascend_cost.Calibration.fit ~model
        ~price:(fun ~batch -> exact t ~model ~build ~batch)
        ~max_batch:t.max_batch ()
    in
    match r with
    | Ok f ->
      Hashtbl.replace t.fits model f;
      r
    | Error _ -> r)

let lookup t ~model ~build ~batch =
  if batch < 1 then invalid_arg "Cost.lookup: batch < 1";
  match t.costing with
  | `Exact -> exact t ~model ~build ~batch
  | `Surrogate -> (
    match fit t ~model ~build with
    | Error _ as e -> e
    | Ok f -> (
      match Surrogate.lookup f ~batch with
      | Some e ->
        t.interpolated <- t.interpolated + 1;
        Ok e
      | None ->
        (* out of the surrogate's confidence range: extrapolating past
           the largest anchor could be arbitrarily wrong, so fall back
           to the oracle *)
        t.fallbacks <- t.fallbacks + 1;
        exact t ~model ~build ~batch))

let hits t = t.hits
let misses t = t.misses
let interpolated t = t.interpolated
let fallbacks t = t.fallbacks
(* every memory hit of the private service was folded into [hits], which
   counts the memo's hits on top *)
let stats t = { (Service.stats t.service) with Ascend_exec.Cache.hits = t.hits }

let counters_json ~hits ~misses ~interpolated ~fallbacks
    (stats : Ascend_exec.Cache.stats) =
  Ascend_util.Json.(
    Obj
      [
        ("hits", Int hits);
        ("misses", Int misses);
        ("interpolated", Int interpolated);
        ("fallbacks", Int fallbacks);
        ("disk_hits", Int stats.Ascend_exec.Cache.disk_hits);
        ("disk_writes", Int stats.Ascend_exec.Cache.disk_writes);
        ("disk_entries", Int stats.Ascend_exec.Cache.disk_entries);
      ])

let pp_tiers ppf ~costing ~interpolated ~fallbacks stats =
  if costing = `Surrogate then
    Format.fprintf ppf
      "surrogate: %d interpolated lookups, %d out-of-range fallbacks@."
      interpolated fallbacks;
  Format.fprintf ppf "exec cache: %a@." Ascend_exec.Cache.pp_stats stats
