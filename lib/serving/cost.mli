(** The two-tier batch-latency oracle behind the serving loops.

    Tier B (the default, [`Exact]) prices a batch over the real
    compiler + core-simulator path through a private
    {!Ascend_exec.Service} whose cache is keyed by (config, fused group,
    codegen options), then memoises the answer per (model, batch): the
    first pricing of a pair builds the graph, partitions it and hashes
    its groups; every later one is a table probe.  The memo is always on
    and is shared by everything that prices exactly — [`Exact] lookups,
    surrogate calibration and surrogate fallbacks.  It is keyed by the
    model {e name}, so one oracle must see one [build] per name (the
    serving loops reject duplicate model names) and it has one fixed
    core.

    Tier A ([`Surrogate]) interpolates instead: on a model's first
    pricing, batches [1 .. max_batch] are priced through Tier B and
    fitted into a piecewise-linear table by the budget-driven
    refinement of {!Ascend_cost.Calibration.fit} (sparse geometric
    anchors where cycles scale smoothly, denser where tiling makes them
    step — max cycle error within the 5% budget by construction); every
    later lookup interpolates in O(1).  A batch beyond the largest
    anchor is outside the surrogate's confidence range and falls back
    to Tier B (counted in {!fallbacks}).

    Both tiers are deterministic: same inputs, same costing, same
    answers — counters included.  [`Exact] stays the default so the CI
    byte-identity gates are untouched; [`Surrogate] runs pin their own
    outputs.  The private service is single-domain, keeping a
    [Serve.run] a pure function of its inputs; the one documented
    exception is [ASCEND_CACHE_DIR], which opts the private service into
    the persistent disk tier ({!stats} exposes its counters). *)

type entry = Ascend_cost.Surrogate.entry = {
  cycles : int;        (** one batch on one core *)
  latency_s : float;
  energy_j : float;
}

type costing = [ `Exact | `Surrogate ]

val costing_name : costing -> string
(** ["exact"] or ["surrogate"], as the reports and the CLI spell it. *)

type t

val create :
  ?costing:costing -> ?max_batch:int -> core:Ascend_arch.Config.t -> unit -> t
(** [costing] defaults to [`Exact]; [max_batch] (default 8) bounds the
    surrogate's anchor schedule — lookups beyond it fall back to the
    exact tier.  Raises [Invalid_argument] on [max_batch < 1]. *)

val core : t -> Ascend_arch.Config.t
val costing : t -> costing

val lookup :
  t -> model:string -> build:(batch:int -> Ascend_nn.Graph.t) -> batch:int ->
  (entry, string) result
(** Price [build ~batch].  [`Exact]: the (model, batch) memo, or on its
    first use compile+simulate through the cached service.
    [`Surrogate]: calibrate the model's table on first use, then
    interpolate.  Raises [Invalid_argument] on [batch < 1]. *)

val hits : t -> int
val misses : t -> int
(** Fused-group-level cache counters of the exact tier: [misses] counts
    actual compile+simulate runs, [hits] counts group results served
    from the content-addressed cache's memory tier.  A memo hit adds the
    pair's group count to [hits] (and to the memory hits of {!stats}):
    by then every group of the batch sits in the cache, so re-pricing
    it would have hit on each one.  That holds until the private cache
    (4096 entries) evicts: a memo hit does not refresh the cache's LRU
    recency, so a run that evicts can count differently from pricing
    every batch through the service.  Surrogate-mode calibration flows
    through the same counters; interpolated lookups touch neither. *)

val interpolated : t -> int
(** Lookups answered by the surrogate table (always 0 under [`Exact]). *)

val fallbacks : t -> int
(** Surrogate-mode lookups beyond the largest anchor, answered by the
    exact tier. *)

val stats : t -> Ascend_exec.Cache.stats
(** The private service's cache counters, disk tier included, with the
    memo's hits counted as memory hits (see {!hits}). *)

type run = {
  result : (entry, string) result;
  group_hits : int;    (** memory hits the call took *)
  group_misses : int;  (** groups compiled and simulated *)
  groups : int;        (** groups probed: hits, disk hits and misses *)
}

val run_exact :
  Ascend_exec.Service.t -> Ascend_arch.Config.t -> Ascend_nn.Graph.t -> run
(** One uncached exact pricing: compile+simulate [graph] through the
    service and report the cache counters it moved.  The memo of
    {!lookup} sits on top of it; the decode oracle calls it directly. *)

val counters_json :
  hits:int -> misses:int -> interpolated:int -> fallbacks:int ->
  Ascend_exec.Cache.stats -> Ascend_util.Json.t
(** The ["cost_cache"] object of a serving report: the four counters
    above plus the disk-tier counters of {!stats}. *)

val pp_tiers :
  Format.formatter -> costing:costing -> interpolated:int -> fallbacks:int ->
  Ascend_exec.Cache.stats -> unit
(** The closing lines of a serving report: the surrogate line (under
    [`Surrogate] only), then the exec-cache line. *)
