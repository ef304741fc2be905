(** The one discrete-event serving kernel, behind {!Serve.run} and
    [Fleet.run]: the paper's §5.2 dispatch path (apps → streams → tasks
    → blocks on idle cores) driven by request arrivals.

    The kernel owns the simulated clock, the pending arrivals,
    closed-loop re-issue, admission into per-(node, model)
    {!Batcher}s, pricing through one {!Cost} oracle, [Scheduler.run]
    over each node's idle cores, and the records, batches and busy spans
    of the run.  The caller supplies the node and core counts, where an
    arrival goes ([route]), what a batch pays before it computes
    ([stall]) and its observability lanes; single-node serving is one
    node, route to 0, no stall.  Decision points are arrivals, batching
    deadlines and cores becoming free.  At each one the kernel admits
    every due arrival, then, node by node, drains every ready batch in
    spec order, prices it and packs the set onto the node's idle cores.
    Same specs + seeds => same records, batches and lane events, in the
    same order. *)

type workload =
  | Open_loop of Load_gen.t
  | Closed_loop of { clients : int; think_s : float; seed : int }
      (** [clients] concurrent callers, each re-issuing after its
          previous request completes plus an exponential think time of
          mean [think_s] (zero: immediate re-issue). *)

type model_spec = {
  name : string;
  build : batch:int -> Ascend_nn.Graph.t;
  priority : int;   (** QoS priority, higher wins under contention *)
  slo_ms : float;
  workload : workload;
}

type batch = {
  bx_model : string;
  bx_priority : int;
  bx_size : int;
  bx_node : int;
  bx_core : int;        (** core index local to the node *)
  bx_start_s : float;
  bx_finish_s : float;
  bx_cycles : int;      (** compute cycles, excluding any stall *)
  bx_paged : bool;      (** [stall] charged this batch a page-in *)
}

(** Observability emitters, called at the kernel's event points.  The
    [model] argument is the spec index; each [Batcher.t] is the queue
    the event touched, read after the event. *)
type lanes = {
  on_take : node:int -> model:int -> now:float -> Batcher.t -> unit;
      (** a ready batch left the queue, before it is priced *)
  on_admit : node:int -> model:int -> Request.t -> Batcher.t -> unit;
  on_shed : node:int -> model:int -> Request.t -> Batcher.t -> unit;
  on_batch : batch -> unit;
      (** a batch was placed on a core *)
  on_done : model:int -> batch -> Request.t -> unit;
      (** a request of that batch completed, before its closed-loop
          client re-issues *)
}

type outcome = {
  records : (int * Request.record) list;
      (** (node, record), in request-id order *)
  batches : batch list;                    (** in dispatch order *)
  busy : (int * float * float) list array;
      (** per node, (core, start, finish) spans, most recent first *)
}

val batch_stream : string -> cycles:int -> Ascend_runtime.Scheduler.stream
(** [batch_stream name ~cycles] is a stream named [name] holding one
    single-block task, also named [name], of [max 1 cycles] cycles: how
    one batch enters [Scheduler.run]. *)

val validate :
  who:string -> duration_s:float -> bucket_s:float -> model_spec list -> unit
(** Raises [Invalid_argument], prefixed with [who], on a non-positive or
    non-finite duration or bucket width, an empty spec list, duplicate
    model names or a closed loop with [clients < 1]. *)

val run :
  cost:Cost.t ->
  nodes:int ->
  cores_per_node:int ->
  max_batch:int ->
  max_delay_s:float ->
  queue_depth:int ->
  duration_s:float ->
  route:(Request.t -> depth:(int -> int) -> int) ->
  stall:(node:int -> model:int -> now:float -> int option) ->
  ?lanes:lanes ->
  model_spec array ->
  (outcome, string) result
(** Run the specs to completion: the load window is [duration_s]
    (closed-loop clients stop re-issuing at it) and queued work drains
    past it.  [route r ~depth] picks the node of an arrival;
    [depth n] is the total queued on node [n].  [stall ~node ~model
    ~now] is asked once per batch, after pricing: [Some c] adds [c]
    cycles ahead of the batch's compute and marks it paged.  Returns
    [Error] when a model fails to price on the oracle's core. *)
