(** The fleet's replication/placement plan: which server nodes hold each
    model's weights resident at t = 0.

    Hot models are replicated across several (or all) nodes; cold models
    live on a single home node.  A request routed to a node where the
    model is {e not} resident pays a one-time HBM page-in penalty (the
    weights stream in over the server interconnect, see {!Fleet}) after
    which the model is resident there for the rest of the run.

    Everything is a pure function of the (model, weight-bytes, replica
    count) list and the node count — no randomness — so placement never
    perturbs the determinism contract. *)

type entry = {
  model : string;
  weight_bytes : int;   (** resident weight footprint, from the fused graph *)
  kv_bytes : int;
      (** reserved KV-cache working set per resident replica — decode-class
          models hold generation state in HBM beyond their weights; 0 for
          stateless model classes *)
  home : int;           (** primary replica, a stable hash of the name *)
  replicas : int list;  (** sorted node indices resident at t = 0 *)
}

type t = { nodes : int; entries : entry list }

val build :
  ?hbm_bytes_per_node:int -> nodes:int -> (string * int * int * int) list -> t
(** [build ~nodes specs] with [specs] listing (model, weight_bytes,
    kv_bytes, replicas).  A replica count [0] or [>= nodes] replicates
    on every node (hot); [1] pins the model to its home node only (cold);
    [r] spreads over [r] consecutive nodes starting at the home.  Raises
    [Invalid_argument] on [nodes < 1], duplicate model names, negative
    weight or kv bytes, a negative replica count, or — when
    [hbm_bytes_per_node] is given — a single model whose weights plus
    reserved KV cache exceed a node's HBM on their own (unservable on
    any node; whole-plan overcommit is {!verify_plan}'s job). *)

val verify_plan :
  ?hbm_bytes_per_node:int -> policy:string -> t ->
  Ascend_verify.Cluster.placement
(** The plan in the static verifier's neutral representation, ready for
    [Verify.Cluster.lint_placement] / [predicted_page_ins].  [policy]
    is a {!Router.policy_name} ("round-robin", "least-loaded",
    "affinity").  Each model's footprint is handed over as
    [weight_bytes + kv_bytes], so the verifier's HBM overcommit lint
    counts decode-class serving state against node capacity. *)

val find : t -> string -> entry
(** Raises [Invalid_argument] on an unknown model. *)

val resident : t -> model:string -> node:int -> bool

val to_json : t -> Ascend_util.Json.t
