(** Per-model dynamic batching queue with a queue-depth admission bound.

    Policy (the standard server-side dynamic batcher): a batch becomes
    ready as soon as [max_batch] requests are queued, or as soon as the
    oldest queued request has waited [max_delay_s] — a request is never
    held past its delay bound waiting for peers.  Admission control is a
    hard queue-depth cap: an offer past [queue_depth] is shed
    immediately (the paper's §5.2 QoS story needs overload to fail
    predictably, not by unbounded queueing). *)

type t

type verdict = Admitted | Shed

val create :
  ?label:string ->
  max_batch:int -> max_delay_s:float -> queue_depth:int -> unit -> t
(** [label] (default ["queue"]) names the queue in observability output
    — the serving loop uses the model name.  Raises [Invalid_argument]
    on [max_batch < 1], [queue_depth < 1] or a negative or non-finite
    [max_delay_s]. *)

val label : t -> string
val max_batch : t -> int
val queue_depth : t -> int

val offer : t -> Request.t -> verdict
(** FIFO enqueue; [Shed] when [length t = queue_depth]. *)

val sheds : t -> int
(** Monotonic count of offers shed since creation (the obs shed-counter
    series). *)

val length : t -> int

val oldest : t -> Request.t option

val ready : t -> now:float -> bool
(** A batch can be formed now: the queue holds a full [max_batch], or
    the oldest request has waited at least [max_delay_s]. *)

val deadline : t -> float option
(** The time at which the queue becomes ready by delay alone:
    [oldest.arrival_s + max_delay_s]; [None] on an empty queue. *)

val take : t -> Request.t list
(** Dequeue up to [max_batch] requests in FIFO order.  The caller checks
    {!ready} first; [take] itself only bounds the batch size. *)
