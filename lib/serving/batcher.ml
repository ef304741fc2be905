type t = {
  label : string;
  max_batch : int;
  max_delay_s : float;
  queue_depth : int;
  queue : Request.t Queue.t;
  mutable sheds : int;
}

type verdict = Admitted | Shed

let create ?(label = "queue") ~max_batch ~max_delay_s ~queue_depth () =
  if max_batch < 1 then invalid_arg "Batcher.create: max_batch < 1";
  if queue_depth < 1 then invalid_arg "Batcher.create: queue_depth < 1";
  if not (max_delay_s >= 0. && Float.is_finite max_delay_s) then
    invalid_arg "Batcher.create: negative or non-finite max_delay";
  {
    label;
    max_batch;
    max_delay_s;
    queue_depth;
    queue = Queue.create ();
    sheds = 0;
  }

let label t = t.label
let max_batch t = t.max_batch
let queue_depth t = t.queue_depth

let offer t r =
  if Queue.length t.queue >= t.queue_depth then begin
    t.sheds <- t.sheds + 1;
    Shed
  end
  else begin
    Queue.push r t.queue;
    Admitted
  end

let sheds t = t.sheds

let length t = Queue.length t.queue

let oldest t = Queue.peek_opt t.queue

let deadline t =
  match Queue.peek_opt t.queue with
  | None -> None
  | Some r -> Some (r.Request.arrival_s +. t.max_delay_s)

let ready t ~now =
  match Queue.peek_opt t.queue with
  | None -> false
  | Some r ->
    Queue.length t.queue >= t.max_batch
    || now >= r.Request.arrival_s +. t.max_delay_s

let take t =
  let rec go n acc =
    if n = 0 then List.rev acc
    else
      match Queue.take_opt t.queue with
      | None -> List.rev acc
      | Some r -> go (n - 1) (r :: acc)
  in
  go t.max_batch []
