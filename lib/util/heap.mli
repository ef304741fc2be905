(** Array-backed binary min-heap under a caller-given strict order.

    [push] and [pop] cost O(log n); [top] is O(1).  The heap pops in
    [precedes] order whenever [precedes] is a strict total order on the
    elements it holds at once; an element must not change its position
    in that order while it sits in the heap. *)

module type ORDERED = sig
  type t

  val precedes : t -> t -> bool
  (** [precedes a b]: [a] pops before [b]. *)
end

module type S = sig
  type elt
  type t

  val create : unit -> t
  val push : t -> elt -> unit

  val top : t -> elt option
  (** The element [pop] would return, left in place. *)

  val pop : t -> elt option
  (** Remove and return the first element in [precedes] order. *)
end

module Make (O : ORDERED) : S with type elt = O.t
