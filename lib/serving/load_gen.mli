(** Deterministic open-loop load generation: seeded arrival processes
    for one request stream.

    Every process is a pure function of its spec (rate, duration, seed):
    the same spec always yields the same arrival times.  Wall-clock
    seeding is deliberately impossible — reproducibility of a serving
    run is part of its contract (DESIGN.md §7). *)

type process =
  | Uniform
      (** Evenly spaced, arrival [i] at [i / rate] — the deterministic
          baseline with zero burstiness. *)
  | Poisson
      (** Exponential interarrivals via inversion sampling of a seeded
          {!Ascend_util.Prng} stream: [dt = -ln(1 - U) / rate]. *)
  | Bursty of { factor : float; period_s : float }
      (** On/off-modulated Poisson: each [period_s] window opens with an
          on-phase of [period_s / factor] during which arrivals follow a
          Poisson process at [factor * rate]; the rest of the window is
          silent.  Mean rate is preserved; [factor >= 1]. *)

type t = {
  process : process;
  rate_per_s : float;
  duration_s : float;
  seed : int;
}

val create :
  ?process:process -> rate_per_s:float -> duration_s:float -> seed:int ->
  unit -> t
(** Default process {!Poisson}.  Raises [Invalid_argument] on a
    non-finite (NaN or infinite) or non-positive rate/duration, a
    non-finite or [< 1] bursty [factor], or a non-finite or non-positive
    [period_s]. *)

val arrivals : t -> float list
(** Strictly increasing-or-equal sorted times in [0, duration_s). *)

val process_name : process -> string

type length_dist =
  | Fixed of int  (** Every request gets the same length. *)
  | Geometric of { mean : float; max_len : int }
      (** Geometric law on [{1, 2, ...}] with the given mean, sampled by
          inversion of a seeded {!Ascend_util.Prng} stream and clamped to
          [max_len] — the standard shape for decode output lengths (many
          short answers, a long tail). *)

val lengths : length_dist -> seed:int -> n:int -> int list
(** [n] per-request token counts, a pure function of (dist, seed, n) —
    the decode serving loop draws prompt and output lengths here so a
    trace is reproducible end to end.  Raises [Invalid_argument] on a
    negative [n], a fixed length < 1, a geometric mean that is not
    finite or is < 1, or a geometric [max_len] < 1. *)

val length_dist_name : length_dist -> string
