module Prng = Ascend_util.Prng

type process =
  | Uniform
  | Poisson
  | Bursty of { factor : float; period_s : float }

type t = {
  process : process;
  rate_per_s : float;
  duration_s : float;
  seed : int;
}

(* NaN fails every comparison, and an infinite rate draws zero-length
   interarrivals that never advance the clock: both would hang
   [arrivals], so non-finite values are rejected before the range
   checks *)
let create ?(process = Poisson) ~rate_per_s ~duration_s ~seed () =
  let finite what x =
    if not (Float.is_finite x) then
      invalid_arg ("Load_gen.create: non-finite " ^ what)
  in
  finite "rate" rate_per_s;
  finite "duration" duration_s;
  if rate_per_s <= 0. then invalid_arg "Load_gen.create: non-positive rate";
  if duration_s <= 0. then
    invalid_arg "Load_gen.create: non-positive duration";
  (match process with
  | Bursty { factor; period_s } ->
    finite "bursty factor" factor;
    finite "burst period" period_s;
    if factor < 1. then invalid_arg "Load_gen.create: bursty factor < 1";
    if period_s <= 0. then
      invalid_arg "Load_gen.create: non-positive burst period"
  | Uniform | Poisson -> ());
  { process; rate_per_s; duration_s; seed }

let exponential rng ~rate =
  let u = Prng.float rng ~bound:1. in
  -.log (1. -. u) /. rate

(* accumulate exponential interarrivals on a virtual time axis until
   [horizon]; [remap] projects virtual time to real time (identity for
   plain Poisson) *)
let poisson_times rng ~rate ~horizon ~remap ~duration =
  let rec go t acc =
    let t = t +. exponential rng ~rate in
    if t >= horizon then List.rev acc
    else
      let real = remap t in
      if real >= duration then List.rev acc else go t (real :: acc)
  in
  go 0. []

let arrivals t =
  match t.process with
  | Uniform ->
    let n = int_of_float (ceil (t.rate_per_s *. t.duration_s)) in
    List.init n (fun i -> float_of_int i /. t.rate_per_s)
    |> List.filter (fun x -> x < t.duration_s)
  | Poisson ->
    let rng = Prng.create ~seed:t.seed in
    poisson_times rng ~rate:t.rate_per_s ~horizon:t.duration_s
      ~remap:(fun x -> x) ~duration:t.duration_s
  | Bursty { factor; period_s } ->
    (* the on-phases concatenated form a compressed time axis of total
       length duration/factor; generate Poisson at factor*rate there and
       expand each on-phase back to its real window *)
    let rng = Prng.create ~seed:t.seed in
    let on_len = period_s /. factor in
    let remap u =
      let window = Float.of_int (int_of_float (u /. on_len)) in
      (window *. period_s) +. (u -. (window *. on_len))
    in
    poisson_times rng
      ~rate:(factor *. t.rate_per_s)
      ~horizon:(t.duration_s /. factor)
      ~remap ~duration:t.duration_s

let process_name = function
  | Uniform -> "uniform"
  | Poisson -> "poisson"
  | Bursty _ -> "bursty"

type length_dist =
  | Fixed of int
  | Geometric of { mean : float; max_len : int }

let validate_length_dist = function
  | Fixed n -> if n < 1 then invalid_arg "Load_gen.lengths: fixed length < 1"
  | Geometric { mean; max_len } ->
    if not (Float.is_finite mean) then
      invalid_arg "Load_gen.lengths: geometric mean not finite";
    if mean < 1. then invalid_arg "Load_gen.lengths: geometric mean < 1";
    if max_len < 1 then invalid_arg "Load_gen.lengths: geometric max_len < 1"

(* inversion sampling of the geometric law on {1, 2, ...} with success
   probability p = 1/mean: ceil(ln(1-U) / ln(1-p)); mean 1 degenerates
   to the constant 1 *)
let geometric rng ~mean ~max_len =
  if mean <= 1. then 1
  else
    let p = 1. /. mean in
    let u = Prng.float rng ~bound:1. in
    let k = int_of_float (ceil (log (1. -. u) /. log (1. -. p))) in
    min max_len (max 1 k)

let lengths dist ~seed ~n =
  if n < 0 then invalid_arg "Load_gen.lengths: negative count";
  validate_length_dist dist;
  match dist with
  | Fixed len -> List.init n (fun _ -> len)
  | Geometric { mean; max_len } ->
    let rng = Prng.create ~seed in
    List.init n (fun _ -> geometric rng ~mean ~max_len)

let length_dist_name = function
  | Fixed _ -> "fixed"
  | Geometric _ -> "geometric"
