type t =
  | Constant of float
  | Uniform of float * float
  | Exponential_shifted of float * float

let sample t rng =
  match t with
  | Constant d -> d
  | Uniform (lo, hi) -> Rsmr_sim.Rng.uniform_in rng lo hi
  | Exponential_shifted (base, mean) ->
    base +. Rsmr_sim.Rng.exponential rng ~mean

let lan = Exponential_shifted (1e-4, 1.5e-4)
let wan = Exponential_shifted (20e-3, 5e-3)
