(** Deterministic SplitMix64 pseudo-random generator.

    Every source of randomness in this repository (topology generation,
    Weibull failure probabilities, gravity traffic, class splits,
    emulation jitter) flows through named, seeded instances of this
    generator so that every experiment is reproducible bit-for-bit. *)

type t

val create : int64 -> t
val of_string : string -> t
(** Seed derived from a name (FNV-1a hash); used to give each
    experiment component an independent, stable stream. *)

val split : t -> string -> t
(** Independent child stream identified by a label. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
val int : t -> int -> int
(** Uniform in [0, n). Requires n > 0. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val weibull : t -> shape:float -> scale:float -> float
val exponential : t -> rate:float -> float
val shuffle : t -> 'a array -> unit
val choose : t -> 'a array -> 'a
