(** Fixed-point virtual-time arithmetic (scaled integer ticks).

    Virtual time is represented as an int count of ticks, [2^shift] ticks
    per virtual-time second. Each session's rate is quantized {e once} to
    an integer ticks-per-bit increment; every subsequent stamp update
    (eqs. 27–29) is exact integer addition, so the scheduler never
    accumulates per-packet rounding the way a float engine does — and
    eligibility tests are exact [<=] with no {!Float_cmp} slack.

    Scale choice: {!shift} trades rate resolution against overflow horizon
    ([2^(62-shift)] vtime-seconds, ~[4.4e12] at 20). The relative rate
    error is up to about [rate / 2^(shift+1)], not [2^-shift]: at shift 20
    it is under 2 ppm only below ~4 bits per vtime-second and 5e-4 at
    1 kb/s, and every rate above ~0.7 Mb/s rounds to 1 tick/bit, so such
    sessions all get the same weight. Rates must be normalized well below
    [2^shift] for the weights to hold; ROADMAP item 12 is the fix.

    Ticks are filed in the float-priority {!Prioq.Indexed_heap4} through
    {!prio} and read back through {!ticks_of_prio}. *)

val shift : int
(** [20]: [2^shift] ticks per virtual-time second. *)

val one : int
(** Ticks per virtual-time second. *)

val ticks_per_bit : rate:float -> int
(** The session's quantized inverse rate, [round(2^shift / rate)], clamped
    to at least 1 tick/bit.
    @raise Invalid_argument if [rate <= 0]. *)

val of_float : float -> int
val to_float : int -> float

val prio : int -> float
(** [prio ticks] reads the 64-bit pattern of [ticks] as an IEEE double —
    a heap priority that orders exactly as the ticks do. For [ticks] in
    [\[0, max_int\]] the pattern has sign bit 0 and lies below the +inf
    pattern [0x7FF0...] (max_int is [0x3FFF...]), so the double is finite
    and nonnegative, never NaN or [-0.]; and nonnegative doubles
    compare ([<], [=]) exactly as their bit patterns do as integers. A
    heap keyed by [prio] therefore keeps exact integer order and the same
    (priority, key) tie rule. Ticks below 2^52 give subnormals, which
    compare exactly too. [float_of_int] would not do: it rounds above
    2^53.

    Precondition: [ticks >= 0] (a negative int reads as a negative double
    or NaN). Stamps S and F start at 0 and only grow. *)

val ticks_of_prio : float -> int
(** The inverse of {!prio}: [ticks_of_prio (prio n) = n] for [n >= 0]. *)
