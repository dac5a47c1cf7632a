(** Fixed-point virtual-time arithmetic (scaled integer ticks).

    Virtual time is represented as an int count of ticks, [2^shift] ticks
    per virtual-time second. Each session's rate is quantized {e once} to
    an integer ticks-per-bit increment; every subsequent stamp update
    (eqs. 27–29) is exact integer addition, so the scheduler never
    accumulates per-packet rounding the way a float engine does — and
    eligibility tests are exact [<=] with no {!Float_cmp} slack.

    Scale choice: [shift] trades rate resolution against overflow horizon
    ([2^(62-shift)] vtime-seconds, ~[4.4e12] at the default 20). The
    relative rate error is up to about [rate / 2^(shift+1)], not
    [2^-shift]: at shift 20 it is under 2 ppm only below ~4 bits per
    vtime-second and 5e-4 at 1 kb/s, and every rate above ~0.7 Mb/s
    rounds to 1 tick/bit, so such sessions all get the same weight.
    Rates must be normalized well below [2^shift] for the weights to
    hold; ROADMAP item 12 is the fix. *)

val default_shift : int

val one : shift:int -> int
(** Ticks per virtual-time second. *)

val ticks_per_bit : shift:int -> rate:float -> int
(** The session's quantized inverse rate, [round(2^shift / rate)], clamped
    to at least 1 tick/bit.
    @raise Invalid_argument if [rate <= 0]. *)

val of_float : shift:int -> float -> int
val to_float : shift:int -> int -> float
