"""Score the classifier across window sizes, delays, and tailoring.

Runs every Boolean function for the standard benchmark rows and prints
the correlation r between measured signals and the ideal outcome count,
plus the distinguishability D (one minus the worst balanced-to-constant
ratio).  Larger windows dilute both scores; equalizing the channel
overlaps with a broadened pump ("tailored") recovers contrast at short
delay.
"""

import time

from carsdj.algorithm import fidelity_table
from carsdj.molecule import build_model


def main() -> None:
    model = build_model()
    start = time.perf_counter()
    table = fidelity_table(model)
    elapsed = time.perf_counter() - start

    print("n   tailored   delay/periods      r        D     r%   D%")
    for m in table:
        print(
            f"{m.n}   {'yes' if m.tailored else 'no ':5s}      "
            f"{m.tau_multiple:4.1f}           {m.r:8.4f} {m.d:8.4f}   "
            f"{m.r_pct:3d}  {m.d_pct:3d}"
        )

    cell = {(m.n, m.tau_multiple, m.tailored): m.d for m in table}
    print("\ntailored gain in D at n = 8:")
    for multiple in (0.0, 1.0, 2.0):
        gain = cell[(8, multiple, True)] - cell[(8, multiple, False)]
        print(f"  {multiple:.0f} periods: {gain:+.4f}")
    runs = sum(2**m.n for m in table)
    print(f"\n{len(table)} rows ({runs} classifier runs) in {elapsed:.2f} s")


if __name__ == "__main__":
    main()
