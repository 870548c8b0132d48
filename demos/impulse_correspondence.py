"""Why a lone 1 draws the same triangle in both automata.

On 0/1 rows the absolute difference is XOR, so the shrinking pyramid of
an impulse input carries binomial parity: cell i of generation t reads
C(t, j0 - i) mod 2. Rule 90 computes XOR of the outer neighbors on a
fixed-width row, which lays the same parity pattern out on alternating
columns. This script checks both claims numerically and writes the
bitmap of the pyramid side.
"""

import numpy as np

from diffca import (
    eca_evolve,
    evolve,
    highlight_pyramid,
    impulse_agreement,
    load_fixture,
    parse_expression,
    pascal_mod2,
    render_pbm,
)


def main() -> None:
    a1 = load_fixture("a1")
    j0 = int(np.flatnonzero(a1)[0])
    print(f"input: {len(a1)} cells, impulse at {j0}")

    pyramid = evolve(a1)
    ones = highlight_pyramid(pyramid, parse_expression("1-"))
    direct, complement = impulse_agreement(ones, j0)
    print(f"ones-mask vs binomial parity, whole cone: {direct:.6f}")

    zeros = highlight_pyramid(pyramid, parse_expression("0-"))
    direct, complement = impulse_agreement(zeros, j0)
    print(f"zeros-mask vs parity complement:          {complement:.6f}")

    # the rule-90 side, checked column by column while the cone is clear
    # of the row ends: pyramid cell k of generation t lands on column
    # j0 - t + 2k
    diagram = eca_evolve(a1, 90, len(a1) - 1)
    depth = min(j0, len(a1) - 1 - j0)
    mismatches = 0
    for t in range(depth + 1):
        for k in range(t + 1):
            left = int(ones[t][j0 - t + k])
            right = int(diagram.rows[t, j0 - t + 2 * k])
            if left != right or left != pascal_mod2(t, k):
                mismatches += 1
    print(f"cells compared to depth {depth}: "
          f"{(depth + 1) * (depth + 2) // 2}, mismatches: {mismatches}")

    path = "a1_parity.pbm"
    with open(path, "wb") as f:
        f.write(render_pbm(ones))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
