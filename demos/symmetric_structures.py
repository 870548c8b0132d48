"""Mirrored inputs and the symmetry they force on every generation.

Appending a row's own reversal yields a palindrome, and the difference
rule maps palindromes to palindromes, so the whole pyramid inherits the
mirror symmetry. That makes symmetric inputs an easy way to grow large,
visually regular triangles from short seeds.
"""

import numpy as np

from diffca import evolve, load_fixture, make_symmetric, render_ascii, serialize_expression


def main() -> None:
    seed = load_fixture("p1")
    print("seed:      ", serialize_expression(seed))
    print("reversed:  ", serialize_expression(seed[::-1]))
    doubled = make_symmetric(seed)
    print("symmetric: ", serialize_expression(doubled))
    assert np.array_equal(doubled, load_fixture("p1-new"))
    print()

    pyramid = evolve(doubled)
    print(render_ascii(pyramid))
    print()

    for t, row in enumerate(pyramid):
        assert np.array_equal(row, row[::-1]), f"row {t} lost its symmetry"
    print(f"all {pyramid.height} rows are palindromes")

    # symmetry survives even when the seed is itself symmetric
    twice = make_symmetric(doubled)
    assert np.array_equal(twice, twice[::-1])
    print("doubling again keeps it:", serialize_expression(twice))


if __name__ == "__main__":
    main()
