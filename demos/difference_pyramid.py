"""Walk through the core rule: a row of naturals collapsing to one cell.

Run as a script; everything prints to stdout.
"""

import numpy as np

from diffca import evolve, load_fixture, parse_expression, render_ascii


def main() -> None:
    print("A tiny input, step by step")
    print("--------------------------")
    expr = parse_expression("2-0-1-4")
    pyramid = evolve(expr)
    print(render_ascii(pyramid))
    print()
    print("Each row holds the absolute differences of adjacent cells above,")
    print(f"so {pyramid.base_width} cells take exactly {pyramid.height - 1} "
          "generations to reach a single cell.")
    print()

    print("The 19-cell tour input")
    print("----------------------")
    pyramid = evolve(load_fixture("default-p"))
    print(render_ascii(pyramid))
    print()

    maxima = np.array([int(row.max()) for row in pyramid])
    print("Row maxima never increase:", " ".join(map(str, maxima)))
    assert (np.diff(maxima) <= 0).all()
    print("Largest value anywhere:", int(pyramid[0].max()))
    print()
    print("Capping the generations keeps a partial pyramid:")
    print(render_ascii(evolve(load_fixture("default-p"), max_generations=3)))


if __name__ == "__main__":
    main()
