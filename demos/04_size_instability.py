"""Asymptotic size of the classic Pearson and G tests under sparse cells.

For a 2x2 table whose off-diagonal cell probabilities shrink like
lambda / n, the classic chi-squared calibration breaks down: as n grows the
statistic converges to a discrete functional of a Poisson(lambda^2) count,
not to a chi-squared law.  The resulting asymptotic size oscillates wildly
in lambda instead of settling at the nominal alpha.  This script prints the
worst size over a lambda grid for both tests at two nominal levels, locates
the jump discontinuities, and optionally writes the full curves to CSV.

Run:  python3 demos/04_size_instability.py [--points 500] [--out DIR]
"""

import argparse
import os

import numpy as np

from usptest import chi2_quantile, size_curve, size_curve_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=500, help="lambda grid size")
    parser.add_argument("--out", metavar="DIR", default=None)
    args = parser.parse_args()

    grid = np.linspace(0.05, 5.0, args.points)
    for alpha in (0.05, 0.01):
        c = chi2_quantile(1.0 - alpha, 1)
        print(f"\nnominal level alpha = {alpha} (critical value {c:.4f})")
        for test in ("pearson", "g"):
            points = size_curve(test, alpha, grid)
            sizes = np.array([pt.asymptotic_size for pt in points])
            worst = grid[int(sizes.argmax())]
            print(
                f"  {test:<7}: max asymptotic size {sizes.max():.4f} "
                f"at lambda = {worst:.3f}, min {sizes.min():.4f}"
            )
            if args.out is not None:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"asymsize_{test}_alpha{alpha:g}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(size_curve_csv(points))
        print(
            f"  jump landmarks: Pearson at lambda = sqrt(c) = {np.sqrt(c):.4f}, "
            f"G at lambda = sqrt(c/2) = {np.sqrt(c / 2):.4f}"
        )
    print(
        "\nBoth classic tests can exceed several times the nominal level, which"
        "\nis why the permutation versions (and the USP test) are preferable"
        "\nwhen some expected frequencies are small."
    )


if __name__ == "__main__":
    main()
