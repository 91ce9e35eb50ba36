"""Recovery-efficiency landscape for both protocols.

Writes one CSV with six traces (three resonant depths per protocol) of
epsilon versus the broadening ratio, plus the located optimum of each
trace, and prints a small table of the optima.

Usage: python3 scripts/fig2_sweep.py [--out sweep.csv]
"""

import argparse

import numpy as np

from ramanecho.efficiency import (
    REAFC,
    RECRIB,
    sweep_gamma,
    write_sweep_csv,
)

DEPTHS = (50.0, 200.0, 1000.0)
GAMMA_GRID = np.linspace(0.0, 1.0, 1001)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep.csv")
    args = parser.parse_args()

    traces = {(protocol, depth): sweep_gamma(protocol, depth, GAMMA_GRID)
              for protocol in (RECRIB, REAFC) for depth in DEPTHS}
    optima = write_sweep_csv(args.out, traces.items())
    print(f"{'protocol':>8} {'alpha0L':>8} {'gamma*':>10} {'epsilon*':>10}")
    for (protocol, depth), (gamma_star, eps_star) in optima.items():
        print(f"{protocol:>8} {depth:>8.0f} {gamma_star:>10.6f} "
              f"{eps_star:>10.6f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
