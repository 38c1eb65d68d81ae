#!/usr/bin/env python3
"""Trace how the optimal projection constant decays along growing subsets.

Draws seeded random spaces, runs the nested-subset profile (basepoint
first, then one point at a time), and records the per-step optimal K
together with the greedy doubling estimate of the ambient space.  The
interesting quantity is the worst K seen along the profile: it stays
bounded while the space grows, and the doubling estimate is the natural
scale to compare it against.

    python3 scripts/asymptotic_experiment.py --min-points 4 --max-points 9 \
        --trials 3 --seed 7 --out profiles.csv
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from krext import FiniteMetricSpace, asymptotic_profile, doubling_estimate


def random_space(rng: np.random.Generator, n: int) -> FiniteMetricSpace:
    while True:
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        off = d[~np.eye(n, dtype=bool)]
        if off.min() > 1e-3:
            return FiniteMetricSpace(
                tuple(f"p{i}" for i in range(n)), d,
                basepoint=int(rng.integers(n)),
            )


def run(min_points: int, max_points: int, trials: int, seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []
    for n in range(min_points, max_points + 1):
        for trial in range(trials):
            space = random_space(rng, n)
            profile = asymptotic_profile(space)
            lam = doubling_estimate(space)
            for entry in profile:
                rows.append({
                    "n_points": n,
                    "trial": trial,
                    "subset_size": entry.size,
                    "k_star": entry.k_star,
                    "max_deviation": max(entry.deviations.values()),
                    "doubling_est": lam,
                })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--min-points", type=int, default=4)
    ap.add_argument("--max-points", type=int, default=9)
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="profiles.csv")
    args = ap.parse_args(argv)
    if not 2 <= args.min_points <= args.max_points:
        print("error: need 2 <= min_points <= max_points", file=sys.stderr)
        return 2
    if args.trials < 1:
        print("error: need at least one trial", file=sys.stderr)
        return 2

    rows = run(args.min_points, args.max_points, args.trials, args.seed)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")

    for n in range(args.min_points, args.max_points + 1):
        worst = max(r["k_star"] for r in rows if r["n_points"] == n)
        lam = max(r["doubling_est"] for r in rows if r["n_points"] == n)
        bars = "#" * int(round(20 * (worst - 1.0)))
        print(f"  n={n}: worst K {worst:.4f}  doubling <= {lam}  |{bars}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
