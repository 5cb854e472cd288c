"""Barnes-Hut N-body simulation of an elliptical galaxy.

Generates the paper's Elliptical particle distribution (angularly uniform
in spherical coordinates with an elliptically scaled radial profile),
computes gravitational accelerations with the hand-written dual-tree
Barnes-Hut code (an expert baseline: vector forces are outside the scalar
DSL), verifies the force error against the exact O(N²) sum, and
integrates a few leapfrog steps while tracking momentum drift.

Run:  python examples/galaxy_simulation.py
"""

import time

import numpy as np

from repro.baselines.brute import brute_forces
from repro.baselines.expert import expert_barnes_hut, leapfrog_step
from repro.data import synthetic
from repro.problems import barnes_hut_potential


def main() -> None:
    n = 8000
    rng = np.random.default_rng(7)
    pos = synthetic.elliptical(n, seed=7)
    mass = rng.uniform(0.5, 2.0, size=n)
    vel = np.zeros_like(pos)

    print(f"elliptical galaxy: {n} particles, total mass {mass.sum():.0f}")

    # --- force accuracy vs theta --------------------------------------------
    exact = brute_forces(pos, mass)
    print("\nmultipole acceptance sweep (force error vs θ):")
    for theta in (0.2, 0.5, 0.8):
        t0 = time.perf_counter()
        acc, stats = expert_barnes_hut(
            pos, mass, theta=theta, return_stats=True
        )
        dt = time.perf_counter() - t0
        err = np.linalg.norm(acc - exact) / np.linalg.norm(exact)
        print(f"  θ={theta}: {dt:.2f}s, rel force err {err:.2e}, "
              f"{stats.approximated} node pairs approximated by "
              f"center-of-mass")

    # --- scalar potential through the Portal DSL ---------------------------
    phi = barnes_hut_potential(pos, mass, theta=0.5)
    print(f"\npotential at densest particle: {phi.max():.1f} "
          f"(DSL FORALL/Σ program with the mac criterion)")

    # --- short integration ---------------------------------------------------
    print("\nleapfrog integration (θ=0.5):")
    p, v = pos, vel
    p0_momentum = (mass[:, None] * v).sum(axis=0)
    for step in range(3):
        p, v = leapfrog_step(p, v, mass, dt=0.002, theta=0.5)
        drift = np.linalg.norm((mass[:, None] * v).sum(axis=0) - p0_momentum)
        scale = np.abs(mass[:, None] * v).sum()  # total momentum magnitude
        span = np.linalg.norm(p, axis=1).max()
        print(f"  step {step + 1}: max radius {span:.2f}, momentum drift "
              f"{drift:.2e} ({100 * drift / scale:.3f}% of |p| — from the "
              f"θ-approximation's force asymmetry)")


if __name__ == "__main__":
    main()
