#!/usr/bin/env python3
"""Noise sensitivity of the recovery pipeline.

Sweeps the detector noise level for a compound element (boost composed
with a rotation), averaging over seeds, and prints CSV with the Minkowski
residual level, the parameter error and the round-trip rebuild error.
The reconstruction is linear in the outputs, so both errors should scale
like sigma/I.
"""

import argparse

import numpy as np

import lorentzpol as lp


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--intensity", type=float, default=1.0)
    parser.add_argument("--beta", type=float, default=0.8)
    parser.add_argument("--theta", type=float, default=0.6)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--sigmas", type=float, nargs="+",
                        default=list(np.logspace(-6, -2, 9)))
    args = parser.parse_args()

    element = lp.boost_mueller(3, args.beta) @ lp.rotation_mueller(1, args.theta)
    q_true = lp.recover_q(lp.simulate_measurements(element, args.intensity))

    print("sigma,mean_residual,mean_q_error,mean_rebuild_dev")
    for sigma in args.sigmas:
        residuals, q_errors, rebuilds = [], [], []
        for seed in range(args.repeats):
            ms = lp.simulate_measurements(
                element, args.intensity, lp.NoiseSpec(sigma, seed)
            )
            residuals.append(lp.lorentz_residuals(ms).normalized_max)
            try:
                result = lp.recover_parameters(ms)
            except lp.LorentzpolError:
                continue
            q_errors.append(float(np.abs(result.q - q_true).max()))
            rebuilds.append(result.round_trip_max_dev)
        print(f"{sigma:.3e},{np.mean(residuals):.6e},"
              f"{np.mean(q_errors):.6e},{np.mean(rebuilds):.6e}")


if __name__ == "__main__":
    main()
