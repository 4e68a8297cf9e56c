#!/usr/bin/env python3
"""Long-range assumption checks on the model covariance of one medium spec.

Builds the spec, then compares its closed-form slab covariance with the
moderate-lag power-law form (A2) and fits the short-lag integrability
bound (A3).  Exit status: 0 both pass, 2 a check fails, 1 the grid or the
truncation leaves nothing to check.
"""
import argparse
import sys

from lrwave import (DomainError, MediumSpec, check_a2, check_a3,
                    constant_profile, truncation)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=0.1)
    parser.add_argument("--gamma", type=float, default=0.8)
    parser.add_argument("--truncation", default="identity")
    parser.add_argument("--delta", type=float, default=0.3)
    args = parser.parse_args()

    spec = MediumSpec(epsilon=args.epsilon,
                      gamma_profile=constant_profile(args.gamma),
                      truncation=truncation(args.truncation))
    try:
        a2 = check_a2(spec, delta=args.delta)
        a3 = check_a3(spec)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"moderate-lag power law: {a2.status}"
          f" (max rel dev {a2.max_rel_dev:.3f}, delta {args.delta})")
    for row in a2.rows:
        print("  window %s lag %4d: exact %.4f target %.4f" % row[:4])
    print(f"short-lag integrability: {a3.status}"
          f" (fitted exponent {a3.gamma_rho:.3f}, C {a3.c_rho:.3f}, "
          f"violations {a3.violations})")
    return 0 if a2.status == "pass" and a3.status == "pass" else 2


if __name__ == "__main__":
    sys.exit(main())
