"""The phase-chain analysis behind the cyclic rule's mixing bound.

A sweep of the cyclic rule is split into phases that either close the gap
between coupled copies (C), fail and retry (F), or succeed for good (S).
The script prints the limiting 3x3 phase matrix, its controlling
eigenvalue as a function of the window fraction epsilon, the optimal
window, the gap-closing recursion check, and the resulting k-card bound.
Writes the eigenvalue scan to eigenvalue_scan.csv.
"""

import numpy as np

from shufflemix import (
    block_spectrum,
    cyclic_mixing_upper,
    fit_cyclic_bound_constant,
    optimize_epsilon,
    p_recursion,
    per_step_rate,
    phase_matrix_limit,
    scan_epsilon,
    tau_hat_moments,
)
from shufflemix.exact import write_csv

STATES = ("C", "F", "S")


def main():
    chain = phase_matrix_limit(0.442, 0.0)
    print("limit phase matrix at epsilon = 0.442 (rows from, columns to)")
    print("        " + "".join(f"{s:>9s}" for s in STATES))
    for a in STATES:
        print(f"   {a}  " + "".join(f"{chain.entry(a, b):9.4f}" for b in STATES))
    spec = block_spectrum(chain)
    print(f"controlling eigenvalue: {spec.lam_max:.6f}"
          f" (other block eigenvalue {spec.lam_min:.6f})")

    eps, lams = scan_epsilon()
    write_csv("eigenvalue_scan.csv", "epsilon,lambda2", zip(eps, lams))
    print("\n  epsilon   lambda2   per-step rate")
    for e in (0.10, 0.20, 0.30, 0.40, 0.442, 0.49):
        lam = lams[np.argmin(np.abs(eps - e))]
        print(f"   {e:5.3f}   {lam:.5f}     {per_step_rate(e):.5f}")
    opt = optimize_epsilon(0.0)
    print(f"optimal window fraction {opt.epsilon:.4f},"
          f" eigenvalue {opt.lam:.4f} (scan -> eigenvalue_scan.csv)")

    sweep = p_recursion(0.442, 1000)
    print(f"\ngap-closing recursion at n = 1000: p0 = {sweep.p0:.6f},"
          f" closed-form gaps {sweep.midrange_max_gap:.1e} (mid-range)"
          f" and {sweep.p0_gap:.1e} (p0)")

    tau = tau_hat_moments(10_000)
    print(f"touch time at n = 10000: mean/n = {tau.mean / 10_000:.4f},"
          f" sd/n = {np.sqrt(tau.variance) / 10_000:.4f}")

    c = fit_cyclic_bound_constant(n=60)
    print(f"\nfitted bound constant c = {c:.3f} at n = 60")
    print("   k   bound on t_mix(1/4)   0.5006 n log k + 1.5 n")
    for k in (2, 4, 8):
        res = cyclic_mixing_upper(1000, k, c)
        smooth = 0.5006 * 1000 * (np.log(k) + 1.5 + np.log(c))
        print(f"   {k}   {res.t:8d}             {smooth:8.0f}")


if __name__ == "__main__":
    main()
