"""The three at-the-money regimes.

At the money the maturity exponent of the call price depends on the fine
structure of the model:

* a diffusive component gives sqrt(t) behavior, jumps or not;
* finite-variation pure-jump models stay linear in t;
* stable-like small jumps of index alpha give t**(1/alpha).

Each coefficient is evaluated and then recovered from a simulated
convergence study.
"""

import math

import smalltime as st

S0 = 1.0

# ---- diffusive ---------------------------------------------------------
bs = st.ExpModelCharacteristics(S0, 0.0, 0.2)
res = st.atm_coefficient(bs)
print(f"diffusive: C(t) ~ {res.coefficient:.7f} * sqrt(t)"
      f"   (sigma / sqrt(2 pi) = {0.2 / math.sqrt(2 * math.pi):.7f})")

with_jumps = st.ExpModelCharacteristics(S0, 0.0, 0.2, st.atomic([(0.5, 2.0)]))
print("same coefficient with jumps added:",
      st.atm_coefficient(with_jumps).coefficient == res.coefficient)

cfg = st.SimConfig(n_paths=500_000, master_seed=3)
study = st.slope_study(bs, S0, [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2], 0.5, cfg)
print(f"empirical exponent: {study.exponent:.3f} +- {study.exponent_std_error:.3f}")

# ---- finite-variation pure jump ----------------------------------------
fv = st.ExpModelCharacteristics(S0, 0.0, 0.0, st.atomic([(0.5, 2.0)]))
res = st.atm_coefficient(fv)
print(f"\nfinite variation: C(t) ~ {res.coefficient:.7f} * t"
      f"   (2 (e^0.5 - 1) = {2 * (math.exp(0.5) - 1):.7f})")
est = st.estimate_call(fv, 1e-3, S0, st.SimConfig(n_paths=2_000_000, master_seed=4))
print(f"simulated C(t)/t at t = 1e-3: {est.value / 1e-3:.5f}")

# ---- stable-like small jumps -------------------------------------------
alpha, c0 = 1.5, 0.1
stable = st.ExpModelCharacteristics(S0, 0.0, 0.0, st.stable_like(alpha, c0))
res = st.atm_coefficient(stable)
print(f"\nstable-like (alpha = {alpha}): C(t) ~ {res.coefficient:.7f} * t^(1/alpha)")
print("  the Gamma closed form, Gamma(1 - 1/alpha) c^(1/alpha) / pi:",
      st.stable_positive_part_constant(alpha, c0))

cfg = st.SimConfig(n_paths=1_000_000, master_seed=5,
                   scheme="exact_stable_increment")
study = st.slope_study(stable, S0, [1e-4, 3.16e-4, 1e-3, 3.16e-3, 1e-2],
                       1.0 / alpha, cfg)
print(f"  empirical exponent: {study.exponent:.3f}"
      f" (target {1 / alpha:.3f}),  smallest-t ratio:"
      f" {min(study.rows, key=lambda r: r.t).ratio:.5f}")
