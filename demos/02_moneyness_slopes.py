"""Out-of- and in-the-money call slopes at short maturity.

Away from the money the call price is linear in time to maturity and the
slope is a payoff integral of the jump compensator, equal to the spot times
an exponential double tail. Both routes are computed and compared, then the
slope is recovered empirically from simulated prices.
"""

import math

import smalltime as st

model = st.ExpModelCharacteristics(
    S0=1.0, r=0.0, sigma=0.2, jumps=st.normal_jumps(1.0, 0.0, 0.4))

# ---- OTM: strike above spot ------------------------------------------
K = 1.2
res = st.otm_slope(model, K)
print(f"OTM strike {K}: C(t) ~ a t with a = {res.coefficient:.8f}")
print("  payoff-integral route:", res.diagnostics["payoff_form"])
print("  double-tail route:    ", res.diagnostics["tail_form"])
print("  route gap:            ", res.diagnostics["route_gap"])

cfg = st.SimConfig(n_paths=2_000_000, master_seed=2)
print("\n  t        C(t)/t       std err")
for t in (0.03, 0.01, 0.003, 0.001):
    est = st.estimate_call(model, t, K, cfg)
    print(f"  {t:6.3f}  {est.value / t:.6f}   {est.std_error / t:.6f}")
print("  -> the ratio approaches a as t -> 0")

# ---- ITM: strike below spot ------------------------------------------
model_r = st.ExpModelCharacteristics(
    S0=1.0, r=0.05, sigma=0.2, jumps=st.atomic([(-0.5, 3.0)]))
K = 0.8
res = st.itm_slope(model_r, K)
print(f"\nITM strike {K}: C(t) ~ (S0 - K) + a t")
print("  intrinsic value:", res.constant_term)
print("  slope of the discounted call (r K + S0 tail):", res.coefficient)

# sanity: the lower double tail behind the ITM slope
z = math.log(K / model_r.S0)
psi = st.exp_double_tail_down(model_r.jumps, z)
print("  lower exponential double tail at ln(K/S0):", psi)
