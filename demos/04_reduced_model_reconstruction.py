"""From the reduced displacement back to an approximate channel flow.

Solving only the sixth-order plate evolution, one can rebuild a full
approximate solution: the pressure is the bending load, the horizontal
velocity is a channel profile driven by the pressure gradient and the
depth-integrated force, and the vertical velocity follows from
incompressibility.  The derivation closes on itself: pushing the
reconstructed velocity through the flux relation reproduces, at every
snapshot, the displacement rate that the reduced equation gives,
-c |xi|^6 eta + F, to roundoff.

Run as:  python3 demos/04_reduced_model_reconstruction.py
"""
import numpy as np

import lubelastic as lb
from lubelastic.reconstruction import LimitFields, solve_reduced

grid = lb.PeriodicGrid(dim=1, n=32)
vnodes = lb.VerticalNodes(20)
model = lb.ModelParams(eps=0.0625, kappa=2, dim=1)
forcing = lb.harmonic_ramp_forcing(grid, vnodes, ramp_time=0.1)

c = model.reduced_coefficient
print(f"reduced coefficient B/(12 nu) = {c:.6f}")

reduced = solve_reduced(model, grid, vnodes, forcing, t_end=0.5, dt=1e-4,
                        snapshot_stride=10)
print(f"reduced trajectory: {len(reduced.times)} snapshots, "
      f"final displacement amplitude {np.max(np.abs(reduced.eta[-1])):.3e}")

# the limit fields depend on B and nu but not on eps: build them once
limit = LimitFields(reduced, model, forcing, vnodes)
closure = limit.closure_error()
print(f"derivation-chain closure error, flux rate against -c|xi|^6 eta + F "
      f"(L2 in time and space): {closure:.2e}")

triple = limit.approx(model)  # scaled to the channel of thickness model.eps
# one array per field kind, the snapshots along the leading axis
v1, v3 = triple.v[0], triple.v[-1]
mid = len(triple.times) // 5  # mid-ramp, while the plate is still inflating
print(f"\nreconstructed triple at t = {triple.times[mid]:.2f} (mid-ramp):")
print(f"  horizontal velocity amplitude {np.max(np.abs(v1[mid])):.3e} "
      f"(carries the eps^2 channel scaling)")
print(f"  vertical velocity amplitude   {np.max(np.abs(v3[mid])):.3e}")
print(f"  pressure amplitude            {np.max(np.abs(triple.p[mid])):.3e}")
print(f"  displacement amplitude        {np.max(np.abs(triple.eta[mid])):.3e} "
      f"(eps^kappa times the reduced one)")

# once the ramp saturates, the bending load exactly balances the
# depth-constant force and the flow stops
print(f"\nat the final time the velocity has died down to "
      f"{np.max(np.abs(v1[-1])):.1e}: the pressure "
      f"{np.max(np.abs(triple.p[-1])):.3f} carries the whole force")

top = np.max(np.abs(v1[mid][..., -1]))
bottom = np.max(np.abs(v1[mid][..., 0]))
print(f"horizontal velocity wall traces: bottom {bottom:.1e}, top {top:.1e}")
