"""One coupled run: Stokes flow in a thin channel under a bending plate.

The channel has relative thickness eps and is driven by a single-harmonic
horizontal volume force with a smooth ramp.  The solver works per horizontal
wavenumber on the fixed reference channel, in the slow time scale matched to
the plate rigidity (tau = kappa - 3), and its backward-Euler step satisfies
a discrete energy identity exactly: stored energy plus accumulated
dissipation equals the accumulated work of the force, up to roundoff, with
the backward-Euler remainder showing up as a nonnegative numerical
dissipation.

Run as:  python3 demos/03_plate_channel_coupling.py
"""
import numpy as np

import lubelastic as lb
from lubelastic.verify import energy_audit

grid = lb.PeriodicGrid(dim=1, n=32)
vnodes = lb.VerticalNodes(20)
model = lb.ModelParams(eps=0.125, kappa=2, theta=1.0, dim=1)
print(f"thickness eps = {model.eps}, rigidity exponent kappa = {model.kappa}, "
      f"time-scale exponent tau = {model.tau}")

forcing = lb.harmonic_ramp_forcing(grid, vnodes, amplitude=1.0, wavevector=(1,),
                                   ramp_time=0.1)
params = lb.FsiParams(model=model, grid=grid, vnodes=vnodes, dt=5e-4, forcing=forcing)
traj = lb.run_fsi(params, t_end=0.5, snapshot_stride=100)

led = traj.ledger
print(f"\nafter {len(led)} steps:")
print(f"  fluid kinetic energy  {led.fluid_kinetic[-1]:.3e}")
print(f"  plate kinetic energy  {led.plate_kinetic[-1]:.3e}")
print(f"  bending energy        {led.bending[-1]:.3e}")
print(f"  viscous dissipation   {led.viscous_dissipation[-1]:.3e}")
print(f"  work of forcing       {led.work[-1]:.3e}")
print(f"  identity residual     {np.max(np.abs(led.identity_residual())):.3e}")

audit = energy_audit(traj.ledger, params)
print(f"\nenergy audit: {'pass' if audit.ok else 'FAIL'}; "
      f"lhs/(t_phys * eps^3) at the end: {audit.ratios[-1]:.4e}")

found = lb.fsi.check_invariants(params, traj.times, traj.v, traj.eta, traj.eta_t)
print(f"invariants hold at all {len(traj.times)} snapshots (scaled divergence, "
      "kinematic trace, zero-mean plate)")
print(f"largest kinematic trace gap: {np.max(found['kinematic_gap']):.3e}")
print(f"plate deflection amplitude: {np.max(np.abs(traj.eta[-1])):.3e}")

led.to_csv("energy_ledger.csv")
print("\nwrote energy_ledger.csv (per-step energies, dissipation, work)")
