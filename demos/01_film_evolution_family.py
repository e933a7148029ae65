"""Tour of the film-height evolution family.

The same initial bump is evolved under the three pressure balances: gravity
(second order in space), surface tension (fourth order) and plate bending
(sixth order).  Higher-order balances relax the high wavenumbers much more
aggressively; all of them transport mass in divergence form, so the mean
height is conserved to machine precision, and the bending flow dissipates
its curvature energy monotonically.

Run as:  python3 demos/01_film_evolution_family.py
"""
import numpy as np

from lubelastic import PeriodicGrid
from lubelastic import thinfilm as tf

grid = PeriodicGrid(dim=1, n=128)
x = grid.nodes[0]
eta0 = 1.0 + 0.3 * np.sin(2 * np.pi * x) + 0.05 * np.cos(6 * np.pi * x)  # nodal values

settings = {
    1: dict(dt=1e-5, label="gravity balance (porous-medium form)"),
    3: dict(dt=1e-6, label="surface-tension balance"),
    5: dict(dt=1e-7, label="plate-bending balance"),
}

for alpha, cfg in settings.items():
    model = tf.ThinFilmModel(alpha=alpha, v_D=1.0)
    run = tf.evolve(model, grid, eta0, cfg["dt"], 400, snapshot_stride=400)
    final = run.snapshots.eta[-1]  # the snapshots along the leading axis
    mass0 = eta0.mean()
    drift = abs(final.mean() - mass0) / (1 + abs(mass0))
    print(f"alpha={alpha} ({cfg['label']})")
    print(f"  mass drift over 400 steps: {drift:.2e}")
    print(f"  energy: {run.energy[0]:.4f} -> {run.energy[-1]:.4f}")
    print(f"  height range: [{final.min():.4f}, {final.max():.4f}]")

# the linearized sixth-order member decays each mode at exactly c * (2 pi k)^6
c = 1e-6
traj = tf.solve_linear_sixth(c, None, grid, eta0 - eta0.mean(), 0.5, 1e-3, snapshot_stride=500)
amp0 = abs(traj.hat[0, 1])
amp1 = abs(traj.hat[-1, 1])
rate = -np.log(amp1 / amp0) / traj.times[-1]
print(f"\nlinearized mode-1 decay rate {rate:.6f} vs symbol {c * (2 * np.pi) ** 6:.6f}")
