"""Stationary pressure in a sliding bearing gap.

A rigid wall slides at speed v_D under a fixed periodic gap profile.  The
classical flux balance determines the pressure up to its mean; narrower gaps
carry steeper pressure gradients (the cubic mobility), which is what makes
slider bearings carry load.  The solve here is closed form: integrate the
flux identity once, fix the constant by periodicity, antidifferentiate
spectrally.

Run as:  python3 demos/02_sliding_bearing_pressure.py
"""
import numpy as np

from lubelastic import PeriodicGrid
from lubelastic import thinfilm as tf
from lubelastic.artifacts import write_csv, write_grid

grid = PeriodicGrid(dim=1, n=256)
x = grid.nodes[0]

for amp in (0.2, 0.5, 0.8):
    eta = 1.0 + amp * np.sin(2 * np.pi * x)  # the gap's nodal values
    p = tf.solve_reynolds_stationary(grid, eta, v_D=1.0, nu=1.0)
    residual = tf.reynolds_residual(grid, eta, p, v_D=1.0, nu=1.0)
    # the load metric: peak-to-peak pressure swing
    swing = p.max() - p.min()
    print(f"gap amplitude {amp:3.1f}: pressure swing {swing:8.3f}, "
          f"strong-form residual {residual:.2e}")

eta = 1.0 + 0.5 * np.sin(2 * np.pi * x)
p = tf.solve_reynolds_stationary(grid, eta, v_D=1.0, nu=1.0)
write_csv("bearing_pressure.csv", ["value"], [p])
write_grid(".", grid)
print("\nwrote bearing_pressure.csv: the pressure under the 0.5-amplitude gap, "
      "one value per node in the order of grid.csv")
print("wrote grid.csv: the coordinate x of each node, one row per node")
print("doubling the sliding speed doubles the pressure:",
      np.allclose(tf.solve_reynolds_stationary(grid, eta, v_D=2.0), 2.0 * p))
