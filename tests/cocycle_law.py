"""The cocycle composition law of `fhnrds.cocycle.phi`, measured.

Shared by criterion 2 and tests/test_cocycle.py; pytest puts this
directory on sys.path, so they import it as `cocycle_law`.
"""

import numpy as np

from fhnrds.cocycle import CocycleInput, phi
from fhnrds.fields import l2_sq


def cocycle_check(t, s, tau, path, u0_tilde, v0_tilde, spec, solver):
    """Max L2xL2 discrepancy of the composition law at (t, s)."""
    one, _ = phi(CocycleInput(t + s, tau, path, u0_tilde, v0_tilde), spec, solver)
    mid, _ = phi(CocycleInput(s, tau, path, u0_tilde, v0_tilde), spec, solver)
    two, _ = phi(CocycleInput(t, tau + s, path.shift(s), mid[0], mid[1]), spec, solver)
    grid = u0_tilde.grid
    du = one[0].values - two[0].values
    dv = one[1].values - two[1].values
    return float(np.sqrt(l2_sq(du, grid) + l2_sq(dv, grid)))
