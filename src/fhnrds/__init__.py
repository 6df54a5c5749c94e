"""Pathwise simulation and verification of a stochastic FitzHugh-Nagumo
reaction-diffusion system with additive noise on a truncated unbounded
domain: two-sided noise paths, the generated cocycle, pullback attraction
experiments, and quantitative dissipation/absorption/tail diagnostics.
"""

__version__ = "0.1.0"


class RunError(Exception):
    """An expected failure of a run, which `cli.main` turns into exit code 2
    with `"<kind>: <message>"` in the manifest; each subclass names its
    `kind`.  It lives in the package root, which imports none of the
    modules, so no module imports another for it."""
