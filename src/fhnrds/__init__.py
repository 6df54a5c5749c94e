"""Pathwise simulation and verification of a stochastic FitzHugh-Nagumo
reaction-diffusion system with additive noise on a truncated unbounded
domain: two-sided noise paths, the generated cocycle, pullback attraction
experiments, and quantitative dissipation/absorption/tail diagnostics.
"""

__version__ = "0.1.0"
