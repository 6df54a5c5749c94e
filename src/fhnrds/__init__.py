"""Pathwise simulation and verification of a stochastic FitzHugh-Nagumo
reaction-diffusion system with additive noise on a truncated unbounded
domain: two-sided noise paths, the generated cocycle, pullback attraction
experiments, and quantitative dissipation/absorption/tail diagnostics.
"""

from .cocycle import CocycleInput, FamilySpec, cocycle_check, phi, pullback, sample_family
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .fields import Grid, ScalarField, superlevel_measure
from .model import (
    BlowUpError,
    FhnState,
    Forcing,
    ModelSpec,
    Nonlinearity,
    SolverSpec,
    StructureViolation,
    from_tilde,
    solve,
    to_tilde,
    validate_forcing,
    validate_structure,
)
from .noise import (
    GridAlignmentError,
    NoiseSeed,
    OuProcess,
    WienerPath,
    get_ou,
    stationary_variance,
    temperedness_probe,
    wiener_increment,
)

__version__ = "0.1.0"
