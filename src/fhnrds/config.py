"""Flat key-value experiment configuration.

Format: one `section.key = value` per line, `#` comments, decimal text
numbers; comma-separated numeric lists for schedules.  Unknown keys are
rejected so typos cannot silently fall back to defaults.  Loading a config
eagerly revalidates the schedules, the coefficients, the family's
temperedness and the nonlinearity structure, so an invalid model never
reaches a solver.  The forcing history quadrature walks the whole horizon,
so it is not part of loading: `check_forcing` runs it for the subcommands
that integrate the forcing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .cocycle import FamilySpec
from .fields import Grid, ScalarField, bump_field
from .model import (
    Forcing,
    ModelSpec,
    Nonlinearity,
    SolverSpec,
    validate_forcing,
    validate_structure,
)


class ConfigError(ValueError):
    pass


def _num_list(text):
    return tuple(float(x) for x in str(text).split(","))


def _flag(text):
    word = str(text).lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


# key -> (parser, default)
DEFAULTS = {
    "seed": (int, 42),
    "model.lambda": (float, 1.0),
    "model.alpha": (float, 1.0),
    "model.beta": (float, 1.0),
    "model.sigma": (float, 1.0),
    "model.p": (float, 4.0),
    "model.alpha1": (float, 0.0625),
    "model.alpha2": (float, 1.0),
    "model.alpha3": (float, 1.0),
    "model.f.sign": (float, -1.0),
    "grid.dim": (int, 1),
    "grid.half_width": (float, 32.0),
    "grid.n": (int, 1024),
    "grid.boundary": (str, "dirichlet0"),
    "solver.dt": (float, 1e-3),
    "solver.snapshot_stride": (int, 2000),
    "noise.enabled": (_flag, True),
    "noise.h1.amplitude": (float, 1.0),
    "noise.h1.width": (float, 8.0),
    "noise.h2.amplitude": (float, 1.0),
    "noise.h2.width": (float, 8.0),
    "forcing.g.amplitude": (float, 0.25),
    "forcing.g.width": (float, 8.0),
    "forcing.g.kind": (str, "sin"),
    "forcing.g.a": (float, 1.0),
    "forcing.g.c": (float, 0.0),
    "forcing.h.amplitude": (float, 0.25),
    "forcing.h.width": (float, 8.0),
    "forcing.h.kind": (str, "sin"),
    "forcing.h.a": (float, 1.0),
    "forcing.h.c": (float, 0.0),
    "family.base_radius": (float, 5e-5),
    "family.gamma_fraction": (float, 0.4),  # growth rate = fraction * delta
    "family.sample_count": (int, 2),
    "schedules.t": (_num_list, (2.0, 4.0, 8.0, 16.0, 32.0)),
    "schedules.M": (_num_list, (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)),
    "experiment.tau": (float, 0.0),
    "experiment.horizon": (float, 40.0),
    "experiment.seed_count": (int, 10),
    "experiment.energy_seed_count": (int, 20),
    "tolerances.energy_abs": (float, 1e-8),
    "tolerances.energy_rel": (float, 1e-2),
    "tolerances.defect": (float, 1e-3),
    "tolerances.eta": (float, 1e-3),
}


def parse_config_text(text):
    """Raw text -> {key: parsed value}; parse errors carry the line number."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _parse(key, val)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc
    return values


def _parse(key, text):
    """The value of `key` in `text`, by the key's parser."""
    try:
        return DEFAULTS[key][0](text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved configuration: defaults applied, everything validated
    except the forcing history, which `check_forcing` checks."""

    values: tuple  # sorted (key, value) pairs

    def __getitem__(self, key):
        return dict(self.values)[key]

    @property
    def seed(self):
        return self["seed"]

    @property
    def config_hash(self):
        text = "\n".join(f"{k} = {v}" for k, v in self.values)
        return hashlib.sha256(text.encode()).hexdigest()

    def grid(self):
        return Grid(
            dim=self["grid.dim"],
            half_width=self["grid.half_width"],
            n=self["grid.n"],
            boundary=self["grid.boundary"],
        )

    def model_spec(self):
        grid = self.grid()
        nonlin = Nonlinearity(self["model.p"], sign=self["model.f.sign"])

        def profile(prefix):
            amp = self[prefix + ".amplitude"]
            if amp == 0.0:
                return ScalarField.zeros(grid)
            return bump_field(grid, width=self[prefix + ".width"], amplitude=amp)

        if self["noise.enabled"]:
            h1 = profile("noise.h1")
            h2 = profile("noise.h2")
        else:
            h1 = ScalarField.zeros(grid)
            h2 = ScalarField.zeros(grid)

        def forcing(prefix):
            prof = profile(prefix)
            return Forcing(prof, self[prefix + ".kind"], self[prefix + ".a"], self[prefix + ".c"])

        return ModelSpec(
            lam=self["model.lambda"],
            alpha=self["model.alpha"],
            beta=self["model.beta"],
            sigma=self["model.sigma"],
            alpha1=self["model.alpha1"],
            alpha2=self["model.alpha2"],
            alpha3=self["model.alpha3"],
            nonlin=nonlin,
            h1=h1,
            h2=h2,
            g=forcing("forcing.g"),
            h=forcing("forcing.h"),
            grid=grid,
        )

    def solver_spec(self):
        return SolverSpec(dt=self["solver.dt"])

    def family_spec(self, delta):
        return FamilySpec(
            base_radius=self["family.base_radius"],
            growth_rate=self["family.gamma_fraction"] * delta,
            sample_count=self["family.sample_count"],
            delta=delta,
        )

    def t_schedule(self):
        return list(self["schedules.t"])

    def M_schedule(self):
        return list(self["schedules.M"])


def resolve(values):
    """Apply defaults, build the frozen config, run the eager validators."""
    resolved = {k: values.get(k, default) for k, (_, default) in DEFAULTS.items()}
    extra = set(values) - set(DEFAULTS)
    if extra:
        raise ConfigError(f"unknown keys: {sorted(extra)}")
    M, ts = resolved["schedules.M"], resolved["schedules.t"]
    if min(M) <= 0 or any(b <= a for a, b in zip(M, M[1:])):
        raise ConfigError(f"schedules.M must be positive and strictly increasing, got {list(M)}")
    if min(ts) < 0:
        raise ConfigError(f"schedules.t must be nonnegative elapsed times, got {list(ts)}")
    cfg = ExperimentConfig(tuple(sorted(resolved.items())))
    spec = cfg.model_spec()  # coefficient positivity + p > 2 checks
    cfg.family_spec(spec.delta)  # the family must be tempered
    validate_structure(spec)
    return cfg


def check_forcing(cfg):
    """Raise ConfigError unless the forcing g, h is tempered: the history
    integral of e^{delta (s - tau)} (|g(s)|^2 + |h(s)|^2) must converge
    over `experiment.horizon`.  It enters the absorbing radius, so every
    subcommand that integrates the forcing needs it; `noise` does not.
    """
    total, converged = validate_forcing(
        cfg.model_spec(), cfg["experiment.tau"], cfg["experiment.horizon"], cfg["solver.dt"]
    )
    if not converged:
        raise ConfigError(
            f"forcing history quadrature not converged over horizon "
            f"{cfg['experiment.horizon']} (total {total:.3e})"
        )


def read_config(path):
    """The key/value pairs of a config file, parsed but not resolved."""
    with open(path) as fh:
        return parse_config_text(fh.read())


def load_config(path):
    return resolve(read_config(path))


def default_config(**overrides):
    """Programmatic config; overrides use the flat dotted keys."""
    values = {}
    for key, val in overrides.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        values[key] = _parse(key, val) if isinstance(val, str) else val
    return resolve(values)
