"""Run configuration: one JSON file wires the computational modules together."""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

from .cone_geometry import CrossSection, weight_window
from .errors import ConfigError
from .mellin_sobolev import LogGrid
from .rational import Poly
from .symbol_algebra import ConeOperatorSpec


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        with open(p) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} is not a JSON object")
    return cfg


def cross_section_from_config(cfg: dict) -> CrossSection:
    """The cross_section block of cfg; a missing or bad key is a ConfigError naming it."""
    block = cfg.get("cross_section")
    if not isinstance(block, dict):
        raise ConfigError("config needs a 'cross_section' object")
    kind = block.get("kind")

    def value(key, conv, default=None):
        if default is None and key not in block:
            raise ConfigError(f"{kind} cross_section needs {key!r}")
        try:
            return conv(block.get(key, default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"cross_section.{key} is malformed: {exc}") from None

    if kind == "circle":
        if "L_over_pi" in block:
            return CrossSection.circle(length_over_pi=value("L_over_pi", lambda v: Fraction(str(v))))
        if "L" in block:
            return CrossSection.circle(length=value("L", float))
        raise ConfigError("circle cross-section needs 'L' or 'L_over_pi'")
    if kind == "sphere":
        return CrossSection.sphere(value("n", int))
    if kind == "explicit":
        n, volume = value("n", int, 1), value("volume", float, 1.0)
        return value("eigs", lambda eigs: CrossSection.explicit([(e, m) for e, m in eigs],
                                                                n=n, volume=volume))
    raise ConfigError(f"unknown cross-section kind {kind!r}")


def operator_from_config(cfg: dict, cs: CrossSection) -> ConeOperatorSpec:
    block = cfg.get("operator", {"preset": "laplacian"})
    max_modes = int(block.get("max_modes", 3))
    preset = block.get("preset", "laplacian")
    if preset == "laplacian":
        warp = block.get("warp_a0")
        warp = Fraction(str(warp)) if warp not in (None, 0, 0.0) else None
        return ConeOperatorSpec.laplacian(cs, max_modes, warp_a0=warp)
    if preset == "explicit":
        mu = int(block["mu"])
        modes = cs.mode_table(max_modes)
        coeffs = {}
        table = block["coeffs"]
        for m in modes:
            if m.label not in table:
                raise ConfigError(f"operator table missing mode {m.label!r}")
            coeffs[m.label] = tuple(Poly([Fraction(str(c)) for c in poly])
                                    for poly in table[m.label])
        return ConeOperatorSpec(mu=mu, n=cs.n, modes=modes, coeffs=coeffs,
                                n_taylor=int(block.get("n_taylor", 0)))
    raise ConfigError(f"unknown operator preset {preset!r}")


def grid_from_config(cfg: dict) -> LogGrid:
    block = cfg.get("grid", {})
    return LogGrid(float(block.get("tau_min", -8.0)), int(block.get("points", 513)))


def powers_from_config(cfg: dict) -> tuple[complex, float, float, int]:
    """(z, theta, shift0, samples) of the `powers` block; a bad value is a ConfigError naming its key."""
    blk = cfg.get("powers", {})

    def value(key, default, ok, need):
        try:
            v = float(blk.get(key, default))
        except (TypeError, ValueError):
            v = math.nan
        if not ok(v):
            raise ConfigError(f"powers.{key} must be {need}, got {blk[key]!r}")
        return v

    z = complex(value("z_re", -0.5, math.isfinite, "finite"),
                value("z_im", 0.0, math.isfinite, "finite"))
    theta = value("theta", 0.75 * math.pi, lambda v: 0.0 <= v < math.pi, "in [0, pi)")
    shift0 = value("shift0", 1.0, lambda v: 0.0 < v < math.inf, "finite and > 0")
    samples = value("samples", 200, lambda v: v >= 1 and v.is_integer(), "a whole number >= 1")
    return z, theta, shift0, int(samples)


def gamma_from_config(cfg: dict, cs: CrossSection, require_window: bool = False):
    if "gamma" not in cfg:
        raise ConfigError("config lacks 'gamma'")
    gamma = Fraction(str(cfg["gamma"]))
    if require_window:
        win = weight_window(cs)
        if not win.contains(float(gamma)):
            raise ConfigError(f"gamma={float(gamma)} outside the admissible window "
                              f"({win.lo}, {win.hi}) required by the realization")
    return gamma


def output_path(out, default_dir=None, name: str = "") -> Path:
    """The file a command writes, its directory created before any work starts.

    It is --out FILE if given, else default_dir/name. With CONELAB_OUTDIR set
    it is CONELAB_OUTDIR/<basename of that file> instead. solve-heat passes
    its --out DIR as default_dir, so its files land in CONELAB_OUTDIR too.
    """
    path = Path(out) if out else Path(default_dir or ".") / name
    override = os.environ.get("CONELAB_OUTDIR")
    if override:
        path = Path(override) / path.name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def fmt(v: float) -> str:
    """17 significant digits: identical configs give byte-identical output."""
    return f"{v:.17g}"
