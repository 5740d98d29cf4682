"""Run configuration: one JSON file wires the computational modules together."""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction
from pathlib import Path

from .cone_geometry import SPHERE_DIMENSIONS, CrossSection, weight_window
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
    except (OSError, ValueError) as exc:     # a directory, bytes that are not text, not JSON
        raise ConfigError(f"config {p} is not a readable JSON file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {p} is not a JSON object")
    return cfg


def _value(cfg: dict, path: str, conv, need: str, default=..., ok=lambda v: True):
    """conv of the value at a dotted path like "grid.points", or conv(default) if it is absent.

    A ConfigError names the path of a block that is not an object, a missing
    required key, and a value that conv (TypeError, ValueError, LookupError,
    ArithmeticError) or ok rejects or that converts to a non-finite float.
    A ConfigError that conv raises itself keeps its message behind the path and value.
    """
    *blocks, key = path.split(".")
    for name in blocks:
        cfg = cfg.get(name, {})
        if not isinstance(cfg, dict):
            raise ConfigError(f"config {name!r} must be an object, got {cfg!r}")
    if default is ... and key not in cfg:
        raise ConfigError(f"{'.'.join(blocks) or 'config'} needs {key!r}")
    raw = cfg.get(key, default)
    try:
        v = conv(raw)
        good = ok(v) and not (isinstance(v, float) and not math.isfinite(v))
    except ConfigError as exc:
        raise ConfigError(f"{path} = {raw!r}: {exc}") from None
    except (TypeError, ValueError, LookupError, ArithmeticError):
        good = False
    if not good:
        raise ConfigError(f"{path} must be {need}, got {raw!r}")
    return v


def _whole(v) -> int:
    if float(v).is_integer():           # 33 and 33.0, not 33.7
        return int(float(v))
    raise ValueError(v)


def _rational(v) -> Fraction:
    return Fraction(str(v))


def cross_section_from_config(cfg: dict) -> CrossSection:
    """The cross_section block of cfg; a missing or bad key is a ConfigError naming it."""
    block = cfg.get("cross_section")
    if not isinstance(block, dict):
        raise ConfigError(f"config needs a 'cross_section' object, not {block!r}")
    kind = block.get("kind")
    if kind == "circle":
        if "L_over_pi" in block:
            return _value(cfg, "cross_section.L_over_pi", lambda lop: CrossSection.circle(
                length_over_pi=_rational(lop)), "a rational number")
        if "L" in block:
            return _value(cfg, "cross_section.L", lambda L: CrossSection.circle(length=float(L)),
                          "a finite number")
        raise ConfigError("circle cross-section needs 'L' or 'L_over_pi'")
    if kind == "sphere":
        return CrossSection.sphere(_value(cfg, "cross_section.n", _whole,
                                          "a whole number from 2 to 342",
                                          ok=lambda n: n in SPHERE_DIMENSIONS))
    if kind == "explicit":
        n = _value(cfg, "cross_section.n", _whole, "a whole number", 1)
        volume = _value(cfg, "cross_section.volume", float, "a finite number", 1.0)
        return _value(cfg, "cross_section.eigs",
                      lambda eigs: CrossSection.explicit([(e, m) for e, m in eigs],
                                                         n=n, volume=volume),
                      "a list of [eigenvalue, multiplicity] pairs")
    raise ConfigError(f"unknown cross-section kind {kind!r}")


def max_modes_from_config(cfg: dict) -> int:
    return _value(cfg, "operator.max_modes", _whole, "a whole number >= 1", 3,
                  ok=lambda v: v >= 1)


def operator_from_config(cfg: dict, cs: CrossSection) -> ConeOperatorSpec:
    max_modes = max_modes_from_config(cfg)          # also checks that operator is an object
    preset = cfg.get("operator", {}).get("preset", "laplacian")
    if preset == "laplacian":
        warp = _value(cfg, "operator.warp_a0", lambda w: None if w in (None, 0) else _rational(w),
                      "a rational number", None)
        return ConeOperatorSpec.laplacian(cs, max_modes, warp_a0=warp)
    if preset == "explicit":
        mu = _value(cfg, "operator.mu", _whole, "a whole number")
        modes = cs.mode_table(max_modes)
        coeffs = _value(cfg, "operator.coeffs",
                        lambda table: {m.label: tuple(Poly([_rational(c) for c in poly])
                                                      for poly in table[m.label])
                                       for m in modes},
                        "coefficient lists for the modes " + ", ".join(m.label for m in modes))
        return ConeOperatorSpec(mu=mu, n=cs.n, modes=modes, coeffs=coeffs, n_taylor=_value(
            cfg, "operator.n_taylor", _whole, "a whole number", 0))
    raise ConfigError(f"unknown operator preset {preset!r}")


def grid_from_config(cfg: dict) -> LogGrid:
    return LogGrid(_value(cfg, "grid.tau_min", float, "a finite number", -8.0),
                   _value(cfg, "grid.points", _whole, "a whole number", 513))


def heat_from_config(cfg: dict) -> dict:
    """HeatConfig's T, dt, theta, outer_bc (default dirichlet) and snapshot_every."""
    out = {key: _value(cfg, f"heat.{key}", float, "a finite number", default)
           for key, default in (("T", 0.1), ("dt", 1e-4), ("theta", 0.5))}
    block = cfg.get("heat", {})                     # an object: _value checked it
    return dict(out, outer_bc=block.get("outer_bc", "dirichlet"),
                snapshot_every=block.get("snapshot_every", 0))


def powers_from_config(cfg: dict) -> tuple[complex, float, float, int]:
    """(z, theta, shift0, samples) of the `powers` block; a bad value is a ConfigError naming its key."""
    z = complex(_value(cfg, "powers.z_re", float, "finite", -0.5),
                _value(cfg, "powers.z_im", float, "finite", 0.0))
    theta = _value(cfg, "powers.theta", float, "in [0, pi)", 0.75 * math.pi,
                   ok=lambda v: 0.0 <= v < math.pi)
    shift0 = _value(cfg, "powers.shift0", float, "finite and > 0", 1.0, ok=lambda v: v > 0.0)
    samples = _value(cfg, "powers.samples", _whole, "a whole number >= 1", 200, ok=lambda v: v >= 1)
    return z, theta, shift0, samples


def gamma_from_config(cfg: dict, cs: CrossSection, require_window: bool = False):
    gamma = _value(cfg, "gamma", _rational, "a rational number")
    if require_window:
        win = weight_window(cs)
        if not win.contains(float(gamma)):
            raise ConfigError(f"gamma={float(gamma)} outside the admissible window "
                              f"({win.lo}, {win.hi}) required by the realization")
    return gamma


def output_dir_from_config(cfg: dict) -> str | None:
    return _value(cfg, "output_dir", lambda d: d, "a string", None,
                  ok=lambda d: d is None or isinstance(d, str))


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
