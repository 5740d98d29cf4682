"""Run configuration: one JSON file wires the computational modules together."""

from __future__ import annotations

import json
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
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc


def cross_section_from_config(block: dict) -> CrossSection:
    kind = block.get("kind")
    if kind == "circle":
        if "L_over_pi" in block:
            return CrossSection.circle(length_over_pi=Fraction(str(block["L_over_pi"])))
        if "L" in block:
            return CrossSection.circle(length=float(block["L"]))
        raise ConfigError("circle cross-section needs 'L' or 'L_over_pi'")
    if kind == "sphere":
        return CrossSection.sphere(int(block["n"]))
    if kind == "explicit":
        eigs = [(e, m) for e, m in block["eigs"]]
        return CrossSection.explicit(eigs, n=int(block.get("n", 1)),
                                     volume=float(block.get("volume", 1.0)))
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
