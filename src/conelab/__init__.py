"""conelab: singular analysis of conically degenerate operators on model cones.

Computes conormal-symbol pole sets and asymptotics bases, evaluates
Mellin-Sobolev norms on log-radial grids, evolves the heat equation per
cross-section mode against a Bessel series oracle, extracts near-tip
expansions from trajectories, and probes sectoriality / complex-power
domains of the discretized realizations.
"""

__version__ = "0.1.0"

from .cone_geometry import CrossSection, WeightWindow, bessel_order, weight_window
from .symbol_algebra import (ConeOperatorSpec, PoleSet, conormal_symbol, pole_set,
                             pole_set_power, recursive_symbols, taylor_symbols)
from .asymptotics import (AsymptoticsBasis, AsymptoticsTerm, apply_operator_symbolic,
                          domain_membership, enumerate_asymptotics)
from .mellin_sobolev import LogGrid, RadialField, mellin_norm
from .heat_solver import (HeatConfig, HeatTrajectory, assemble_mode_operator,
                          bessel_series_solution, solve_heat)
from .tip_analysis import TipSeries, decomposition_track, fit_tip_series
from .power_calculus import complex_power, power_domain_probe, sectorial_probe
from .operators import OperatorMatrix
