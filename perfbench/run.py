#!/usr/bin/env python3
"""conelab benchmark: one seeded workload per run, measured end to end or traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-heat-tip --seed 1 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``. The program is imported from
``src/`` of the checkout; a run without it exits nonzero and prints no
result. Everything runs in one process on one thread (BLAS threads are
pinned to 1) and writes only under ``.perfbench_work/`` of the checkout,
which is removed at the end.

With ``--trace 0`` the run repeats the workload's operation sequence until
``--seconds`` are used and reports

- ``wall_norm_s``: median time to finish the operation sequence once;
- ``setup_s``: median over cold set-ups (fresh interpreters importing
  numpy, scipy and conelab, making the inputs and warming up);
- ``peak_rss_mb``: peak resident memory of this process.

Both times are in seconds at the reference speed: each repetition and each
set-up is scaled by the machine's speed at that moment, read from a fixed
loop outside the program (``ReferenceLoop``). The raw times and the loop's
readings go to the JSON line before the result.

With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``layer_metric_units`` (medians over the traced
repetitions; 0 where the workload does not exercise the layer), among them
``trace.overhead`` (traced over untraced wall, minus 1) and
``trace.covered_share`` (layer self times over the traced wall).

Output checks run after every repetition, outside the timed region; every
program call and every check counts as one attempted operation. Machine
facts go to a JSON line before the result; the result is the last line.
``--smoke`` runs tiny sizes of the same workload so the benchmark itself can
be tested in seconds.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("CONELAB_OUTDIR", None)   # the CLI would write outside the checkout

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7          # cold set-ups in child processes
MIN_REPEATS = 3          # a warm-up, one untraced and one traced
# workloads.WORKLOADS holds the same names, but arguments are parsed before
# the program (which workloads.py imports) may be imported
WORKLOAD_NAMES = ("cli-heat-tip", "powers", "forced-track")


def import_program():
    """Import conelab from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import conelab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import conelab from {SRC}: {exc}")
    if SRC.resolve() not in Path(conelab.__file__).resolve().parents:
        sys.exit(f"perfbench: conelab imported from {conelab.__file__}, not {SRC}")


def setup(args, workdir: Path):
    """Imports, seeded inputs and warm-up: everything timed as set-up."""
    import numpy as np
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import_program()
    import workloads
    from conelab import _kernels

    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
    one = np.ones((1, 8), complex)
    _kernels.thomas_batch(0 * one, 4 * one, 0 * one, one)   # lazy scipy import
    return wl


def machine_facts() -> dict:
    import numpy as np
    import scipy
    from conelab import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "backend": _kernels.backend_name(),
    }


def setup_probe(args, ref) -> tuple[float, float]:
    """Time one cold set-up in a fresh interpreter; return it with a speed reading."""
    ref0 = ref.seconds()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    ref1 = ref.seconds()
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], 0.5 * (ref0 + ref1)


# -- per-layer metrics ---------------------------------------------------------

SPAN_KEYS = {
    "kernels.thomas_batch": ("calls", "rows", "s"),
    "kernels.evolve_theta": ("calls", "row_steps", "s"),
    "kernels.tridiag_matvec": ("calls", "s"),
    "operators.solve_shifted": ("calls", "s"),
    "operators.inv_norm2_estimate": ("calls", "s"),
    "operators.solve_shifted_batch": ("calls", "rows", "s"),
    "operators.min_abs_eigenvalue_estimate": ("calls", "s"),
    "operators.eigenvalues": ("calls", "max_dim", "s"),
    "power_calculus.dunford_power": ("calls", "nodes", "s"),
    "power_calculus.dunford_apply": ("calls", "nodes", "s"),
    "power_calculus.sectorial_probe": ("calls", "samples", "s"),
    "power_calculus.find_sectorial_shift": ("rungs",),
    "power_calculus.power_domain_probe": ("calls", "s"),
    "heat_solver.step": ("calls", "s"),
    "heat_solver.assemble_mode_operator": ("calls", "s"),
    "heat_solver.solve_heat": ("calls", "mode_steps", "s"),
    "heat_solver.bessel_series_solution": ("calls", "s"),
    "bessel.radial_eigenvalue_roots": ("calls", "s"),
    "bessel.radial_eigenfunction": ("calls", "s"),
    "bessel.besselj": ("calls", "s"),
    "bessel.besselj_derivative": ("calls", "s"),
    "tip_analysis.fit_tip_expansion": ("calls", "s"),
    "tip_analysis.decomposition_track": ("s",),
    "cli.poles": ("s",),
    "cli.asymptotics": ("s",),
    "cli.solve_heat": ("s",),
    "cli.fit_tip": ("s",),
    "cli.norm": ("s",),
    "cli.sectorial_probe": ("s",),
    "cli.powers": ("s",),
    "symbol_algebra.pole_set": ("calls", "s"),
    "symbol_algebra.pole_set_power": ("calls", "s"),
    "asymptotics.enumerate_asymptotics": ("s",),
    "asymptotics.domain_membership": ("calls", "s"),
    "mellin_sobolev.mellin_norm": ("calls", "s"),
}
PER_WORK = {"kernels.thomas_batch": ("us_per_row", "rows"),
            "kernels.evolve_theta": ("us_per_row_step", "row_steps")}
MODULE_TOTALS = ("kernels", "operators", "power_calculus", "heat_solver", "bessel",
                 "tip_analysis", "symbol_algebra", "asymptotics", "cone_geometry",
                 "mellin_sobolev")
ACCURACY = ("heat_solver.oracle_rel_err", "power_calculus.oracle_rel_err",
            "power_calculus.sectorial_K", "power_calculus.tail_bound",
            "tip_analysis.max_condition")
UNITS = {"s": "s", "us_per_row": "us", "us_per_row_step": "us"}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for span, keys in SPAN_KEYS.items():
        for key in keys:
            out[f"{span}.{key}"] = UNITS.get(key, "count")
        if span in PER_WORK:
            out[f"{span}.{PER_WORK[span][0]}"] = "us"
    out["cli.self_s"] = "s"
    out["cli.bytes_written"] = "B"
    out["cli.bytes_read"] = "B"
    for mod in MODULE_TOTALS:
        out[f"{mod}.s"] = "s"
    for name in ACCURACY:
        out[name] = "ratio" if name.endswith("rel_err") else "1"
    out["trace.overhead"] = "ratio"
    out["trace.covered_share"] = "ratio"
    return out


def layer_values(tracer, wall: float, accuracy: dict) -> dict:
    """Per-layer values of one traced repetition (overhead is filled in later)."""
    v = {}
    for span, keys in SPAN_KEYS.items():
        for key in keys:
            v[f"{span}.{key}"] = tracer.get(span, key)
        if span in PER_WORK:
            name, work = PER_WORK[span]
            n = tracer.get(span, work)
            v[f"{span}.{name}"] = 1e6 * tracer.get(span, "s") / n if n else 0.0
    v["cli.self_s"] = tracer.module_seconds("cli")
    v["cli.bytes_written"] = tracer.get("cli.main", "bytes_written")
    v["cli.bytes_read"] = tracer.get("cli.main", "bytes_read")
    for mod in MODULE_TOTALS:
        v[f"{mod}.s"] = tracer.module_seconds(mod)
    for name in ACCURACY:
        v[name] = accuracy.get(name, 0.0)
    v["tip_analysis.max_condition"] = tracer.get("tip_analysis.fit_tip_expansion",
                                                 "max_condition")
    v["trace.overhead"] = 0.0
    v["trace.covered_share"] = tracer.self_seconds() / wall
    return v


# -- the machine's speed --------------------------------------------------------

class ReferenceLoop:
    """Fixed work outside the program, timed just before and after every timed step.

    On a shared host the speed of the whole machine drifts by tens of
    percent within minutes, and a run's median wall time drifts with it: on
    a 2-vCPU VM, five runs of one workload had raw medians 29% apart
    (quartile distance over median) while their scaled medians were 7%
    apart. ``scaled`` multiplies a time by ``SECONDS`` over the loop's time
    read around it, so that the machine's drift is divided out while a
    slower program still reads slower by the same share. The loop does the
    kinds of work the workloads spend their time on (small banded LAPACK
    solves, numpy arithmetic on short and on grid-sized vectors, Python float
    loops) and never calls the program.
    """

    SECONDS = 2.5e-3      # one burst at the reference speed
    BURSTS = 15           # the median of this many bursts is one reading

    def __init__(self):
        import numpy as np
        from scipy.linalg import solve_banded

        rng = np.random.default_rng(0)
        self._np = np
        self._solve = solve_banded
        self._ab = np.empty((3, 33), complex)
        self._ab[0], self._ab[1], self._ab[2] = 0.3, 4.0 + 1.0j, 0.2
        self._b = rng.standard_normal(33) + 0j
        self._v = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        for _ in range(4 * self.BURSTS):
            self._burst()

    def _burst(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(30):
            self._solve((1, 1), self._ab, self._b)
        v = self._v
        for _ in range(40):
            v = 0.5 * (v + v.conj()) + 1e-3 * v[::-1]
        for _ in range(100):
            x = np.zeros(9, complex)
            x += 1.0
            np.abs(x).max()
        acc = 0.0
        for i in range(4000):
            acc += (i * 0.5) % 3.0
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """One reading: the median burst time now."""
        return statistics.median([self._burst() for _ in range(self.BURSTS)])

    @classmethod
    def scaled(cls, timed: list) -> float:
        """Median of (seconds, reading) pairs in seconds at the reference speed."""
        return statistics.median([t * cls.SECONDS / r for t, r in timed]) if timed else 0.0


# -- the measured loop ------------------------------------------------------------

def repeat(wl, ledger, ref, seconds: float, traced_every: int = 0, tracer=None):
    """Run the operation sequence until `seconds` are used; check every output.

    The first repetition warms caches and lazy imports and is not recorded.
    With traced_every = 2 every second repetition after it runs with the
    tracer installed. Returns (untraced [(wall, speed reading)],
    [(traced wall, layer values)]); the reading is the mean of the reference
    loop's readings just before and just after the repetition.
    """
    import workloads

    walls, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        with_trace = traced_every and i % traced_every == 0 and i > 0
        gc.collect()             # start each repetition without the last one's garbage
        ref0 = ref.seconds()
        if with_trace:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = wl.run(ledger)
        except workloads.OpFailed:
            out = None
        finally:
            wall = time.perf_counter() - t0
            if with_trace:
                tracer.uninstall()
        ref1 = ref.seconds()
        i += 1
        if out is not None:
            try:
                accuracy = wl.check(ledger, out)
            except Exception as exc:  # a check that cannot run is a failed check
                ledger.attempted += 1
                ledger.fail(f"check raised {type(exc).__name__}: {exc}")
                accuracy = {}
            if with_trace:
                traced.append((wall, layer_values(tracer, wall, accuracy)))
            elif i > 1:
                walls.append((wall, 0.5 * (ref0 + ref1)))
        elapsed = time.perf_counter() - start
        typical = statistics.median([w for w, _r in walls] or [wall])
        if i >= MIN_REPEATS and elapsed + typical > seconds:
            break
    return walls, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for testing")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = setup(args, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": time.perf_counter() - _T0}))
            return 0
        import spans
        import workloads

        ledger = workloads.Ledger()
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "smoke": args.smoke, "machine": machine_facts()}
        ref = ReferenceLoop()
        if args.trace == 0:
            setups = [setup_probe(args, ref) for _ in range(1 if args.smoke else SETUP_PROBES)]
            walls, _ = repeat(wl, ledger, ref, args.seconds)
            metrics = {
                "wall_norm_s": (ReferenceLoop.scaled(walls), "s"),
                "setup_s": (ReferenceLoop.scaled(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB"),
            }
            info.update(wall_s_all=[w for w, _r in walls],
                        wall_reference_loop_s_all=[r for _w, r in walls],
                        setup_s_all=[t for t, _r in setups],
                        setup_reference_loop_s_all=[r for _t, r in setups])
        else:
            walls, traced = repeat(wl, ledger, ref, args.seconds, traced_every=2,
                                   tracer=spans.Tracer())
            units = layer_metric_units()
            metrics = {name: (statistics.median([v[name] for _w, v in traced])
                              if traced else 0.0, unit)
                       for name, unit in units.items()}
            if walls and traced:
                overhead = (statistics.median([w for w, _v in traced])
                            / statistics.median([w for w, _r in walls]) - 1.0)
                metrics["trace.overhead"] = (overhead, "ratio")
            info.update(wall_s_all=[w for w, _r in walls],
                        traced_wall_s_all=[w for w, _v in traced])
        info["errors"] = ledger.errors
        print(json.dumps(info))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                     # another run still uses it
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
