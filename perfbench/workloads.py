"""Seeded inputs, command lines and output checks for the four workloads.

Every workload turns a `random.Random` into the argument lists of one round
of `lowdensity.cli.main` calls, writing any model config the round needs.
The generators emit only inputs the library's own rules call sound and
raise `InvalidInput` rather than hand out anything else:

* every (symbols, epsilon) of the pairing workloads passes
  `finite_eps.resolution_warnings` and the Nyquist margin
  delta_e * |centre| / epsilon <= pi/2 computed here;
* symbol time supports clear the CLI's `--separation` rule;
* every Poisson lambda sits on the bin lattice (`poisson_model` raises
  `GridAlignmentError` otherwise);
* no n = 4 pairing sum runs above 64 bins, where `pairing_term_smeared`
  silently coarsens the grid, so a timing would measure a coarser program.

Each check returns the problems it found (empty when the output is right)
and the accuracy the call reached, `err`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from lowdensity.config import model_from_config, symbols_from_config
from lowdensity.finite_eps import resolution_warnings
from lowdensity.spectral import EnergyGrid
from lowdensity.statistics import GridAlignmentError, poisson_model

NYQUIST_MARGIN = math.pi / 2
MAX_N4_BINS = 64  # above this pairing_term_smeared coarsens n = 4 models
SEPARATION = 10.0  # the CLI's default --separation, in mean time widths
MAX_DRAWS = 100
SWEEP_PHI_WIDTH = (0.8, 1.0)  # time widths of the sweep-fine test functions
SWEEP_MAX_REL_ERR = 0.2  # rel_err allowed at the finest eps of sweep-fine
# sweep-fine shell centres in energy.  Shells less than about 0.3 apart can
# converge non-monotonically over eps = 0.2, 0.1, 0.05 at 640 bins, and
# `sweep --assert` demands strictly decreasing rel_err; 0.5 apart keeps
# the error ratio between neighbouring eps above 1.5.
SWEEP_CENTRE_A = (1.2, 1.5)
SWEEP_CENTRE_B = (2.0, 2.2)
INDEPENDENCE_SPACING = 6.5  # time between the independence-far symbols
WN_NAMES = ("a", "b", "c")  # vectors of the wn-order5 configs
WN_BINS = 128
POISSON_E_MAX = 8.0  # lattice of the moments-deep lambdas, passed to poisson
POISSON_BINS = 64
POISSON_ORDERS = 6


class InvalidInput(ValueError):
    """A generated input breaks one of the library's soundness rules."""


@dataclass(frozen=True)
class Call:
    """One `main(argv)` invocation and what its check needs."""

    argv: list
    out: Path
    config: dict | None = None
    config_path: Path | None = None


def _phi_centre(phi: dict) -> float:
    if phi["family"] == "gaussian":
        return phi.get("center", 0.0)
    return 0.5 * (phi["lo"] + phi["hi"])


def _phi_half_width(phi: dict) -> float:
    if phi["family"] == "gaussian":
        return phi.get("width", 1.0)
    return 0.5 * (phi["hi"] - phi["lo"])


def validate_pairing_config(cfg: dict, epsilons, separation: float | None = None) -> None:
    """Raise InvalidInput unless every (symbols, epsilon) is resolved,
    alias-safe, uncoarsened and, when asked, separated."""
    model = model_from_config(cfg)
    symbols = symbols_from_config(cfg, model)
    de = model.grid.delta_e
    if len(symbols) >= 4 and model.grid.bins > MAX_N4_BINS:
        raise InvalidInput(f"n={len(symbols)} above {MAX_N4_BINS} bins is coarsened by the library")
    for eps in epsilons:
        warnings = resolution_warnings(model, symbols, eps)
        if warnings:
            raise InvalidInput("; ".join(warnings))
        for entry in cfg["symbols"]:
            phase = de * abs(_phi_centre(entry["phi"])) / eps
            if phase > NYQUIST_MARGIN:
                raise InvalidInput(f"Nyquist: delta_e*|c|/eps = {phase:.3g} > pi/2 at eps={eps:g}")
    if separation is not None:
        phis = [entry["phi"] for entry in cfg["symbols"]]
        for i, a in enumerate(phis):
            for b in phis[i + 1 :]:
                need = separation * 0.5 * (_phi_half_width(a) + _phi_half_width(b))
                if abs(_phi_centre(a) - _phi_centre(b)) < need:
                    raise InvalidInput(f"symbols closer than {need:.3g} in time")


def validate_lambda(lam: float, grid: EnergyGrid) -> None:
    try:
        poisson_model(lam, grid)
    except GridAlignmentError as exc:
        raise InvalidInput(str(exc)) from exc


def _draw(rng: random.Random, make, validate):
    for _ in range(MAX_DRAWS):
        candidate = make(rng)
        try:
            validate(candidate)
        except InvalidInput:
            continue
        return candidate
    raise InvalidInput(f"no valid input in {MAX_DRAWS} draws")


def _write_config(tmp: Path, stem: str, cfg: dict) -> Path:
    path = tmp / f"{stem}.config.json"
    path.write_text(json.dumps(cfg, sort_keys=True))
    return path


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class SweepFine:
    """`sweep` on n = 3 frequency-shifted symbols, resolved down to eps = 0.05."""

    name = "sweep-fine"
    calls_per_round = 1
    uses_blas = True  # picks the calibration kernel, see run.calibrator
    bins: int = 640
    epsilons: tuple = (0.2, 0.1, 0.05)

    def config(self, rng: random.Random) -> dict:
        shifts = [s for s in range(-3, 4) if s]
        s1, s2 = rng.choice(shifts), rng.choice(shifts)
        while -(s1 + s2) not in shifts:
            s2 = rng.choice(shifts)
        symbols = []
        for (f, g), s in zip([("a", "b"), ("b", "a"), ("a", "a")], [s1, s2, -(s1 + s2)]):
            phi = {"family": "gaussian", "center": rng.uniform(-0.25, 0.25), "width": rng.uniform(*SWEEP_PHI_WIDTH)}
            symbols.append({"f": f, "g": g, "omega_index": s, "phi": phi})
        return {
            "grid": {"e_min": 0.0, "e_max": 4.0, "bins": self.bins},
            "density": {"type": "flat", "value": rng.uniform(0.3, 0.6)},
            "vectors": {
                "a": {"type": "gaussian_shell", "center": rng.uniform(*SWEEP_CENTRE_A), "width": rng.uniform(0.4, 0.5)},
                "b": {"type": "gaussian_shell", "center": rng.uniform(*SWEEP_CENTRE_B), "width": rng.uniform(0.45, 0.55)},
            },
            "symbols": symbols,
        }

    def round(self, rng: random.Random, tmp: Path, stem: str) -> list[Call]:
        cfg = _draw(rng, self.config, lambda c: validate_pairing_config(c, self.epsilons))
        path = _write_config(tmp, stem, cfg)
        out = tmp / f"{stem}.json"
        argv = ["sweep", "--assert", "--config", str(path), "--out", str(out), "--format", "json",
                "--epsilons", ",".join(_fmt(e) for e in self.epsilons)]
        return [Call(argv, out, cfg, path)]

    def check(self, call: Call) -> tuple[list[str], float]:
        rows = json.loads(call.out.read_text())["rows"]
        problems = [f"eps={r['epsilon']}: {w}" for r in rows for w in r["warnings"]]
        if len(rows) != len(self.epsilons):
            problems.append(f"{len(rows)} rows for {len(self.epsilons)} epsilons")
        err = rows[-1]["rel_err"]
        if not err <= SWEEP_MAX_REL_ERR:
            problems.append(f"rel_err {err:.3g} at the finest eps exceeds {SWEEP_MAX_REL_ERR}")
        return problems, err

    def setup_source(self, call: Call) -> str:
        return _SETUP_PAIRING.format(config=str(call.config_path))


@dataclass(frozen=True)
class IndependenceFar:
    """`independence` on three singleton groups far apart in time, with an
    indicator shell so the probe decays like eps instead of sitting at the
    round-off floor."""

    name = "independence-far"
    calls_per_round = 1
    uses_blas = True  # picks the calibration kernel, see run.calibrator
    bins: int = 384
    epsilons: tuple = (0.2, 0.1, 0.05)

    def config(self, rng: random.Random) -> dict:
        symbols = []
        for (f, g), base in zip([("a", "b"), ("b", "a"), ("b", "b")], [-INDEPENDENCE_SPACING, 0.0, INDEPENDENCE_SPACING]):
            phi = {"family": "gaussian", "center": base + rng.uniform(-0.25, 0.25), "width": rng.uniform(0.4, 0.55)}
            symbols.append({"f": f, "g": g, "omega_index": 0, "phi": phi})
        return {
            "grid": {"e_min": 0.0, "e_max": 4.0, "bins": self.bins},
            "density": {"type": "flat", "value": rng.uniform(0.5, 1.5)},
            "vectors": {
                "a": {"type": "gaussian_shell", "center": rng.uniform(1.0, 1.6), "width": rng.uniform(0.3, 0.5)},
                "b": {"type": "indicator", "lo": rng.uniform(0.4, 0.8), "hi": rng.uniform(2.2, 2.8)},
            },
            "symbols": symbols,
        }

    def round(self, rng: random.Random, tmp: Path, stem: str) -> list[Call]:
        cfg = _draw(rng, self.config, lambda c: validate_pairing_config(c, self.epsilons, SEPARATION))
        path = _write_config(tmp, stem, cfg)
        out = tmp / f"{stem}.csv"
        argv = ["independence", "--assert", "--config", str(path), "--out", str(out),
                "--separation", _fmt(SEPARATION), "--epsilons", ",".join(_fmt(e) for e in self.epsilons)]
        return [Call(argv, out, cfg, path)]

    def check(self, call: Call) -> tuple[list[str], float]:
        rows = _csv_rows(call.out.read_text())
        problems = [f"eps={r['epsilon']}: {r['warnings']}" for r in rows if r["warnings"]]
        if len(rows) != len(self.epsilons):
            problems.append(f"{len(rows)} rows for {len(self.epsilons)} epsilons")
        return problems, float(rows[-1]["abs_err"])

    def setup_source(self, call: Call) -> str:
        return _SETUP_PAIRING.format(config=str(call.config_path))


@dataclass(frozen=True)
class WnOrder5:
    """`wn-expect` at k = 5; each round is one full call and one
    `--connected-only` call, each on its own labels."""

    name = "wn-order5"
    calls_per_round = 2
    uses_blas = False  # picks the calibration kernel, see run.calibrator
    k: int = 5

    def config(self, rng: random.Random) -> dict:
        vectors = {
            name: {"type": "gaussian_shell", "center": rng.uniform(0.8, 3.2), "width": rng.uniform(0.3, 0.6)}
            for name in WN_NAMES
        }
        return {
            "grid": {"e_min": 0.0, "e_max": 4.0, "bins": WN_BINS},
            "density": {"type": "flat", "value": rng.uniform(0.5, 1.5)},
            "vectors": vectors,
        }

    def round(self, rng: random.Random, tmp: Path, stem: str) -> list[Call]:
        calls = []
        for j, extra in enumerate(([], ["--connected-only"])):
            cfg = self.config(rng)
            path = _write_config(tmp, f"{stem}-{j}", cfg)
            out = tmp / f"{stem}-{j}.csv"
            pairs = ",".join(f"{rng.choice(WN_NAMES)}:{rng.choice(WN_NAMES)}" for _ in range(self.k))
            argv = ["wn-expect", "--assert", "--config", str(path), "--out", str(out), "--pairs", pairs] + extra
            calls.append(Call(argv, out, cfg, path))
        return calls

    def check(self, call: Call) -> tuple[list[str], float]:
        # --assert already compares the connected value with the spectral
        # chain coefficient; this only checks that the row is there
        rows = _csv_rows(call.out.read_text())
        full = ",".join(str(i) for i in range(1, self.k + 1))
        found = sum(r["partition"] == full for r in rows)
        problems = [] if found == 1 else [f"expected one connected row, found {found}"]
        return problems, math.nan

    def setup_source(self, call: Call) -> str:
        return _SETUP_WN.format(config=str(call.config_path))


def touchard_exact(n: int, lam: float) -> float:
    """sum_k S(n, k) lam^k with Stirling numbers from their own recurrence."""
    row = [1]  # S(0, k)
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < len(row) else 0) + row[k - 1] for k in range(1, m + 1)]
    return math.fsum(s * lam**k for k, s in enumerate(row))


@dataclass(frozen=True)
class MomentsDeep:
    """`poisson --moments 9` on a lambda of the bin lattice."""

    name = "moments-deep"
    calls_per_round = 1
    uses_blas = False  # picks the calibration kernel, see run.calibrator
    moments: int = 9

    def round(self, rng: random.Random, tmp: Path, stem: str) -> list[Call]:
        grid = EnergyGrid(e_max=POISSON_E_MAX, bins=POISSON_BINS)
        lam = _draw(rng, lambda r: r.randint(1, POISSON_BINS) * grid.delta_e, lambda x: validate_lambda(x, grid))
        out = tmp / f"{stem}.csv"
        argv = ["poisson", "--assert", "--moments", str(self.moments), "--orders", str(POISSON_ORDERS),
                "--e-max", _fmt(POISSON_E_MAX), "--grid-bins", str(POISSON_BINS), "--lambda", _fmt(lam),
                "--out", str(out)]
        return [Call(argv, out)]

    def check(self, call: Call) -> tuple[list[str], float]:
        rows = _csv_rows(call.out.read_text())
        lams = [float(x) for x in call.argv[call.argv.index("--lambda") + 1].split(",")]
        moments = [r for r in rows if r["kind"] == "moment"]
        problems = []
        if len(moments) != self.moments * len(lams):
            problems.append(f"{len(moments)} moment rows for {len(lams)} lambdas")
        err = 0.0
        for r in moments:
            target = touchard_exact(int(r["order"]), float(r["lam"]))
            err = max(err, abs(float(r["value_re"]) - target) / max(1.0, abs(target)))
        if err > 1e-12:
            problems.append(f"moments deviate from Touchard values by {err:.3g}")
        return problems, err

    def setup_source(self, call: Call) -> str:
        lams = call.argv[call.argv.index("--lambda") + 1]
        return _SETUP_POISSON.format(lams=lams, e_max=POISSON_E_MAX, bins=POISSON_BINS)


# Set-up scripts run in a fresh interpreter with the checkout's src on
# PYTHONPATH; each prints the seconds from before `import lowdensity` to a
# built model and symbol list.
_SETUP_HEAD = """\
import time
t0 = time.perf_counter()
import lowdensity
"""
_SETUP_PAIRING = _SETUP_HEAD + """\
from lowdensity.config import load_config, model_from_config, symbols_from_config
cfg = load_config({config!r})
model = model_from_config(cfg)
symbols = symbols_from_config(cfg, model)
print(repr(time.perf_counter() - t0))
"""
_SETUP_WN = _SETUP_HEAD + """\
from lowdensity.config import load_config, model_from_config
model = model_from_config(load_config({config!r}))
print(repr(time.perf_counter() - t0))
"""
_SETUP_POISSON = _SETUP_HEAD + """\
from lowdensity.spectral import EnergyGrid
from lowdensity.statistics import poisson_model
grid = EnergyGrid(e_max={e_max!r}, bins={bins!r})
models = [poisson_model(float(x), grid) for x in {lams!r}.split(",")]
print(repr(time.perf_counter() - t0))
"""

WORKLOADS = {w.name: w for w in (SweepFine(), IndependenceFar(), WnOrder5(), MomentsDeep())}
