"""Command line front end.

Every subcommand prints a short human summary to stdout and returns its
table (row dicts or a ConvergenceReport), its own metadata and the messages
of its headline claims that failed.  `main` alone writes the table and the
.meta.json sidecar (with --out), then sets the exit status: 0 on success,
1 for configuration or usage errors and for a result that overflows a
float, 2 when --assert finds a failed claim, which is reported after the
outputs are written.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache
from math import comb, factorial, isfinite, isnan, ulp

import numpy as np

from . import __version__
from .config import ConfigError, default_config, load_config, model_from_config, symbol_entries, symbols_from_config, test_function_from_config
from .finite_eps import convergence_sweep, delta_lemma_check
from .partitions import MAX_ENUM_PARTITION, _check_arity, bell, classify, enumerate_pair_diagrams, surviving_diagram, touchard
from .report import ConvergenceReport, write_sidecar, write_table
from .spectral import TWO_PI, EnergyGrid, free_moment, limit_truncated_coefficient, limit_truncated_smeared, rank_one_kernel
from .statistics import independence_probe, poisson_cumulants, poisson_moments
from .symbols import FrequencyIndex, NumberSymbol, TestFunction
from .white_noise import evaluate_symbolic, vacuum_expectation


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1; exit 2 is reserved for --assert failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}") from None


def _finite_float(text: str) -> float:
    """A number that is neither NaN nor infinite: a NaN turns off every
    comparison a check makes with it."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not isfinite(value):
        raise argparse.ArgumentTypeError(f"expected finite numbers, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    values = [_finite_float(x) for x in text.split(",") if x.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _epsilons(text: str) -> list[float]:
    """Finite scales epsilon > 0: every finite-epsilon value divides by epsilon."""
    values = _float_list(text)
    if min(values) <= 0:
        raise argparse.ArgumentTypeError(f"expected positive numbers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _load(args):
    cfg = load_config(args.config) if args.config else default_config()
    return cfg, model_from_config(cfg)


def _unwarned(report: ConvergenceReport) -> list[str]:
    """Fails on any warned row: its premise fails (separation) or its value
    is not trusted (grid width, Nyquist), so its decay proves nothing."""
    warned = [row for row in report.rows if row.warnings]
    return [f"{len(warned)} of {len(report.rows)} rows carry warnings, "
            f"first at eps={warned[0].epsilon:g}: {warned[0].warnings[0]}"] if warned else []


# a row whose abs_err is within this many ulps of |limit| has converged as
# far as float64 can tell, so a tie or a rise below that floor is rounding
_ULP_FLOOR = 4


def _by_decreasing_eps(report: ConvergenceReport) -> list:
    """The rows from the coarsest eps to the finest, whatever order
    --epsilons gave them in; the table keeps the given order."""
    return sorted(report.rows, key=lambda row: row.epsilon, reverse=True)


def _strictly_decreasing(report: ConvergenceReport) -> list[str]:
    """Fails unless rel_err falls strictly as eps decreases; a row within
    _ULP_FLOOR ulps of its limit counts as converged."""
    rows = _by_decreasing_eps(report)
    if any(isnan(row.rel_err) for row in rows):
        return ["the relative error is undefined because the limit is 0"]
    rose = any(b.rel_err >= a.rel_err and b.abs_err > _ULP_FLOOR * ulp(abs(b.limit)) for a, b in zip(rows, rows[1:]))
    errs = ", ".join(f"{row.rel_err:.3e} at eps={row.epsilon:g}" for row in rows)
    return [f"relative errors are not strictly decreasing as eps decreases: {errs}"] if rose else []


def cmd_limit(args):
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    kernels = [rank_one_kernel(model, s.f, s.g) for s in symbols]
    coeff = limit_truncated_coefficient(model, kernels, [s.omega for s in symbols])
    smeared = limit_truncated_smeared(model, symbols)
    n = len(symbols)
    print(f"n = {n}  omega gate {'passed' if coeff.omega_gate_passed else 'failed (value exactly 0)'}")
    print(f"coefficient        = {coeff.value:.12g}")
    print(f"smeared limit      = {smeared:.12g}")
    print(f"delta chain order  = {coeff.delta_chain_order}")
    rows = [{
        "n": n,
        "omega_gate_passed": coeff.omega_gate_passed,
        "coeff_re": coeff.value.real, "coeff_im": coeff.value.imag,
        "limit_re": smeared.real, "limit_im": smeared.imag,
        "delta_chain_order": coeff.delta_chain_order,
    }]
    leaked = not coeff.omega_gate_passed and (coeff.value != 0 or smeared != 0)
    return rows, {"n": n}, ["omega gate failed but the value is not exactly zero"] if leaked else []


def cmd_sweep(args):
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    report = convergence_sweep(model, symbols, args.epsilons)
    for row in report.rows:
        warn = f"  [{';'.join(row.warnings)}]" if row.warnings else ""
        print(f"eps={row.epsilon:<8g} value={row.value:.10g}  rel_err={row.rel_err:.3e}{warn}")
    print(f"limit = {report.rows[0].limit:.12g}")
    return report, report.metadata, _unwarned(report) + _strictly_decreasing(report)


def cmd_free_check(args):
    cfg, model = _load(args)
    rows = []
    if args.random:
        rng = np.random.default_rng(args.seed)
        names = sorted(model.vectors)
        trials = []
        for _ in range(args.random):
            n = int(rng.integers(2, 4))
            syms = []
            for _ in range(n):
                f, g = rng.choice(names), rng.choice(names)
                phi = TestFunction.gaussian(
                    amplitude=float(rng.uniform(0.5, 1.5)),
                    center=float(rng.uniform(-0.5, 0.5)),
                    width=float(rng.uniform(0.5, 1.5)),
                )
                syms.append(NumberSymbol.make(f=str(f), g=str(g), s=0, phi=phi))
            trials.append(syms)
    else:
        symbols = symbols_from_config(cfg, model)
        bad = [s for s in symbols if not s.omega.is_zero]
        if bad:
            raise ConfigError("free-check needs omega_index 0 on every symbol (or use --random)")
        trials = [symbols]

    worst = 0.0
    for i, syms in enumerate(trials):
        fm = free_moment(model, syms)
        lim = limit_truncated_smeared(model, syms)
        err = abs(fm - lim) / max(1.0, abs(lim))
        worst = max(worst, err)
        rows.append({
            "trial": i, "n": len(syms),
            "free_re": fm.real, "free_im": fm.imag,
            "limit_re": lim.real, "limit_im": lim.imag,
            "diff": abs(fm - lim),
        })
        print(f"trial {i}: n={len(syms)}  free={fm:.10g}  limit={lim:.10g}  diff={abs(fm - lim):.3e}")
    print(f"worst scaled difference = {worst:.3e}")
    failed = [f"free product rule deviates by {worst:.3e} > 1e-12"] if worst > 1e-12 else []
    return rows, {"trials": len(trials), "seed": args.seed if args.random else None}, failed


def cmd_poisson(args):
    if args.moments is not None:
        _check_arity(args.moments)  # before any lambda is computed or printed
    grid = EnergyGrid(e_max=args.e_max, bins=args.bins)
    rows = []
    failures = []
    for lam in args.lam:
        kappas = poisson_cumulants(lam, args.orders, grid, omega_index=args.omega_index)
        # every cumulant is lambda at zero frequency and exactly 0 otherwise
        cumulant = lam if args.omega_index == 0 else 0.0
        for l, kappa in enumerate(kappas, start=1):
            rows.append({
                "lam": lam, "kind": "cumulant", "order": l,
                "value_re": kappa.real, "value_im": kappa.imag,
                "target_re": cumulant, "abs_err": abs(kappa - cumulant),
            })
        shown = ", ".join(f"{k.real:.12g}" for k in kappas)
        print(f"lambda={lam}: kappa_1..{args.orders} = {shown}")
        if args.omega_index == 0:
            if max(abs(k - lam) for k in kappas) > 1e-12:
                failures.append(f"lambda={lam}: cumulants deviate from lambda")
        elif any(k != 0 for k in kappas):
            failures.append(f"lambda={lam}: nonzero cumulant at omega_index={args.omega_index}")
        if args.moments is not None:
            moments = poisson_moments(cumulant, args.moments)
            targets = [touchard(nn, cumulant) for nn in range(1, args.moments + 1)]
            for nn, (m, t) in enumerate(zip(moments, targets), start=1):
                rows.append({
                    "lam": lam, "kind": "moment", "order": nn,
                    "value_re": m, "value_im": 0.0,
                    "target_re": t, "abs_err": abs(m - t),
                })
            print(f"lambda={lam}: moments 1..{args.moments} = " + ", ".join(f"{m:.10g}" for m in moments))
            if max(abs(m - t) / max(1.0, abs(t)) for m, t in zip(moments, targets)) > 1e-12:
                failures.append(f"lambda={lam}: moments deviate from Touchard values")
    meta = {"lam": args.lam, "orders": args.orders, "bins": args.bins, "e_max": args.e_max, "omega_index": args.omega_index}
    return rows, meta, ["; ".join(failures)] if failures else []


def cmd_independence(args):
    cfg, model = _load(args)
    symbols = symbols_from_config(cfg, model)
    if args.groups:
        try:
            index_groups = [[int(i) for i in part.split(",") if i.strip()] for part in args.groups.split(";")]
        except ValueError:
            raise ConfigError(f"--groups: expected '1,2;3' style indices, got {args.groups!r}")
        if not all(index_groups):
            raise ConfigError(f"--groups: every group needs at least one symbol index, got {args.groups!r}")
        # the probe multiplies the groups in the order given, so any other
        # order would silently probe a reordered product
        if [i for g in index_groups for i in g] != list(range(1, len(symbols) + 1)):
            raise ConfigError(f"--groups must use each symbol index 1..{len(symbols)} exactly once, in increasing order")
        groups = [[symbols[i - 1] for i in g] for g in index_groups]
    else:
        groups = [[s] for s in symbols]
    report = independence_probe(model, groups, args.epsilons, min_separation_widths=args.separation)
    for row in report.rows:
        warn = f"  [{';'.join(row.warnings)}]" if row.warnings else ""
        print(f"eps={row.epsilon:<8g} |probe|={abs(row.value):.6e}{warn}")
    rows = _by_decreasing_eps(report)
    first, last = abs(rows[0].value), abs(rows[-1].value)
    grew = [f"probe magnitude grew from {first:.3e} at eps={rows[0].epsilon:g} to {last:.3e} at eps={rows[-1].epsilon:g}"] if last > first else []
    return report, report.metadata, _unwarned(report) + grew


def cmd_wn_expect(args):
    cfg, model = _load(args)
    if args.pairs:
        try:
            labels = [tuple(p.split(":")) for p in args.pairs.split(",")]
            labels = [(f.strip(), g.strip()) for f, g in labels]
        except ValueError:
            raise ConfigError(f"--pairs: expected 'f:g,f:g' style, got {args.pairs!r}")
    else:
        labels = [(entry["f"], entry["g"]) for _, entry in symbol_entries(cfg, model)]
    if args.order is not None:
        if args.order > len(labels):
            raise ConfigError(f"--order must be between 1 and the number of symbols ({len(labels)})")
        labels = labels[: args.order]
    for f, g in labels:  # --pairs names; the config's were checked as read
        for name in (f, g):
            if name not in model.vectors:
                raise ConfigError(f"vector {name!r} not defined in the model config")
    k = len(labels)

    trace = [] if args.show_steps else None
    vac = vacuum_expectation(labels, include_scalar=not args.connected_only, trace=trace)
    if trace is not None:
        for before, after in trace:
            print(f"  {before}")
            for t in after.terms:
                print(f"    -> {t}")
    by_partition = evaluate_symbolic(vac, model)
    connected = by_partition.get((tuple(range(1, k + 1)),), 0j)

    rows = []
    for partition, value in sorted(by_partition.items()):
        part_text = "|".join(",".join(str(i) for i in c) for c in partition)
        order = sum(len(c) - 1 for c in partition)
        rows.append({
            "partition": part_text, "delta_chain_order": order,
            "value_re": value.real, "value_im": value.imag,
        })
        print(f"partition {part_text:<12} chain order {order}  value = {value:.10g}")
    print(f"connected value = {connected:.12g}")

    kernels = [rank_one_kernel(model, f, g) for f, g in labels]
    coeff = limit_truncated_coefficient(model, kernels, [FrequencyIndex(0)] * k)
    expected = TWO_PI ** (k - 1) * coeff.value
    if k == 1 and args.connected_only:
        expected = 0j  # a lone symbol's vacuum value is all scalar part, here dropped
    print(f"chain coefficient check: engine={connected:.10g}  spectral={expected:.10g}")
    err = abs(connected - expected) / max(1.0, abs(expected))
    failed = [f"connected chain deviates from the spectral coefficient by {err:.3e}"] if err > 1e-10 else []
    meta = {"k": k, "labels": ["{}:{}".format(*l) for l in labels], "connected_only": args.connected_only}
    return rows, meta, failed


def cmd_diagrams(args):
    n = args.n
    diagrams = enumerate_pair_diagrams(n)
    classes = [(d, classify(d)) for d in diagrams]
    irreducible = [d for d, c in classes if c.irreducible]
    surviving = surviving_diagram(n)
    rows = []
    if args.list:
        for d, c in classes:
            rows.append({
                "sigma": " ".join(str(s) for s in d.sigma),
                "cycles": d.label(),
                "k": c.k,
                "irreducible": c.irreducible,
            })
            print(f"sigma=({rows[-1]['sigma']})  cycles={rows[-1]['cycles']}  k={c.k}  irreducible={c.irreducible}")
    else:
        rows.append({
            "n": n, "total": len(diagrams), "irreducible": len(irreducible),
            "surviving": surviving.label(),
        })
    print(f"n={n}: {len(diagrams)} diagrams, {len(irreducible)} irreducible, surviving cycle {surviving.label()}")
    surv_class = classify(surviving)
    failed = [message for bad, message in (
        (len(diagrams) != factorial(n), f"expected {factorial(n)} diagrams, found {len(diagrams)}"),
        (len(irreducible) != factorial(n - 1), f"expected {factorial(n - 1)} irreducible diagrams, found {len(irreducible)}"),
        (not surv_class.irreducible or surv_class.k != 1, "the surviving diagram is not a k=1 single cycle"),
    ) if bad]
    return rows, {"n": n}, failed


def cmd_bell(args):
    rows = []
    bad = []
    exact = [1]  # B_n = sum_{j<n} C(n-1, j) B_j in integers, no Stirling numbers
    for order in range(1, args.max_order + 1):
        b = bell(order)
        t = touchard(order, args.lam)
        rows.append({"order": order, "bell": b, "touchard": t})
        print(f"n={order}: bell={b}  touchard(lambda={args.lam})={t:g}")
        exact.append(sum(comb(order - 1, j) * exact[j] for j in range(order)))
        if b != exact[order] or touchard(order, 1.0) != exact[order]:
            bad.append(order)
    failed = [f"bell or touchard at lambda=1 disagrees with the Bell recursion at orders {bad}"] if bad else []
    return rows, {"max_order": args.max_order, "lam": args.lam}, failed


def cmd_delta_lemma(args):
    phi_cfg = {"family": args.phi_family, "width": args.sigma_t, "center": args.phi_center}
    if args.phi_family == "indicator":
        phi_cfg = {"family": "indicator", "lo": args.phi_lo, "hi": args.phi_hi}
    phi = test_function_from_config(phi_cfg, "phi")
    f = test_function_from_config({"family": "gaussian", "width": args.sigma_x, "center": args.f_center}, "f")
    report = delta_lemma_check(f, phi, args.epsilons)
    for row in report.rows:
        print(f"eps={row.epsilon:<8g} value={row.value:.8g}  target={row.limit:.8g}  rel_err={row.rel_err:.3e}")
    finest = _by_decreasing_eps(report)[-1]
    too_far = [f"relative error {finest.rel_err:.3e} at the smallest eps={finest.epsilon:g} exceeds 5%"] if finest.rel_err > 0.05 else []
    return report, {"epsilons": args.epsilons}, _strictly_decreasing(report) + too_far


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; each parse_args returns a fresh namespace."""
    parser = _Parser(prog="lowdensity", description="Low density limit toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, model=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if model:
            p.add_argument("--config", help="JSON model/symbol config (builtin demo model when omitted)")
        p.add_argument("--out", help="write the result table to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="table format for --out")
        p.add_argument("--assert", dest="do_assert", action="store_true",
                       help="fail (exit 2) unless this command's headline claim holds")
        return p

    command("limit", cmd_limit, "limiting truncated value of the configured symbols", model=True)

    p = command("sweep", cmd_sweep, "finite-epsilon truncated values against the limit", model=True)
    p.add_argument("--epsilons", type=_epsilons, default=[0.2, 0.1, 0.05])

    p = command("free-check", cmd_free_check, "free white-noise product rule vs the limit formula", model=True)
    p.add_argument("--random", type=_positive_int, metavar="N", help="check N random symbol configurations")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")

    p = command("poisson", cmd_poisson, "hard-shell cumulants and moments")
    p.add_argument("--lambda", dest="lam", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--orders", type=_positive_int, default=6)
    p.add_argument("--moments", type=_positive_int, metavar="N", help=f"also compute moments up to order N, 1 <= N <= {MAX_ENUM_PARTITION}")
    p.add_argument("--grid-bins", dest="bins", type=int, default=64)
    p.add_argument("--e-max", type=_finite_float, default=8.0)
    p.add_argument("--omega-index", type=int, default=0)

    p = command("independence", cmd_independence, "decay of correlations between separated groups", model=True)
    p.add_argument("--epsilons", type=_epsilons, default=[0.2, 0.1, 0.05])
    p.add_argument("--groups", help="semicolon-separated 1-based symbol index groups that list 1..n in order, e.g. '1,2;3'; each group's product is centred")
    p.add_argument("--separation", type=_finite_float, default=10.0,
                   help="required group separation in units of the mean time width")

    p = command("wn-expect", cmd_wn_expect, "symbolic white-noise vacuum expectation", model=True)
    p.add_argument("--pairs", help="f:g pairs, e.g. 'a:b,b:a' (defaults to config symbols)")
    p.add_argument("--order", type=_positive_int, help="use only the first k symbols")
    p.add_argument("--connected-only", action="store_true", help="drop the scalar part of each symbol")
    p.add_argument("--show-steps", action="store_true",
                   help="print each expansion branch that contributes a term and its scalar terms")

    p = command("diagrams", cmd_diagrams, "pairing diagram census")
    p.add_argument("--n", type=_positive_int, default=4)
    p.add_argument("--list", action="store_true", help="one row per diagram")

    p = command("bell", cmd_bell, "Bell numbers and Touchard moments")
    p.add_argument("--n", dest="max_order", type=_positive_int, default=6)
    p.add_argument("--lam", type=_finite_float, default=1.0)

    p = command("delta-lemma", cmd_delta_lemma, "oscillatory integral against its delta limit")
    p.add_argument("--epsilons", type=_epsilons, default=[0.1, 0.03, 0.01])
    p.add_argument("--sigma-t", type=_finite_float, default=1.0, help="time width of the gaussian phi")
    p.add_argument("--sigma-x", type=_finite_float, default=1.0, help="width of the gaussian space factor")
    p.add_argument("--phi-family", choices=("gaussian", "indicator"), default="gaussian")
    p.add_argument("--phi-center", type=_finite_float, default=0.0)
    p.add_argument("--phi-lo", type=_finite_float, default=-1.0)
    p.add_argument("--phi-hi", type=_finite_float, default=1.0)
    p.add_argument("--f-center", type=_finite_float, default=0.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return exc.code if isinstance(exc.code, int) else 1
    try:
        table, extra, failed = args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError:  # float arithmetic such as x ** k past 1.8e308
        print("error: a result overflows a float", file=sys.stderr)
        return 1
    if args.out:
        metadata = {"command": args.command, "version": __version__, **extra}
        if "config" in args:
            metadata["config"] = args.config or "builtin-default"
        if isinstance(table, ConvergenceReport):
            table.write(args.out, args.format)
        else:
            write_table(args.out, args.format, table, metadata)
        write_sidecar(args.out, metadata)
    # a failed claim is reported only once its table and sidecar are written
    if args.do_assert and failed:
        print(f"assertion failed: {failed[0]}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
