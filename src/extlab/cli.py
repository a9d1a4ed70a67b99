"""Command-line interface.

Exit codes: 0 for positive/affirmative outcomes (stationary, feasible,
still-unknown searches), 1 for negative ones (refuted, infeasible,
empty, no configuration), 2 for usage or input errors, 3 for exceeded
resource budgets, 4 for internal errors (a failed exact re-check or any
other unexpected exception), which are never a verdict.

The argument parser is built on the first `main` call and reused by
every later call in the process; the handler of a subcommand, e.g.
`cmd_entropy_metric` for `entropy-metric`, is looked up by name when
`main` runs, so a replaced module attribute is the one called.
"""

import argparse
import functools
import json
import sys
import traceback

from .lattice import Domain, CapExceeded
from .measures import (Measure, WordSet, is_locally_stationary,
                       entropy_metric, finite_window_entropy, word_key,
                       _integer_points, _parse_mass)
from .markov import MarkovExtension, entropy_rate
from .engine import (periodic_extension, refute_nonextendible, sft_emptiness,
                     periodic_config_search, epsilon_bound,
                     SearchBudget, FEASIBLE, INFEASIBLE)
from . import corpus as corpus_mod
from . import harmonic

OK, NEGATIVE, USAGE, BUDGET, INTERNAL = 0, 1, 2, 3, 4


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_measure(path):
    return Measure.from_json_dict(_load_json(path))


def _load_word_set(path):
    return WordSet.from_json_dict(_load_json(path))


def _emit(data, out=None):
    text = json.dumps(data, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_stationary(args):
    mu = _load_measure(args.measure)
    res = is_locally_stationary(mu)
    _emit({"locally_stationary": res.ok,
           "witness": [list(map(list, res.witness[0])),
                       list(res.witness[1]),
                       list(res.witness[2])] if res.witness else None})
    return OK if res.ok else NEGATIVE


def cmd_markov(args):
    mu = _load_measure(args.measure)
    ext = MarkovExtension(mu)
    window = ext.window_measure(args.window)
    rate = entropy_rate(ext, args.window, window)
    _emit({"measure": window.to_json_dict(),
           "entropy_per_site": rate.per_site,
           "entropy_rate": rate.markov_rate}, args.out)
    return OK


def cmd_periodic(args):
    mu = _load_measure(args.measure)
    periods = tuple(int(p) for p in args.period.split(","))
    res = periodic_extension(mu, periods)
    payload = {"status": res.status,
               "periods": list(periods),
               "envelope_warning": res.envelope_warning,
               "reason": res.reason,
               "config_count": res.config_count}
    if res.status == FEASIBLE:
        payload["orbits"] = [{"configuration": word_key(c), "size": n,
                              "mass": str(m)} for c, n, m in res.orbits]
        try:
            payload["epsilon"] = str(epsilon_bound(res, mu.domain))
        except ValueError:  # the solution lacks full support
            payload["epsilon"] = None
    _emit(payload, args.out)
    if res.status == FEASIBLE:
        return OK
    return NEGATIVE if res.status == INFEASIBLE else BUDGET


def cmd_refute(args):
    mu = _load_measure(args.measure)
    report = refute_nonextendible(mu, max_window=args.max_window)
    _emit(report.to_json_dict(), args.out)
    return NEGATIVE if report.verdict == "refuted" else OK


def cmd_tiling(args):
    T = _load_word_set(args.words)
    res = sft_emptiness(T, max_side=args.max_window)
    _emit({"status": res.status,
           "window": [list(p) for p in res.window.points],
           "reason": res.reason})
    if res.status == "empty":
        return NEGATIVE
    return BUDGET if res.reason else OK


def cmd_perconfig(args):
    T = _load_word_set(args.words)
    periods = tuple(int(p) for p in args.period.split(","))
    res = periodic_config_search(T, periods)
    _emit({"status": res.status,
           "config": {word_key(c): s for c, s in sorted(res.config.items())},
           "reason": res.reason})
    if res.status == "found":
        return OK
    return NEGATIVE if res.status == "none" else BUDGET


def cmd_fourier(args):
    mu = _load_measure(args.measure)
    coeffs = harmonic.fourier_transform(mu)
    ok = is_locally_stationary(mu).ok
    table = {}
    for chi, c in coeffs.items():
        key = ";".join(f"{word_key(p)}:{e}" for p, e
                       in zip(mu.domain.points, chi) if e) or "1"
        table[key] = [c.real, c.imag]
    _emit({"coefficients": table,
           "parseval_residual": harmonic.parseval_residual(mu),
           "stationary": ok})
    return OK if ok else NEGATIVE


def cmd_entropy_metric(args):
    mu = _load_measure(args.measure)
    try:
        V, W = (Domain(mu.domain.dim, _integer_points(points, "each set"))
                for points in json.loads(args.sets))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad --sets payload: {exc}")
    _emit({"entropy_metric": entropy_metric(mu, V, W),
           "window_entropy": finite_window_entropy(mu)})
    return OK


def _disconnected(args):
    if not args.rho:
        return corpus_mod.disconnected_counterexample()
    rho = [_parse_mass(r) for r in args.rho.split(",")]
    return corpus_mod.disconnected_counterexample(len(rho), rho)


def _eca(args):
    rule, U = corpus_mod.eca_rule(args.k)
    return corpus_mod.ca_to_sft(rule, U, 2)[1]


# built-in instance name -> builder from the parsed arguments
CORPUS = {
    "disconnected": _disconnected,
    "pseudolattice": lambda args: corpus_mod.pseudolattice_measure(),
    "pseudolattice-support": lambda args: corpus_mod.pseudolattice_support(),
    "robinson": lambda args: corpus_mod.robinson_word_set(args.d_reading),
    "counter": lambda args: corpus_mod.binary_counter_measure(args.k),
    "counter-support": lambda args: corpus_mod.binary_counter_support(args.k),
    "eca": _eca,
}


def cmd_corpus(args):
    _emit(CORPUS[args.name](args).to_json_dict(), args.out)
    return OK


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process and
    shared by every caller, so none may change it."""
    parser = argparse.ArgumentParser(
        prog="extlab",
        description="stationary extension problems for lattice measures")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stationary", help="check local stationarity")
    p.add_argument("measure")

    p = sub.add_parser("markov", help="Markov extension window measure")
    p.add_argument("measure")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--out")

    p = sub.add_parser("periodic", help="periodic (torus) extension LP")
    p.add_argument("measure")
    p.add_argument("--period", required=True,
                   help="comma-separated periods, e.g. 4,8")
    p.add_argument("--out")

    p = sub.add_parser("refute", help="attempt a non-extendibility proof")
    p.add_argument("measure")
    p.add_argument("--max-window", type=int, default=4)
    p.add_argument("--out")

    p = sub.add_parser("tiling", help="subshift emptiness search")
    p.add_argument("words")
    p.add_argument("--max-window", type=int, default=6)

    p = sub.add_parser("perconfig", help="periodic configuration search")
    p.add_argument("words")
    p.add_argument("--period", required=True)

    p = sub.add_parser("fourier", help="Fourier coefficient table")
    p.add_argument("measure")

    p = sub.add_parser("entropy-metric", help="entropy distance of site sets")
    p.add_argument("measure")
    p.add_argument("--sets", required=True,
                   help='JSON pair of point lists, e.g. "[[[0]],[[3]]]"')

    p = sub.add_parser("corpus", help="emit a built-in instance")
    p.add_argument("name", choices=list(CORPUS))
    p.add_argument("--rho", help="probability vector, e.g. 1/2,1/2")
    p.add_argument("--k", type=int, default=3,
                   help="counter size / ECA rule number")
    p.add_argument("--d-reading", choices=["distinct", "typo"],
                   default="distinct")
    p.add_argument("--out")
    return parser


def main(argv=None):
    """Run one subcommand and return its exit code.  A usage error found
    by argparse (and --help) raises SystemExit instead."""
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (CapExceeded, SearchBudget) as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
