"""The benchmark's workloads: seeded inputs, the ops, and their checks.

Each builder takes the loaded extlab modules, a seeded `random.Random`,
a scratch directory for CLI input files and a counter callback, and
returns the list of ops making up one pass.  An op's `run` is the timed
call; its `check` runs untimed afterwards and returns (decided,
problem), where `problem` is None for a correct output.  The expected
verdicts that no certificate backs yet name their source in
EXPECTED_FROM, and WORKLOADS.md records why each workload exists.
"""

import importlib
import io
import itertools
import json
import sys
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import oracle


MODULES = ("lattice", "measures", "markov", "lp", "engine", "harmonic",
           "corpus", "cli")

EXPECTED_FROM = {
    "dense": "acceptance criterion 5: the uniform 2x2 base extends at "
             "(4,4); a product measure is i.i.d., so it extends on any torus",
    "counter4": "measured at the seed commit: feasible with 5,360 "
                "admissible configurations",
    "counter3": "README: counter(3) has 36 admissible (4,4) torus "
                "configurations and a feasible exact LP; ROADMAP item 4(b) "
                "re-ran it: (4,4) feasible, (4,2) and (5,8) infeasible",
    "disconnected": "acceptance criterion 3 and the README's "
                    "counterexample: refuted at the window [0..3]",
    "pseudolattice": "acceptance criterion 4: the support subshift is "
                     "empty, so the measure is refuted",
    "robinson": "acceptance criterion 10: no periodic configuration up to "
                "(4,4) in either reading, emptiness unknown through side 6",
    "extendible": "acceptance criterion 11: a marginal of a Markov window "
                  "is extendible, so it must never be refuted",
    "envelope": "acceptance criterion 7: doubled envelopes pass on every "
                "subset of [0..2]^2; the Remark's (4,2) module fails",
}


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


def import_extlab(src):
    """Import extlab afresh from `src`, so that set-up pays the import."""
    for name in [n for n in sys.modules
                 if n == "extlab" or n.startswith("extlab.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(**{m: importlib.import_module("extlab." + m)
                             for m in MODULES})
    where = Path(lib.lattice.__file__).resolve().parent
    if where != (Path(src) / "extlab").resolve():
        raise RuntimeError(f"extlab was imported from {where}, not {src}")
    return lib


# ---------------------------------------------------------------------------
# seeded inputs, built with the benchmark's own arithmetic


def cyclic_measure(rng, alphabet, period, low):
    """Random weights in low..low+3 on the words of a cycle, averaged over
    rotations: a rotation-invariant measure, so every interval marginal
    is extendible (by the periodic process).  low=1 gives full support."""
    words = list(itertools.product(range(alphabet), repeat=period))
    raw = [0]
    while not sum(raw):
        raw = [rng.randint(low, low + 3) for _ in words]
    total = sum(raw) * period
    out = defaultdict(Fraction)
    for w, m in zip(words, raw):
        for r in range(period):
            out[w[r:] + w[:r]] += Fraction(m, total)
    return dict(out)


def interval(n):
    return [(i,) for i in range(n)]


def stationary_base(rng, alphabet, length, low):
    """Locally stationary masses on [0..length-1]."""
    cyc = cyclic_measure(rng, alphabet, length + 2, low)
    return oracle.marginal(interval(length + 2), cyc, interval(length))


def random_masses(rng, alphabet, length):
    """Random masses on [0..length-1], usually not locally stationary."""
    words = list(itertools.product(range(alphabet), repeat=length))
    raw = [0]
    while not sum(raw):
        raw = [rng.randrange(6) for _ in words]
    return {w: Fraction(r, sum(raw)) for w, r in zip(words, raw) if r}


def measure_json(points, alphabet, masses):
    """The documented CLI measure format: "p/q" masses keyed by words."""
    return {"dim": len(points[0]), "alphabet": alphabet,
            "domain": [list(p) for p in points],
            "masses": {",".join(map(str, w)): str(m)
                       for w, m in sorted(masses.items())}}


def word_set_json(points, alphabet, words):
    return {"dim": len(points[0]), "alphabet": alphabet,
            "domain": [list(p) for p in points],
            "words": sorted(",".join(map(str, w)) for w in words)}


def parse_measure(data):
    points = [tuple(p) for p in data["domain"]]
    masses = {tuple(int(s) for s in key.split(",")): Fraction(val)
              for key, val in data["masses"].items()}
    return points, masses


def to_measure(lib, points, alphabet, masses):
    Domain = lib.lattice.Domain
    return lib.measures.Measure(Domain(len(points[0]), points), alphabet,
                                masses)


# ---------------------------------------------------------------------------
# torus: periodic_extension on large tori


def torus(lib, rng, workdir, count):
    """Dense 2x2 bases on 65,536 configurations, then search-bound counters.

    The seed relabels the two symbols and translates the base domain of
    each instance.  Both are symmetries of the problem, so the verdict
    and the shape of the work stay fixed while the inputs change.
    """
    Measure, Domain = lib.measures.Measure, lib.lattice.Domain
    F = Fraction
    square = Domain.box(2, 2)
    counter3 = lib.corpus.binary_counter_measure(3)
    counter4 = lib.corpus.binary_counter_measure(4)
    cases = [
        ("uniform@4x4", Measure.uniform(square, 2), (4, 4), "feasible",
         "dense"),
        ("product@4x4", Measure.product_measure([F(1, 3), F(2, 3)], square),
         (4, 4), "feasible", "dense"),
        ("counter3@4x8", counter3, (4, 8), "feasible", "counter3"),
        ("counter3@4x4", counter3, (4, 4), "feasible", "counter3"),
        ("counter3@4x2", counter3, (4, 2), "infeasible", "counter3"),
        ("counter3@5x8", counter3, (5, 8), "infeasible", "counter3"),
        ("counter4@5x8", counter4, (5, 8), "feasible", "counter4"),
    ]
    ops = []
    for name, mu, periods, expected, source in cases:
        swap = rng.random() < 0.5
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        points = [oracle.add(p, shift) for p in mu.domain.points]
        masses = {tuple(1 - s if swap else s for s in w): m
                  for w, m in mu.masses.items()}
        base = to_measure(lib, points, 2, masses)
        ops.append(Op(name, _torus_run(lib, base, periods),
                      _torus_check(periods, points, masses, expected,
                                   source)))
    return ops


def _torus_run(lib, base, periods):
    return lambda: lib.engine.periodic_extension(base, periods)


def _torus_check(periods, points, masses, expected, source):
    verified = set()

    def check(res):
        if res.status != expected:
            return True, (f"status {res.status}, expected {expected} "
                          f"({EXPECTED_FROM[source]})")
        if res.status != "feasible":
            return True, None
        got = res.torus_measure.masses
        # an identical measure to one already verified needs no re-check
        key = hash(frozenset(got.items()))
        if key not in verified:
            problem = oracle.torus_problem(periods, got, points, masses)
            if problem:
                return True, problem
            verified.add(key)
        return True, None
    return check


# ---------------------------------------------------------------------------
# window-lp: build and solve window polytopes


def window_lp(lib, rng, workdir, count):
    """1-D and 2-D window polytopes, then vertex enumeration.

    Seeded bases have full support, so every seed gives polytopes of the
    same size; the seed moves the masses and the vertex objectives.
    """
    Domain = lib.lattice.Domain
    square = Domain.box(2, 2).points
    uniform = {w: Fraction(1, 16)
               for w in itertools.product(range(2), repeat=4)}
    a2 = stationary_base(rng, 2, 2, low=1)
    a3 = stationary_base(rng, 3, 2, low=1)
    solves = [
        ("A2-n7", interval(2), 2, a2, Domain.interval(0, 6)),
        ("A2-n8", interval(2), 2, a2, Domain.interval(0, 7)),
        ("A3-n5", interval(2), 3, a3, Domain.interval(0, 4)),
        ("2x2-uniform@2x3", square, 2, uniform, Domain.box(2, (2, 3))),
        ("2x2-uniform@3x2", square, 2, uniform, Domain.box(2, (3, 2))),
        ("2x2-uniform@2x4", square, 2, uniform, Domain.box(2, (2, 4))),
    ]
    ops = []
    for name, points, alphabet, masses, W in solves:
        base = to_measure(lib, points, alphabet, masses)
        ops.append(Op(name, _polytope_solve(lib, base, W),
                      _polytope_check(W.points, points, masses)))
    for b in range(4):
        masses = stationary_base(rng, 2, 2, low=1)
        base = to_measure(lib, interval(2), 2, masses)
        seed = rng.randrange(2 ** 16)
        for n in (3, 4):
            W = Domain.interval(0, n - 1)
            ops.append(Op(f"vertices-{b}-n{n}",
                          _polytope_vertices(lib, base, W, seed),
                          _vertices_check(W.points, interval(2), masses)))
    return ops


def _polytope_solve(lib, base, W):
    def run():
        polytope = lib.engine.build_window_polytope(base, W)
        res = polytope.solve()
        if res.status != "feasible":
            return res.status, None
        return res.status, polytope.to_measure(res.assignment)
    return run


def _polytope_check(points, base_points, base_masses):
    def check(res):
        status, measure = res
        if status != "feasible":
            return True, f"status {status}, expected feasible"
        return True, oracle.window_problem(points, measure.masses,
                                           base_points, base_masses)
    return check


def _polytope_vertices(lib, base, W, seed):
    def run():
        polytope = lib.engine.build_window_polytope(base, W)
        return polytope.vertices(max_count=12, seed=seed)
    return run


def _vertices_check(points, base_points, base_masses):
    def check(vertices):
        if not vertices:
            return True, "no vertex of a nonempty polytope"
        seen = set()
        for v in vertices:
            problem = oracle.window_problem(points, v.masses, base_points,
                                            base_masses)
            if problem:
                return True, f"vertex: {problem}"
            seen.add(frozenset(v.masses.items()))
        if len(seen) != len(vertices):
            return True, "repeated vertex"
        return True, None
    return check


# ---------------------------------------------------------------------------
# batch: many small ops through extlab.cli.main


def _cli_run(lib, argv, count):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = lib.cli.main(argv)
        text = out.getvalue()
        count("cli.bytes_out", len(text))
        return code, text, err.getvalue()
    return run


def _cli_check(want_code, decided, judge=None):
    """Exit code first, then `judge(payload)` on the parsed JSON output."""
    def check(res):
        code, text, err = res
        if code != want_code:
            return decided, f"exit code {code}, expected {want_code}: {err}"
        if judge is None:
            return decided, None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            return decided, f"output is not JSON: {exc}"
        return decided, judge(payload)
    return check


def _expect(field, want, source):
    def judge(payload):
        if payload.get(field) != want:
            return f"{field} {payload.get(field)!r}, expected {want!r} " \
                   f"({EXPECTED_FROM[source]})"
        return None
    return judge


def batch(lib, rng, workdir, count):
    """About 300 small CLI and library ops over seeded and corpus inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = lib.corpus

    def write(name, data):
        path = workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def cli(name, argv, check):
        return Op(name, _cli_run(lib, argv, count), check)

    # the alphabet and length mix, and the sites of each sub-marginal, are
    # fixed, so that the seed moves the masses but not the spread of op
    # sizes that op_p50_s and op_p90_s read: with seeded sites, refute ops
    # took 4 or 7 ms depending on them, and moved op_p50_s by 15% by seed
    shapes = list(itertools.product((2, 3), (2, 3, 4)))
    site_sets = [(0,) + rest for k in (1, 2, 3)
                 for rest in itertools.combinations(range(1, 5), k)]
    ops = []
    for b in range(60):
        A, L = shapes[b % len(shapes)]
        masses = stationary_base(rng, A, L, low=0)
        path = write(f"base{b}.json", measure_json(interval(L), A, masses))
        n = L + 2
        window = lib.markov.MarkovExtension(
            to_measure(lib, interval(L), A, masses)).window_measure(5)
        sites = [(i,) for i in site_sets[b % len(site_sets)]]
        sub = oracle.marginal(window.domain.points, window.masses, sites)
        sub_path = write(f"sub{b}.json", measure_json(sites, A, sub))
        ops += [
            cli(f"stationary-{b}", ["stationary", path], _cli_check(
                0, True, _expect("locally_stationary", True, "extendible"))),
            cli(f"markov-{b}", ["markov", path, "--window", str(n)],
                _cli_check(0, True, _markov_judge(n, L, masses))),
            cli(f"fourier-{b}", ["fourier", path],
                _cli_check(0, True, _fourier_judge)),
            cli(f"refute-{b}", ["refute", sub_path, "--max-window", "3"],
                _cli_check(0, False,
                           _expect("verdict", "unknown", "extendible"))),
        ]
        if b % 6 == 0:
            sets = json.dumps([[[0]], [[L - 1]]])
            ops.append(cli(f"entropy-metric-{b}",
                           ["entropy-metric", path, "--sets", sets],
                           _cli_check(0, True, _entropy_judge(
                               interval(L), masses, [(0,)], [(L - 1,)]))))

    for b in range(10):
        A, L = shapes[b % 4]
        masses = random_masses(rng, A, L)
        stationary = oracle.stationarity_problem(interval(L), masses) is None
        path = write(f"random{b}.json", measure_json(interval(L), A, masses))
        ops.append(cli(f"stationary-random-{b}", ["stationary", path],
                       _cli_check(0 if stationary else 1, True,
                                  _stationary_judge(interval(L), masses,
                                                    stationary))))

    disc = corpus.disconnected_counterexample()
    disc_path = write("disconnected.json", measure_json(
        disc.domain.points, disc.alphabet, disc.masses))
    pseudo = corpus.pseudolattice_measure()
    pseudo_path = write("pseudolattice.json", measure_json(
        pseudo.domain.points, pseudo.alphabet, pseudo.masses))
    ops += [
        cli("refute-disconnected", ["refute", disc_path, "--max-window", "4"],
            _cli_check(1, True, _disconnected_judge)),
        cli("refute-pseudolattice",
            ["refute", pseudo_path, "--max-window", "4"],
            _cli_check(1, True, _expect("verdict", "refuted",
                                        "pseudolattice"))),
        cli("entropy-metric-disconnected",
            ["entropy-metric", disc_path, "--sets", "[[[0]],[[3]]]"],
            _cli_check(0, True, _entropy_judge(
                disc.domain.points, disc.masses, [(0,)], [(3,)]))),
    ]

    def word_set_file(name, ws):
        return write(name, word_set_json(ws.domain.points, ws.alphabet,
                                         ws.words))

    ps_path = word_set_file("pseudolattice-support.json",
                            corpus.pseudolattice_support())
    ops.append(cli("tiling-pseudolattice-support",
                   ["tiling", ps_path, "--max-window", "6"],
                   _cli_check(1, True, _expect("status", "empty",
                                               "pseudolattice"))))
    for reading in ("distinct", "typo"):
        path = word_set_file(f"robinson-{reading}.json",
                             corpus.robinson_word_set(reading))
        if reading == "typo":
            ops.append(cli("tiling-robinson-typo",
                           ["tiling", path, "--max-window", "6"],
                           _cli_check(0, False, _expect(
                               "status", "unknown", "robinson"))))
        for px, py in itertools.product(range(1, 5), repeat=2):
            ops.append(cli(f"perconfig-robinson-{reading}@{px}x{py}",
                           ["perconfig", path, "--period", f"{px},{py}"],
                           _cli_check(1, True, _expect(
                               "status", "none", "robinson"))))

    rule, U = corpus.eca_rule(110)
    _, eca = corpus.ca_to_sft(rule, U, 2)
    eca_path = word_set_file("eca110.json", eca)
    for _ in range(4):
        periods = (rng.randint(2, 6), rng.randint(2, 6))
        ops.append(cli(f"perconfig-eca110@{periods[0]}x{periods[1]}",
                       ["perconfig", eca_path, "--period",
                        ",".join(map(str, periods))],
                       _cli_check(0, True, _config_judge(
                           periods, eca.domain.points, eca.words))))

    ops += _envelope_ops(lib)
    return ops


def _markov_judge(n, L, base_masses):
    def judge(payload):
        points, masses = parse_measure(payload["measure"])
        if points != interval(n):
            return f"window domain {points}"
        return oracle.window_problem(points, masses, interval(L),
                                     base_masses)
    return judge


def _fourier_judge(payload):
    if payload["stationary"] is not True:
        return "stationary base reported non-stationary"
    if not payload["parseval_residual"] < 1e-9:
        return f"Parseval residual {payload['parseval_residual']}"
    re, im = payload["coefficients"]["1"]
    if abs(re - 1) > 1e-12 or abs(im) > 1e-12:
        return f"trivial coefficient {re}+{im}i"
    return None


def _entropy_judge(points, masses, V, W):
    want = oracle.entropy_metric(points, masses, V, W)

    def judge(payload):
        got = payload["entropy_metric"]
        if abs(got - want) > 1e-9:
            return f"entropy metric {got}, expected {want}"
        return None
    return judge


def _stationary_judge(points, masses, stationary):
    def judge(payload):
        if payload["locally_stationary"] is not stationary:
            return f"verdict {payload['locally_stationary']}, the " \
                   f"benchmark's overlap check says {stationary}"
        if stationary:
            return None
        V, word, k = payload["witness"]
        V = [tuple(p) for p in V]
        left = oracle.marginal(points, masses, V)
        right = oracle.marginal(points, masses,
                                [oracle.add(v, k) for v in V])
        if left.get(tuple(word), 0) == right.get(tuple(word), 0):
            return "witness does not separate the overlap marginals"
        return None
    return judge


def _disconnected_judge(payload):
    if payload["verdict"] != "refuted":
        return f"verdict {payload['verdict']} " \
               f"({EXPECTED_FROM['disconnected']})"
    if payload["window"] != [[0], [1], [2], [3]]:
        return f"window {payload['window']} " \
               f"({EXPECTED_FROM['disconnected']})"
    return None


def _config_judge(periods, word_points, words):
    def judge(payload):
        if payload["status"] != "found":
            return f"status {payload['status']}, expected found (the all-" \
                   f"zero configuration is admissible for rule 110)"
        config = {tuple(int(x) for x in key.split(",")): s
                  for key, s in payload["config"].items()}
        return oracle.periodic_config_problem(periods, word_points, words,
                                              config)
    return judge


def _envelope_ops(lib):
    lattice = lib.lattice
    box = lattice.Domain.box(2, 3).points
    windows = [lattice.Domain(2, pts) for r in range(1, len(box) + 1)
               for pts in itertools.combinations(box, r)]

    def sweep():
        return [lattice.verify_envelope(lattice.envelope_for(U)).status
                for U in windows]

    def sweep_check(statuses):
        bad = len(statuses) - statuses.count("pass")
        return True, (f"{bad} doubled envelopes fail "
                      f"({EXPECTED_FROM['envelope']})" if bad else None)

    periods = (4, 2)
    row = [(x, 1) for x in range(1, 5)]
    remark = lattice.Envelope(lattice.FiniteModule(periods),
                              lattice.Domain(2, row))

    def remark_check(chk):
        if (chk.status, chk.condition) != ("fail", "liftable"):
            return True, f"status {chk.status} {chk.condition!r} " \
                         f"({EXPECTED_FROM['envelope']})"
        V, g_tilde = chk.witness
        if not oracle.envelope_lift_fails(periods, row, V, g_tilde):
            return True, "witness has a lattice lift"
        return True, None

    return [Op("envelope-sweep", sweep, sweep_check),
            Op("envelope-remark", lambda: lattice.verify_envelope(remark),
               remark_check)]


BUILDERS = {"torus": torus, "window-lp": window_lp, "batch": batch}
