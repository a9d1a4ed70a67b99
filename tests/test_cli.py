import argparse
import json
import re
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from extlab import cli, corpus, engine, harmonic
from extlab.cli import main
from extlab.lattice import Domain, FiniteModule
from extlab.markov import MarkovExtension
from extlab.measures import Measure, WordSet, parse_word_key, word_key
from extlab.corpus import (disconnected_counterexample, binary_counter_measure,
                           eca_rule, ca_to_sft)


@pytest.fixture
def write_json(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return _write


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def biased_pair():
    return Measure(Domain.interval(0, 1), 2,
                   {(0, 0): F(3, 8), (0, 1): F(1, 8),
                    (1, 0): F(1, 8), (1, 1): F(3, 8)})


def test_stationary_positive_and_negative(write_json, capsys):
    good = write_json("good.json", biased_pair().to_json_dict())
    code, out = run(capsys, ["stationary", good])
    assert code == 0
    assert json.loads(out)["locally_stationary"] is True

    bad = Measure(Domain.interval(0, 1), 2,
                  {(0, 0): F(1, 2), (0, 1): F(1, 2)})
    path = write_json("bad.json", bad.to_json_dict())
    code, out = run(capsys, ["stationary", path])
    assert code == 1
    assert json.loads(out)["witness"] is not None


def test_markov_roundtrip(write_json, capsys, tmp_path):
    path = write_json("mu.json", biased_pair().to_json_dict())
    out_path = tmp_path / "window.json"
    code, _ = run(capsys, ["markov", path, "--window", "3",
                           "--out", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    w = Measure.from_json_dict(data["measure"])
    assert w[(0, 0, 0)] == F(9, 32)
    assert abs(data["entropy_rate"] - 0.8112781244591329) < 1e-12


def test_markov_builds_the_window_once(write_json, capsys, monkeypatch):
    calls = []
    build = MarkovExtension.window_measure

    def spy(self, n):
        calls.append(n)
        return build(self, n)
    monkeypatch.setattr(MarkovExtension, "window_measure", spy)
    path = write_json("mu.json", biased_pair().to_json_dict())
    code, out = run(capsys, ["markov", path, "--window", "5"])
    assert code == 0
    assert calls == [5]
    data = json.loads(out)
    assert abs(data["entropy_rate"] - 0.8112781244591329) < 1e-12


def test_markov_on_an_empty_domain_is_an_input_error(write_json, capsys):
    # a valid measure, but no interval to extend: exit 2, not a crash
    path = write_json("empty.json", {"dim": 1, "alphabet": 2, "domain": [],
                                     "masses": {"": "1"}})
    assert main(["markov", path, "--window", "3"]) == 2
    assert "nonempty contiguous interval" in capsys.readouterr().err


def test_periodic_exit_codes(write_json, capsys):
    uni = Measure.uniform(Domain.interval(0, 1), 2)
    path = write_json("uni.json", uni.to_json_dict())
    code, out = run(capsys, ["periodic", path, "--period", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "feasible"
    assert data["epsilon"] == "1/144"
    orbits = [(parse_word_key(o["configuration"]), o["size"], F(o["mass"]))
              for o in data["orbits"]]
    assert sum(size * mass for _, size, mass in orbits) == 1
    res = engine.PeriodicExtensionResult("feasible", FiniteModule((4,)), 2,
                                         orbits)
    assert engine.pullback_periodic(res, uni.domain).masses == uni.masses

    disc = write_json("disc.json", disconnected_counterexample().to_json_dict())
    code, out = run(capsys, ["periodic", disc, "--period", "8"])
    assert code == 1
    assert json.loads(out)["status"] == "infeasible"


def test_refute_reports_window(write_json, capsys):
    disc = write_json("disc.json", disconnected_counterexample().to_json_dict())
    code, out = run(capsys, ["refute", disc, "--max-window", "4"])
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "refuted"
    assert data["window"] == [[0], [1], [2], [3]]

    good = write_json("good.json", biased_pair().to_json_dict())
    code, out = run(capsys, ["refute", good, "--max-window", "3"])
    assert code == 0
    assert json.loads(out)["verdict"] == "unknown"


def test_refute_uniform_square_through_side_3(write_json, capsys):
    # the 3x3 window LP is solved on its quotient by the 16 symmetries of
    # the uniform base; without them it takes minutes
    path = write_json("uniform.json",
                      Measure.uniform(Domain.box(2, 2), 2).to_json_dict())
    code, out = run(capsys, ["refute", path, "--max-window", "3"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "unknown"
    assert data["detail"]["feasible_up_to"] == "[(0, 2), (0, 2)]"


def test_refute_non_stationary_exits_1(write_json, capsys):
    # a valid measure that is not locally stationary has no extension
    path = write_json("skew.json", {"dim": 1, "alphabet": 2,
                                    "domain": [[0], [1]],
                                    "masses": {"0,0": "1/2", "0,1": "1/2"}})
    code, out = run(capsys, ["refute", path])
    assert code == 1
    assert json.loads(out) == {"verdict": "refuted", "method": "stationarity",
                               "window": [[0], [1]],
                               "detail": {"witness": "(((0,),), (0,), (1,))"}}


def test_tiling_and_perconfig(write_json, capsys):
    gm = WordSet(Domain.interval(0, 1), 2, [(0, 0), (0, 1), (1, 0)])
    path = write_json("gm.json", gm.to_json_dict())
    code, out = run(capsys, ["tiling", path, "--max-window", "4"])
    assert code == 0
    assert json.loads(out)["status"] == "unknown"

    dead = WordSet(Domain.interval(0, 1), 2, [(0, 1)])
    path = write_json("dead.json", dead.to_json_dict())
    code, out = run(capsys, ["tiling", path, "--max-window", "4"])
    assert code == 1
    assert json.loads(out)["status"] == "empty"

    alt = WordSet(Domain.interval(0, 1), 2, [(0, 1), (1, 0)])
    path = write_json("alt.json", alt.to_json_dict())
    code, out = run(capsys, ["perconfig", path, "--period", "2"])
    assert code == 0
    assert set(json.loads(out)["config"]) == {"0", "1"}
    code, out = run(capsys, ["perconfig", path, "--period", "3"])
    assert code == 1


def test_empty_word_domain_is_an_input_error(write_json, capsys):
    path = write_json("empty.json", {"dim": 2, "alphabet": 2, "domain": [],
                                     "words": []})
    assert main(["perconfig", path, "--period", "2,3"]) == 2
    assert "empty word-set domain" in capsys.readouterr().err
    assert main(["tiling", path]) == 2
    # a measure on an empty domain is refused by the torus checks too
    path = write_json("empty-measure.json", {"dim": 2, "alphabet": 2,
                                             "domain": [],
                                             "masses": {"": "1"}})
    assert main(["periodic", path, "--period", "2,3"]) == 2
    assert "empty word-set domain" in capsys.readouterr().err


def test_tiling_without_a_fitting_window_is_an_input_error(write_json,
                                                           capsys):
    # the pseudolattice support's 2x2 word domain fits in no 1x1 window
    path = write_json("ps.json", corpus.pseudolattice_support().to_json_dict())
    assert main(["tiling", path, "--max-window", "1"]) == 2
    assert capsys.readouterr() == (
        "", "error: no window in the schedule admits a translate of the "
            "word-set domain\n")


def test_perconfig_deep_torus(write_json, capsys):
    # 1600 cells, one search level each: deeper than Python's default
    # recursion limit of 1000
    rule, U = eca_rule(110)
    _, eca = ca_to_sft(rule, U, 2)
    path = write_json("eca110.json", eca.to_json_dict())
    code, out = run(capsys, ["perconfig", path, "--period", "40,40"])
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    grid = {tuple(map(int, key.split(","))): s
            for key, s in data["config"].items()}
    assert len(grid) == 1600
    for x, y in grid:
        word = tuple(grid[((x + u) % 40, (y + v) % 40)]
                     for u, v in eca.domain.points)
        assert word in eca.words


def test_fourier(write_json, capsys):
    path = write_json("mu.json", biased_pair().to_json_dict())
    code, out = run(capsys, ["fourier", path])
    assert code == 0
    data = json.loads(out)
    assert data["stationary"] is True
    assert abs(data["coefficients"]["1"][0] - 1) < 1e-12
    assert data["parseval_residual"] < 1e-9


def test_fourier_keys_are_pinned(write_json, capsys):
    # a key lists the nonzero exponents as "point:exponent" in the
    # window's point order, "1" for the trivial character
    cases = [
        (disconnected_counterexample(),
         ["0:1", "0:1;1:1", "0:1;1:1;3:1", "0:1;3:1", "1", "1:1", "1:1;3:1",
          "3:1"]),
        (Measure(Domain.box(2, 2), 2, {(0, 0, 0, 0): F(1, 2),
                                       (0, 1, 1, 0): F(1, 4),
                                       (1, 1, 1, 1): F(1, 4)}),
         ["0,0:1", "0,0:1;0,1:1", "0,0:1;0,1:1;1,0:1",
          "0,0:1;0,1:1;1,0:1;1,1:1", "0,0:1;0,1:1;1,1:1", "0,0:1;1,0:1",
          "0,0:1;1,0:1;1,1:1", "0,0:1;1,1:1", "0,1:1", "0,1:1;1,0:1",
          "0,1:1;1,0:1;1,1:1", "0,1:1;1,1:1", "1", "1,0:1", "1,0:1;1,1:1",
          "1,1:1"]),
        (Measure(Domain.interval(-1, 0), 3, {(0, 0): F(1, 2), (1, 2): F(1, 3),
                                             (2, 2): F(1, 6)}),
         ["-1:1", "-1:1;0:1", "-1:1;0:2", "-1:2", "-1:2;0:1", "-1:2;0:2",
          "0:1", "0:2", "1"]),
    ]
    for mu, keys in cases:
        path = write_json("mu.json", mu.to_json_dict())
        code, out = run(capsys, ["fourier", path])
        assert code in (0, 1)
        table = json.loads(out)["coefficients"]
        assert sorted(table) == keys
        for chi in harmonic.all_characters(mu.domain, mu.alphabet):
            key = ";".join(f"{word_key(p)}:{e}" for p, e
                           in zip(mu.domain.points, chi) if e) or "1"
            want = harmonic.fourier_coeff(mu, chi)
            assert abs(complex(*table[key]) - want) < 1e-12


def test_fourier_sums_no_coefficient_directly(write_json, capsys,
                                              monkeypatch):
    # every coefficient, shifted ones included, comes from a table, in
    # the CLI and in the frequency-domain stationarity check
    def direct(mu, chi):
        raise AssertionError("a coefficient was summed directly")
    monkeypatch.setattr(harmonic, "fourier_coeff", direct)
    for mu in (biased_pair(), disconnected_counterexample(),
               Measure(Domain.interval(0, 1), 2,
                       {(0, 0): F(1, 2), (0, 1): F(1, 2)})):
        path = write_json("mu.json", mu.to_json_dict())
        code, _ = run(capsys, ["fourier", path])
        assert code in (0, 1)
        harmonic.check_stationarity_fourier(mu)


def test_fourier_stationarity_is_decided_exactly(write_json, capsys):
    # the overlap marginals differ by 10^-12, below the float check's
    # tolerance: fourier reports what stationary and refute decide
    path = write_json("near.json", {
        "dim": 1, "alphabet": 2, "domain": [[0], [1]],
        "masses": {"0,0": "1/4", "0,1": "250000000001/1000000000000",
                   "1,0": "249999999999/1000000000000", "1,1": "1/4"}})
    assert harmonic.check_stationarity_fourier(
        cli._load_measure(path))[0] is True
    code, out = run(capsys, ["fourier", path])
    assert (code, json.loads(out)["stationary"]) == (1, False)
    assert run(capsys, ["stationary", path])[0] == 1
    assert run(capsys, ["refute", path])[0] == 1


def test_fourier_on_a_12_site_window(write_json, capsys):
    # 4,096 words: the direct sums took seconds here
    uni = Measure.uniform(Domain.interval(0, 1), 2)
    window = MarkovExtension(uni).window_measure(12)
    assert len(window.masses) == 4096
    path = write_json("w12.json", window.to_json_dict())
    code, out = run(capsys, ["fourier", path])
    assert code == 0
    data = json.loads(out)
    assert data["stationary"] is True
    assert data["parseval_residual"] < 1e-9
    assert len(data["coefficients"]) == 4096


def test_entropy_metric(write_json, capsys):
    disc = write_json("disc.json", disconnected_counterexample().to_json_dict())
    code, out = run(capsys, ["entropy-metric", disc,
                             "--sets", "[[[0]],[[3]]]"])
    assert code == 0
    assert json.loads(out)["entropy_metric"] == 2.0
    # a point must be a list of JSON integers: Domain would read 0.9,
    # true and "0" as site 0
    for sets in ("nonsense", "[[[0.9]],[[3]]]", "[[[true]],[[3]]]",
                 '[[["0"]],[[3]]]'):
        code, _ = run(capsys, ["entropy-metric", disc, "--sets", sets])
        assert code == 2, sets


def test_corpus_emission(capsys):
    code, out = run(capsys, ["corpus", "counter", "--k", "2"])
    assert code == 0
    mu = Measure.from_json_dict(json.loads(out))
    assert mu.masses == binary_counter_measure(2).masses

    code, out = run(capsys, ["corpus", "robinson", "--d-reading", "typo"])
    assert code == 0
    assert len(WordSet.from_json_dict(json.loads(out)).words) == 274

    code, out = run(capsys, ["corpus", "disconnected", "--rho", "1/3,2/3"])
    assert code == 0
    mu = Measure.from_json_dict(json.loads(out))
    assert mu[(0, 0, 1)] == F(1, 3) * F(2, 3)

    code, out = run(capsys, ["corpus", "eca", "--k", "110"])
    assert code == 0
    assert len(WordSet.from_json_dict(json.loads(out)).words) == 8


def test_usage_errors(write_json, capsys, tmp_path):
    assert main(["stationary", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["stationary", str(bad)]) == 2
    truncated = write_json("trunc.json", {"dim": 1})
    assert main(["stationary", truncated]) == 2
    disc = write_json("disc.json", disconnected_counterexample().to_json_dict())
    assert main(["corpus", "disconnected", "--rho", "1/2,1/4"]) == 2
    capsys.readouterr()


def test_negative_counter_size_is_a_usage_error(capsys):
    for name in ("counter", "counter-support"):
        assert main(["corpus", name, "--k", "-1"]) == 2
        assert "counter size must be at least 0" in capsys.readouterr().err


def test_rho_zero_denominator_is_a_usage_error(capsys):
    assert main(["corpus", "disconnected", "--rho", "1/0,1"]) == 2
    assert "mass '1/0'" in capsys.readouterr().err


def test_rho_must_be_fraction_strings(capsys):
    assert main(["corpus", "disconnected", "--rho", "0.5,0.5"]) == 2
    assert "mass '0.5'" in capsys.readouterr().err


def one_site(masses, **header):
    return {"dim": 1, "alphabet": 2, "domain": [[0]], "masses": masses,
            **header}


def exit_code(write_json, capsys, command, data):
    code = main([command, write_json("input.json", data)])
    capsys.readouterr()
    return code


def test_masses_must_be_fraction_strings(write_json, capsys):
    assert exit_code(write_json, capsys, "stationary",
                     one_site({"0": "1", "1": "0"})) == 0
    for mass in (0.5, "5e-1", "0.5", " 1/2", "+1/2"):
        data = one_site({"0": mass, "1": mass})
        assert exit_code(write_json, capsys, "stationary", data) == 2, mass


def test_zero_denominator_is_an_input_error(write_json, capsys):
    for mass in ("1/0", "0/0", "1/00"):
        data = one_site({"0": mass, "1": "1"})
        assert exit_code(write_json, capsys, "stationary", data) == 2, mass


def test_json_types_are_checked(write_json, capsys):
    for data in (one_site({"0": "1"}, domain=5),
                 one_site({"0": "1"}, domain=[5]),
                 one_site(["1"]),
                 [1, 2]):
        assert exit_code(write_json, capsys, "stationary", data) == 2, data
    for words in (5, [0], [[0]]):
        data = {"dim": 1, "alphabet": 2, "domain": [[0]], "words": words}
        assert exit_code(write_json, capsys, "tiling", data) == 2, words


def test_word_keys_must_be_canonical(write_json, capsys):
    for masses in ({"00": "1"}, {" 0": "1"}, {"0": "1/2", "00": "1/2"}):
        data = one_site(masses)
        assert exit_code(write_json, capsys, "stationary", data) == 2, masses


def test_alphabet_and_dim_must_be_positive_integers(write_json, capsys):
    empty = {"dim": 1, "alphabet": 2, "domain": [], "masses": {"": "1"}}
    assert exit_code(write_json, capsys, "stationary", empty) == 0
    for header in ({"alphabet": 0}, {"alphabet": "2"}, {"alphabet": 2.5},
                   {"dim": 0}, {"dim": True}, {"dim": 1.0}):
        data = {**empty, **header}
        assert exit_code(write_json, capsys, "stationary", data) == 2, header


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "5")
    code = main(["corpus", "eca", "--k", "110"])
    assert code == 3
    capsys.readouterr()


def test_counter_size_cap_exit_code(capsys, monkeypatch):
    # 2^30 * 31 words are refused before the first one is built
    def built(*args):
        raise AssertionError("counter words were built")

    monkeypatch.setattr(corpus, "_counter_rows", built)
    for name in ("counter", "counter-support"):
        assert main(["corpus", name, "--k", "30"]) == 3
        assert "counter(30) has 2^30 * 31 words" in capsys.readouterr().err


def test_markov_window_cap_exit_code(write_json, capsys, monkeypatch):
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "64")
    path = write_json("uni.json",
                      Measure.uniform(Domain.interval(0, 1), 2).to_json_dict())
    assert main(["markov", path, "--window", "6"]) == 0
    capsys.readouterr()
    assert main(["markov", path, "--window", "40"]) == 3
    assert "window 40 passes 64 words" in capsys.readouterr().err


def test_pattern_search_trie_cap_exit_codes(write_json, capsys):
    # one word over 10^7 symbols: a trie node alone would hold 10^7
    # entries, so the searches exit 3 before allocating one, and refute
    # records the capped tiling stage and goes on to the window LPs
    big = {"dim": 1, "alphabet": 10 ** 7, "domain": [[0], [1]]}
    words = write_json("words.json", {**big, "words": ["0,0"]})
    for argv in (["tiling", words, "--max-window", "2"],
                 ["perconfig", words, "--period", "3"]):
        assert main(argv) == 3
        assert "trie passes 1000000 entries" in capsys.readouterr().err
    mu = write_json("mu.json", {**big, "masses": {"0,0": "1"}})
    code, out = run(capsys, ["refute", mu, "--max-window", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "unknown"
    assert data["detail"] == {
        "tiling": "pattern-search trie passes 1000000 entries",
        "lp [(0, 1)]": "window polytope needs 100000000000000 variables"}
    code, out = run(capsys, ["markov", mu, "--window", "5"])
    assert code == 0
    assert json.loads(out)["measure"]["masses"] == {"0,0,0,0,0": "1"}


def test_periodic_aborted_reason(write_json, capsys, monkeypatch):
    # the uniform pair has 16 admissible 4-cycle fillings, one past 15
    def capped(mu, periods):
        return engine.periodic_extension(mu, periods, config_cap=15)

    monkeypatch.setattr(cli, "periodic_extension", capped)
    path = write_json("uni.json",
                      Measure.uniform(Domain.interval(0, 1), 2).to_json_dict())
    code, out = run(capsys, ["periodic", path, "--period", "4"])
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "aborted"
    assert data["reason"] == "too many admissible configurations"


def test_torus_cell_cap_exit_code(write_json, capsys, monkeypatch):
    # an oversized torus is refused before anything per-cell is built
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "15")
    path = write_json("good.json", biased_pair().to_json_dict())
    assert main(["periodic", path, "--period", "16"]) == 3
    assert "torus has 16 cells" in capsys.readouterr().err


def test_tableau_cap_exit_code(write_json, capsys, monkeypatch):
    # biased_pair on the 4-cycle: 6 orbits, 5 rows, 60 tableau entries,
    # and the uniform warm start fails its check
    path = write_json("good.json", biased_pair().to_json_dict())
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "59")
    assert main(["periodic", path, "--period", "4"]) == 3
    assert "simplex tableau needs 5 x 12 = 60 entries" \
        in capsys.readouterr().err
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "60")
    assert main(["periodic", path, "--period", "4"]) == 0
    capsys.readouterr()


def test_internal_error_exit_code(write_json, capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("exact re-check failed")

    monkeypatch.setattr(cli, "cmd_stationary", broken)
    path = write_json("good.json", biased_pair().to_json_dict())
    assert main(["stationary", path]) == 4
    assert "internal error:" in capsys.readouterr().err


def test_one_parser_serves_every_call(write_json, capsys, monkeypatch):
    # one process, every exit code: the parser is built by the first call
    # only, and each call dispatches to the handler the module holds then
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    good = write_json("good.json", biased_pair().to_json_dict())
    skewed = write_json("skewed.json", Measure(
        Domain.interval(0, 1), 2, {(0, 1): F(1)}).to_json_dict())
    disc = write_json("disc.json",
                      disconnected_counterexample().to_json_dict())

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
        return (code, *capsys.readouterr())

    code, out, err = call(["stationary", good])
    assert (code, err) == (0, "")
    assert json.loads(out)["locally_stationary"] is True
    first = out
    code, out, err = call(["stationary", skewed])
    assert (code, err) == (1, "")
    assert json.loads(out)["locally_stationary"] is False
    code, out, err = call(["markov", good])
    assert (code, out) == (2, "")
    assert "the following arguments are required: --window" in err
    code, out, err = call([])
    assert (code, out) == (2, "")
    assert "the following arguments are required: command" in err
    assert call(["tiling", disc]) == (2, "", "error: missing field 'words'\n")
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "64")
    code, out, err = call(["markov", good, "--window", "40"])
    assert (code, out) == (3, "")
    assert err == "resource budget exceeded: window 40 passes 64 words\n"
    monkeypatch.delenv("EXTLAB_CAP_CELLS")
    dispatched, handler = [], cli.cmd_stationary

    def broken(args):
        dispatched.append(args.measure)
        raise RuntimeError("exact re-check failed")

    monkeypatch.setattr(cli, "cmd_stationary", broken)
    code, out, err = call(["stationary", good])
    assert (code, out, dispatched) == (4, "", [good])
    assert err.endswith(
        "internal error: RuntimeError: exact re-check failed\n")
    monkeypatch.setattr(cli, "cmd_stationary", handler)
    code, out, err = call(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: extlab")
    assert call(["stationary", good]) == (0, first, "")
    # one top-level parser, and no subcommand's parser built twice
    assert built.count("extlab") == 1
    assert len(built) == len(set(built)) == 10


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # every extlab line of the README's CLI example, in order, in a fresh
    # directory; `cat > f <<'EOF'` heredocs and `> f` redirects write files
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = next(b for b in re.findall(r"```sh\n(.*?)```",
                                       readme.read_text(), re.S)
                 if "\nextlab " in b)
    monkeypatch.chdir(tmp_path)
    lines = iter(block.splitlines())
    ran = []
    # the exit code of each extlab line in order (every corpus line
    # exits 0); the CI step expects the same codes
    codes = [0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0]
    # the verdict, method and window of the refutation example, which the
    # CI step checks too
    payloads = {"extlab refute disc.json --max-window 4": {
        "verdict": "refuted", "method": "entropy-chain",
        "window": [[0], [1], [2], [3]]}}
    for line in lines:
        heredoc = re.fullmatch(r"cat > (\S+) <<'EOF'", line)
        if heredoc:
            Path(heredoc[1]).write_text(
                "".join(text + "\n" for text in iter(lines.__next__, "EOF")))
        if not line.startswith("extlab "):
            continue
        argv, _, out = line.partition(" > ")
        code = main(shlex.split(argv)[1:])
        captured = capsys.readouterr()
        assert code == codes[len(ran)], (line, captured.err)
        for key, want in payloads.get(line, {}).items():
            assert json.loads(captured.out)[key] == want, (line, key)
        if out:
            Path(out).write_text(captured.out)
        ran.append(line)
    assert len(ran) == len(codes)
    assert set(payloads) <= set(ran)
