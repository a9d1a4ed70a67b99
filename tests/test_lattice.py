import itertools
import random

import pytest

from extlab.lattice import (Domain, FiniteModule, Envelope, envelope_for,
                            verify_envelope, translates_inside, cell_cap)

from support import reference_verify_envelope


def test_domain_canonical_order():
    d = Domain(2, [(1, 0), (0, 1), (0, 0), (1, 0)])
    assert d.points == ((0, 0), (0, 1), (1, 0))
    assert len(d) == 3
    assert (0, 1) in d and (2, 2) not in d


def test_domain_dimension_validation():
    with pytest.raises(ValueError):
        Domain(2, [(0,)])


def test_box_and_interval():
    assert Domain.box(1, 3).points == ((0,), (1,), (2,))
    assert Domain.interval(-1, 1).points == ((-1,), (0,), (1,))
    b = Domain.box(2, (2, 3), origin=(1, 0))
    assert len(b) == 6
    assert b.bounding_box() == [(1, 2), (0, 2)]


def test_shift_preserves_order():
    d = Domain(2, [(0, 0), (2, 1)])
    assert d.shift((1, -1)).points == ((1, -1), (3, 0))


def test_translates_inside_interval():
    # [DERIVED] direct enumeration: U={0,1,3} fits in [0..5] at 3 offsets
    U = Domain(1, [(0,), (1,), (3,)])
    W = Domain.interval(0, 5)
    assert translates_inside(U, W) == [(0,), (1,), (2,)]


def test_translates_inside_brute_force():
    rng = random.Random(5)
    for _ in range(30):
        U = Domain(2, [(rng.randrange(3), rng.randrange(3))
                       for _ in range(rng.randint(1, 4))])
        W = Domain.box(2, (rng.randint(1, 4), rng.randint(1, 4)))
        got = set(translates_inside(U, W))
        want = set()
        for k in itertools.product(range(-5, 6), repeat=2):
            if all((p[0] + k[0], p[1] + k[1]) in W for p in U.points):
                want.add(k)
        assert got == want


def test_module_quotient_and_injectivity():
    m = FiniteModule((4, 2))
    assert m.size == 8
    assert m.quotient((5, -1)) == (1, 1)
    assert m.injective_on(Domain(2, [(0, 0), (1, 1), (3, 0)]))
    assert not m.injective_on(Domain(2, [(0, 0), (4, 2)]))


def test_envelope_for_doubles_bounding_box():
    U = Domain(2, [(0, 0), (2, 1)])
    env = envelope_for(U)
    assert env.module.periods == (6, 4)


def test_doubled_envelope_verifies_1d():
    for pts in [[(0,), (1,)], [(0,), (2,)], [(0,), (1,), (4,)]]:
        env = envelope_for(Domain(1, pts))
        assert verify_envelope(env).status == "pass"


def test_undoubled_row_envelope_fails():
    # a full row with undoubled periods has an unliftable straddling shift
    U = Domain(2, [(x, 1) for x in range(1, 5)])
    chk = verify_envelope(Envelope(FiniteModule((4, 2)), U))
    assert chk.status == "fail"
    assert chk.condition == "liftable"
    V, g = chk.witness
    assert set(V) == {(1, 1), (2, 1)} and g == (3, 0)


def test_envelope_injectivity_failure():
    env = Envelope(FiniteModule((2,)), Domain(1, [(0,), (2,)]))
    assert verify_envelope(env).condition == "injective"


def test_envelope_partial_verification_is_flagged():
    U = Domain(1, [(0,), (1,), (2,)])
    chk = verify_envelope(envelope_for(U), max_subset_size=2)
    assert chk.status == "partial"


def test_verify_envelope_matches_subset_enumeration():
    # full EnvelopeCheck equality, witness included, against the oracle
    # that tries every subset against every residue
    rng = random.Random(11)
    seen, more = set(), set()
    for case in range(480):
        D = 1 + case % 3
        # sides up to 3 at D = 3: the oracle tries every residue
        coords = (-1, 1) if D == 3 else (-3, 2)
        points = [[rng.randint(*coords) for _ in range(D)]
                  for _ in range(rng.randint(1, 5 if D == 1 else 6))]
        if D > 1 and case // 3 % 4 == 3:
            # a flat last axis: side 1, so a period-1 axis for kind 1
            for p in points:
                p[-1] = 0
        U = Domain(D, points)
        sides = [hi - lo + 1 for lo, hi in U.bounding_box()]
        kind = case // 3 % 3
        if kind == 0:
            env = envelope_for(U)
        elif kind == 1:
            env = Envelope(FiniteModule(sides), U)
        else:
            env = Envelope(FiniteModule([rng.randint(1, 5) for _ in sides]),
                           U)
        for cap in (None, 1, 2, 3):
            got = verify_envelope(env, max_subset_size=cap)
            assert got == reference_verify_envelope(env, cap), (env, cap)
            seen.add((kind, got.status, got.condition))
            if D == 3 or 1 in env.module.periods:
                more.add((D == 3, got.status, got.condition))
    # every kind of period vector reaches the outcomes it can reach
    assert {(0, "pass", ""), (0, "partial", ""),
            (1, "pass", ""), (1, "fail", "liftable"),
            (2, "fail", "injective"), (2, "fail", "liftable")} <= seen
    assert not any(kind == 0 and status == "fail"
                   for kind, status, _ in seen)
    # and so do D = 3 windows and envelopes with a period-1 axis
    for d3 in (True, False):
        assert {(d3, "pass", ""), (d3, "fail", "liftable")} <= more


def test_doubled_envelope_of_4x4_box_passes_exhaustively():
    assert verify_envelope(envelope_for(Domain.box(2, 4))).status == "pass"


def test_cell_cap_env_override(monkeypatch):
    monkeypatch.setenv("EXTLAB_CAP_CELLS", "123")
    assert cell_cap() == 123
    monkeypatch.delenv("EXTLAB_CAP_CELLS")
    assert cell_cap() == 10 ** 6
