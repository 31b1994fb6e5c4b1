"""Acceptance suite: one test per criterion, one printed line per criterion.

All comparisons are exact (tolerance zero) because the arithmetic is exact
rational.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""
import json
import subprocess
import sys
import time

from parinv.generators_gl import (
    Recipe,
    build_generators,
    eval_generator,
    nonvanishing_witness,
)
from parinv.linalg import adjugate, det
from parinv.sampling import Rng, sample_group_point, sample_slice, sample_unipotent_radical
from parinv.shapes import (
    IndexPair,
    dim_g0,
    dim_group,
    dim_unipotent_radical,
    index_set,
    make_shape,
)
from parinv.verification import (
    check_adjugate_minor_lemma,
    check_independence,
    check_invariance,
    check_nonvanishing,
    check_orbit_dimension,
)

from oracles import s0_chain_monomial

SUITE_SHAPES = (
    make_shape("gl", 5, (1, 2, 2)),
    make_shape("gl", 6, (1, 2, 3)),
    make_shape("gl", 6, (3, 3)),
    make_shape("sl", 5, (1, 2, 2)),
    make_shape("o", 5, (1, 3, 1)),
    make_shape("o", 6, (2, 2, 2)),
    make_shape("sp", 4, (1, 2, 1)),
    make_shape("sp", 8, (1, 2, 2, 2, 1)),
)
GL5 = SUITE_SHAPES[0]
SL5 = SUITE_SHAPES[3]
SP8 = SUITE_SHAPES[7]

EXAMPLE_PAIRS = [
    (5, 1), (4, 1), (5, 2), (4, 2), (5, 3), (4, 3), (3, 3), (2, 3),
    (5, 4), (4, 4), (3, 4), (2, 4), (5, 5), (4, 5), (3, 5), (2, 5), (1, 5),
]


def _report(num, name, ok, elapsed):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {name} [{elapsed:.2f}s]")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_golden_values():
    start = time.perf_counter()
    gens = build_generators(GL5)
    ok = [tuple(g.pair) for g in gens] == EXAMPLE_PAIRS
    by_pair = {tuple(g.pair): g for g in gens}
    ok = ok and by_pair[(5, 1)].recipe == Recipe((5,), (), (1,))
    ok = ok and by_pair[(4, 2)].recipe == Recipe((4, 5), (), (1, 2))
    ok = ok and by_pair[(1, 5)].recipe == Recipe((1, 2, 3, 4, 5), (), (1, 2, 3, 4, 5))
    witness = nonvanishing_witness(GL5, IndexPair(4, 4))
    ok = ok and eval_generator(by_pair[(4, 4)], witness) == 1
    # the three pinned evaluations, on a seeded random group point
    x = sample_group_point(GL5, Rng(2024), 9)
    ok = ok and eval_generator(by_pair[(5, 1)], x) == x.rows[4][0]
    ok = ok and eval_generator(by_pair[(4, 2)], x) == (
        x.rows[3][0] * x.rows[4][1] - x.rows[3][1] * x.rows[4][0]
    )
    ok = ok and eval_generator(by_pair[(1, 5)], x) == det(x)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    _report(1, "pinned golden values", ok, elapsed)


def test_criterion_2_monomial_restriction():
    start = time.perf_counter()
    sigma0 = index_set(GL5).sigma0
    gens0 = [g for g in build_generators(GL5) if g.pair in sigma0]
    ok = True
    for t in range(20):
        m = sample_slice(GL5, Rng(7, t), 10, "s0")
        # the pinned sign: restriction of J(2,3) is -s51 * s42 * s23
        j23 = next(g for g in gens0 if g.pair == IndexPair(2, 3))
        ok = ok and eval_generator(j23, m) == -(m.rows[4][0] * m.rows[3][1] * m.rows[1][2])
        for g in gens0:
            ok = ok and eval_generator(g, m) == s0_chain_monomial(GL5, g, m)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report(2, "monomial restriction on the flattened slice", ok, elapsed)


def test_criterion_3_invariance_suite():
    start = time.perf_counter()
    ok = True
    for shape in SUITE_SHAPES:
        result, _ = check_invariance(shape, seed=1, trials=100, bound=10)
        ok = ok and result.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(3, "invariance, 8 shapes x 100 trials", ok, elapsed)


def test_criterion_4_independence_ranks():
    start = time.perf_counter()
    expectations = {GL5: 17, SL5: 16, SP8: 22}
    ok = True
    for shape, expected in expectations.items():
        result = check_independence(shape, seed=1, bound=10)
        details = result.details
        ok = ok and result.passed
        ok = ok and details["ranks"] == [expected]
        if shape is SP8:
            ok = ok and details["gamma0_ranks"] == [3]
    _report(4, "Jacobian tangent ranks 17/16/22 with central rank 3", ok, time.perf_counter() - start)


def test_criterion_5_count_identities():
    start = time.perf_counter()
    ok = True
    for shape in SUITE_SHAPES:
        gl = shape.as_gl()
        ok = ok and len(index_set(gl).pairs) == shape.n**2 - dim_unipotent_radical(gl)
        orbit_check = check_orbit_dimension(shape, seed=1, bound=10)
        ok = ok and orbit_check.passed
        orbit = max(orbit_check.details["orbit_dims"])
        ok = ok and orbit == dim_unipotent_radical(shape)
        if shape.kind.value in ("o", "sp"):
            ok = ok and len(index_set(shape).pairs) + dim_g0(shape) == dim_group(shape) - orbit
    # the worked symplectic example, explicitly
    ok = ok and len(index_set(SP8).pairs) == 19 and dim_g0(SP8) == 3
    ok = ok and 19 + 3 == 36 - 14 == dim_group(SP8) - dim_unipotent_radical(SP8)
    _report(5, "count identities by enumeration and orbit rank", ok, time.perf_counter() - start)


def test_criterion_6_adjugate_minor_lemma():
    """The lemma is proved from supports; the statement itself, adj(xg) having
    the trailing-row minors of adj(x) for upper unitriangular g, is sampled here."""
    start = time.perf_counter()
    ok = True
    for n in (4, 5, 6):
        ambient, borel = make_shape("gl", n, (n,)), make_shape("gl", n, (1,) * n)
        ok = ok and check_adjugate_minor_lemma(ambient).passed
        for t in range(50):
            rng = Rng(1, t)
            x = sample_group_point(ambient, rng, 10)
            g = sample_unipotent_radical(borel, rng, 10)
            # a trailing run of rows (0-based) against as many columns, chosen at random
            rows = list(range(rng.randint(0, n - 1), n))
            cols = sorted(sorted(range(n), key=lambda _: rng.next_u64())[:len(rows)])
            ok = ok and det(adjugate(x @ g).submatrix(rows, cols)) == det(adjugate(x).submatrix(rows, cols))
    _report(6, "adjugate trailing-minor lemma, proved and sampled 50 times each", ok, time.perf_counter() - start)


def test_criterion_7_nonvanishing_witnesses():
    start = time.perf_counter()
    ok = True
    for shape in SUITE_SHAPES:
        result = check_nonvanishing(shape, seed=1, bound=10)
        ok = ok and result.passed and result.details["missing"] == []
    _report(7, "nonvanishing witnesses within 10 samples", ok, time.perf_counter() - start)


def test_criterion_8_negative_controls():
    start = time.perf_counter()
    ok = True
    for shape in SUITE_SHAPES:
        _, result = check_invariance(shape, seed=1, trials=100, bound=10)
        ok = ok and result.passed and result.details["broken"] >= 3
    _report(8, "negative controls: mutated descriptors fail", ok, time.perf_counter() - start)


def test_criterion_9_determinism():
    start = time.perf_counter()
    argv = [
        sys.executable, "-m", "parinv.cli",
        "verify", "--group", "sp", "--n", "4", "--parts", "1,2,1",
        "--seed", "11", "--trials", "10", "--bound", "8",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    report = json.loads(first.stdout)
    ok = ok and report["pass"] is True and "note" in report
    _report(9, "byte-identical verify reports", ok, time.perf_counter() - start)
