import json

import pytest

from parinv import linalg, verification
from parinv.cli import ACCEPTANCE_SHAPES
from parinv.generators_gl import Generator, MinorRecipe
from parinv.generators_osp import build_system, eval_family
from parinv.linalg import Matrix
from parinv.sampling import Rng, sample_group_point
from parinv.shapes import make_shape
from parinv.verification import (
    check_adjugate_minor_lemma,
    check_bruhat_containment,
    check_count_identity,
    check_golden_values,
    check_independence,
    check_index_combinatorics,
    check_invariance,
    check_monomial_restriction,
    check_negative_controls,
    check_nonvanishing,
    check_orbit_dimension,
    check_slice_support,
    independence_rank,
    mutated_generators,
    orbit_dimension,
    run_suite,
)

GL5 = make_shape("gl", 5, (1, 2, 2))
SL5 = make_shape("sl", 5, (1, 2, 2))
SP4 = make_shape("sp", 4, (1, 2, 1))
O5 = make_shape("o", 5, (1, 3, 1))


def _spy_exact_rank(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape of every matrix that verification ranks over Q."""
    calls = []
    real = verification.rank

    def spy(m):
        calls.append((m.nrows, m.ncols))
        return real(m)

    monkeypatch.setattr(verification, "rank", spy)
    return calls


def _no_residues(m):
    raise ZeroDivisionError("residue certificates disabled")


def test_orbit_dimension_identity_is_fixed_point(monkeypatch):
    exact = _spy_exact_rank(monkeypatch)
    assert orbit_dimension(GL5, Matrix.identity(5)) == 0
    assert orbit_dimension(SP4, Matrix.identity(4)) == 0
    # a zero residue rank certifies nothing: both went to the exact rank
    assert exact == [(8, 25), (3, 16)]


def test_independence_rank_at_identity_is_exact(monkeypatch):
    # the identity is not generic: the Jacobians drop rank, so no residue
    # rank meets its bound and the exact ranks decide; without a ratio
    # layer the J Jacobian is the whole matrix and is ranked once
    exact = _spy_exact_rank(monkeypatch)
    assert independence_rank(GL5, Matrix.identity(5)) == {
        "rank": 3, "expected": 17, "j_rank": 3, "j_expected": 17,
        "gamma0_rank": 0, "gamma0_expected": 0,
    }
    assert independence_rank(make_shape("sp", 4, (2, 2)), Matrix.identity(4)) == {
        "rank": 2, "expected": 7, "j_rank": 2, "j_expected": 7,
        "gamma0_rank": 0, "gamma0_expected": 0,
    }
    assert exact == [(17, 25), (7, 10)]


def test_certified_rank_falls_back_below_the_bound():
    m = Matrix([[linalg.P, 0], [0, 1]])  # rank 1 mod P, rank 2 over Q
    assert verification._certified_rank(lambda f: f.reduce(m)) == 2


def _generic_point(shape, seed=21):
    for t in range(20):
        x = sample_group_point(shape, Rng(seed, t), 10).matrix
        if verification._in_generic_position(shape, x):
            return x
    raise AssertionError("no generic point found")


@pytest.mark.parametrize("kind,n,parts", ACCEPTANCE_SHAPES)
def test_certified_ranks_equal_exact_only_ranks(kind, n, parts, monkeypatch):
    shape = make_shape(kind, n, parts)
    x = _generic_point(shape)
    certified = independence_rank(shape, x), orbit_dimension(shape, x)
    # with reduction mod P refused, every rank is the exact rational one
    monkeypatch.setattr(linalg, "reduce_mod_p", _no_residues)
    assert (independence_rank(shape, x), orbit_dimension(shape, x)) == certified


def test_osp_combined_rank_certified_by_exact_gamma_rank(monkeypatch):
    x = _generic_point(SP4)
    exact = _spy_exact_rank(monkeypatch)
    r = independence_rank(SP4, x)
    # four central ratio rows of rank 3: only they were ranked over Q, and
    # rank(J; Gamma) = rows(J) + rank(Gamma) came from the residue rank
    assert exact == [(4, 10)]
    assert r == {
        "rank": 7, "expected": 7, "j_rank": 4, "j_expected": 4,
        "gamma0_rank": 3, "gamma0_expected": 3,
    }


def test_osp_combined_rank_below_the_bound_is_exact(monkeypatch):
    # O(6) (2,2,2): the central ratio collapses into the J-field, so the
    # residue rank misses rows(J) + rank(Gamma) and the exact rank decides
    shape = make_shape("o", 6, (2, 2, 2))
    x = _generic_point(shape)
    exact = _spy_exact_rank(monkeypatch)
    r = independence_rank(shape, x)
    assert exact == [(4, 15), (13, 15)]
    assert (r["rank"], r["j_rank"], r["gamma0_rank"]) == (9, 9, 1)


def test_orbit_dimension_generic_values():
    x = sample_group_point(GL5, Rng(70), 8).matrix
    assert orbit_dimension(GL5, x) == 8
    y = sample_group_point(SP4, Rng(70), 8).matrix
    assert orbit_dimension(SP4, y) == 3


def test_independence_rank_values():
    x = sample_group_point(GL5, Rng(71), 8).matrix
    assert independence_rank(GL5, x) == {
        "rank": 17, "expected": 17, "j_rank": 17, "j_expected": 17,
        "gamma0_rank": 0, "gamma0_expected": 0,
    }
    y = sample_group_point(SL5, Rng(71), 8).matrix
    r = independence_rank(SL5, y)
    assert (r["rank"], r["expected"]) == (16, 16)
    z = sample_group_point(make_shape("gl", 2, (2,)), Rng(71), 8).matrix
    assert independence_rank(make_shape("gl", 2, (2,)), z)["rank"] == 4


def test_independence_rank_osp_families():
    for _ in range(4):
        rng = Rng(72)
        x = sample_group_point(SP4, rng, 8).matrix
        r = independence_rank(SP4, x)
        if r["rank"] == 7:
            assert r["gamma0_rank"] == 3 and r["j_rank"] == 4
            return
    raise AssertionError("no generic point found")


def test_check_invariance_passes_and_is_deterministic():
    a = check_invariance(GL5, seed=5, trials=8, bound=8)
    b = check_invariance(GL5, seed=5, trials=8, bound=8)
    assert a.passed and b.passed
    assert a.to_json_obj() == b.to_json_obj()


def test_check_invariance_catches_broken_descriptor():
    # a coordinate that is not an invariant, disguised as a generator
    broken = Generator(None, MinorRecipe((1,), (2,)))
    result = check_invariance(GL5, seed=6, trials=30, bound=8, extra_family=[("broken", broken)])
    assert not result.passed
    ce = result.counterexample
    assert ce is not None
    assert ce["generator"] == "broken"
    assert ce["value_at_x"] != ce["value_at_conjugate"]
    # the counterexample is replayable: matrices are serialized in full
    assert len(ce["x"]) == 5 and len(ce["g"]) == 5


def test_identity_conjugation_is_trivially_invariant():
    family = build_system(GL5).family()
    assert len(family) == 17
    x = sample_group_point(GL5, Rng(73), 8).matrix
    assert eval_family(family, x) == eval_family(family, x)


def test_adjugate_minor_lemma_check():
    for n in (4, 5, 6):
        shape = make_shape("gl", n, (n,))
        result = check_adjugate_minor_lemma(shape, seed=7, trials=10, bound=8)
        assert result.passed, result.counterexample


def test_monomial_restriction_check():
    assert check_monomial_restriction(GL5, seed=8, points=10, bound=9).passed
    assert check_monomial_restriction(SL5, seed=8, points=10, bound=9).passed


def test_bruhat_containment_check():
    assert check_bruhat_containment(GL5, seed=9, trials=10, bound=8).passed
    assert check_bruhat_containment(make_shape("gl", 6, (3, 3)), seed=9, trials=10, bound=8).passed


def test_slice_support_check():
    assert check_slice_support(GL5, seed=10, samples=8, bound=9).passed
    result = check_slice_support(SP4, seed=10, samples=8, bound=9)
    assert result.passed
    assert result.details["s_circ_sign"] == -1


def test_index_and_count_checks():
    for shape in (GL5, SL5, SP4, O5):
        assert check_index_combinatorics(shape).passed
        orbit = check_orbit_dimension(shape, seed=11, bound=8)
        assert orbit.passed
        assert check_count_identity(shape, max(orbit.details["orbit_dims"])).passed


def test_count_identity_rejects_wrong_orbit():
    assert not check_count_identity(GL5, 7).passed


def test_golden_values_checks():
    assert check_golden_values(GL5).passed
    assert check_golden_values(make_shape("sp", 8, (1, 2, 2, 2, 1))).passed
    assert check_golden_values(make_shape("gl", 6, (1, 2, 3))).passed


def test_nonvanishing_check():
    for shape in (GL5, SP4):
        result = check_nonvanishing(shape, seed=12, bound=8)
        assert result.passed
        assert result.details["missing"] == []


def test_mutated_generators_are_fresh_recipes():
    from parinv.generators_gl import build_generators

    muts = mutated_generators(GL5)
    assert len(muts) >= 3
    genuine = {g.recipe for g in build_generators(GL5)}
    assert all(gen.recipe not in genuine for _, gen in muts)


def test_negative_controls_fail_invariance():
    for shape in (GL5, SP4):
        result = check_negative_controls(shape, seed=13, trials=40, bound=8)
        assert result.passed
        assert result.details["broken"] >= 3


def test_independence_checks_pass():
    for shape in (GL5, SL5, SP4, O5):
        assert check_independence(shape, seed=14, bound=10).passed


def test_run_suite_passes_and_is_byte_deterministic():
    r1 = run_suite(GL5, seed=3, trials=6, bound=8)
    r2 = run_suite(GL5, seed=3, trials=6, bound=8)
    assert r1.passed
    assert r1.to_canonical_json() == r2.to_canonical_json()
    payload = json.loads(r1.to_canonical_json())
    assert payload["pass"] is True
    assert payload["shape"] == {"kind": "gl", "n": 5, "parts": [1, 2, 2]}
    assert "duration_ms" not in payload
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(set(names), key=names.index)  # stable order, no dupes
    assert r1.duration_ms > 0


def test_run_suite_reports_slice_sign_for_osp():
    report = run_suite(SP4, seed=3, trials=4, bound=8)
    assert report.passed
    assert report.s_circ_sign == -1


def test_run_suite_inject_mutation_fails_with_counterexample():
    report = run_suite(GL5, seed=3, trials=25, bound=8, inject_mutation=True)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["invariance"]
    assert failing[0].counterexample["generator"].startswith("injected:")
