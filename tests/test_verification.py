import hashlib
import json
from dataclasses import replace
from fractions import Fraction

import pytest

from parinv import linalg, verification
from parinv.cli import ACCEPTANCE_SHAPES
from parinv.generators_gl import Generator, Recipe, build_generators
from parinv.generators_osp import build_system, eval_family
from parinv.linalg import P, Matrix, det
from parinv.sampling import Rng, anti_identity, sample_group_point, sample_slice, slice_pattern
from parinv.shapes import dim_unipotent_radical, index_set, make_shape
from parinv.verification import (
    check_adjugate_minor_lemma,
    check_bruhat_containment,
    check_count_identity,
    check_golden_values,
    check_independence,
    check_index_combinatorics,
    check_invariance,
    check_monomial_restriction,
    check_nonvanishing,
    check_orbit_dimension,
    check_slice_support,
    independence_rank,
    mutated_generators,
    orbit_dimension,
    run_suite,
)

from oracles import (
    GF_P,
    QQ,
    forward_jacobian,
    fraction_mod_p,
    negative_controls_per_mutant,
    orbit_rows_dense,
    s0_chain_monomial,
    tangent_directions,
    valid_shapes,
)

GL5 = make_shape("gl", 5, (1, 2, 2))
SL5 = make_shape("sl", 5, (1, 2, 2))
SP4 = make_shape("sp", 4, (1, 2, 1))
O5 = make_shape("o", 5, (1, 3, 1))
SP8 = make_shape("sp", 8, (1, 2, 2, 2, 1))
# the benchmark's ladder shapes: big-entry Jacobians at n = 8 to 12
LADDER_SHAPES = (("gl", 8, (2, 3, 3)), ("gl", 10, (2, 3, 5)), ("o", 9, (2, 2, 1, 2, 2)), ("sp", 12, (2, 2, 4, 2, 2)))


def _spy_exact_rank(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape of every matrix verification ranks by exact elimination:
    those whose residue rank misses min(rows, cols), so ``rank`` cannot certify it."""
    calls = []
    real = verification.rank

    def spy(m):
        if linalg.rank_mod_p(m.num) < min(m.nrows, m.ncols):
            calls.append((m.nrows, m.ncols))
        return real(m)

    monkeypatch.setattr(verification, "rank", spy)
    return calls


def _no_certificate(rows):
    return -1  # meets no bound, so every rank goes to the exact elimination


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


def _generic_point(shape, seed=21):
    for t in range(20):
        x = sample_group_point(shape, Rng(seed, t), 10)
        if verification._in_generic_position(shape, x):
            return x
    raise AssertionError("no generic point found")


@pytest.mark.parametrize("kind,n,parts", ACCEPTANCE_SHAPES + LADDER_SHAPES)
def test_certified_ranks_equal_exact_only_ranks(kind, n, parts, monkeypatch):
    shape = make_shape(kind, n, parts)
    x = _generic_point(shape)
    certified = independence_rank(shape, x), orbit_dimension(shape, x)
    # with no residue rank meeting a bound, every rank is the exact rational one
    monkeypatch.setattr(linalg, "rank_mod_p", _no_certificate)
    monkeypatch.setattr(verification, "rank_mod_p", _no_certificate)
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


def _label(shape):
    return f"{shape.kind.value}{shape.n}-" + "-".join(map(str, shape.parts))


def _row_scale(recipe, x: Matrix) -> Fraction:
    """The factor c_g of a generator's Jacobian row at x: 1 for a minor,
    det x for a stacked generator."""
    return det(x) if recipe.adj_rows else Fraction(1)


def _assert_rows_match_forward_mode(shape, x, exact=True):
    """The integer tangent rows at the numerator X of x are c_g times the
    forward-mode derivatives at X, mod P and (with ``exact``) over Q, and the
    residue rows are the exact rows reduced."""
    system = build_system(shape)
    gens = system.j + system.ratios
    big = Matrix(x.num)
    scales = [_row_scale(g.recipe, big) for g in gens]
    residues = verification._tangent_rows(shape, gens, x.num, P)
    checks = [(GF_P, residues, lambda c, w: fraction_mod_p(c) * w % P)]
    if exact:
        rows = verification._tangent_rows(shape, gens, x.num)
        assert residues == [[v % P for v in row] for row in rows]
        checks.append((QQ, rows, lambda c, w: c * w))
    for f, got, times in checks:
        point = f.reduce(big)
        want = forward_jacobian(gens, point, tangent_directions(shape, point, f), f)
        assert got == [[times(c, w) for w in row] for c, row in zip(scales, want)]


@pytest.mark.parametrize("shape", valid_shapes(5), ids=_label)
def test_tangent_jacobian_equals_forward_mode_on_small_shapes(shape):
    # the reverse-mode gradients contracted with the tangent basis give c_g
    # times the matrices the per-direction forward loop builds, over Q and mod P
    for t in range(2):
        x = sample_group_point(shape, Rng(81, t), 10)
        _assert_rows_match_forward_mode(shape, x)


@pytest.mark.parametrize("kind,n,parts", LADDER_SHAPES)
def test_tangent_jacobian_equals_forward_mode_on_ladder_shapes(kind, n, parts):
    shape = make_shape(kind, n, parts)
    x = sample_group_point(shape, Rng(82), 10)
    _assert_rows_match_forward_mode(shape, x, exact=n < 9)


def _spy_adjugate_rows(monkeypatch) -> list[int]:
    """Record the size of every matrix verification takes an adjugate of."""
    sizes = []
    real = verification.adjugate_rows

    def spy(a, p=None):
        sizes.append(len(a))
        return real(a, p)

    monkeypatch.setattr(verification, "adjugate_rows", spy)
    return sizes


@pytest.mark.parametrize("kind,n,parts", LADDER_SHAPES)
def test_residue_gradients_border_the_chains(kind, n, parts, monkeypatch):
    # at the first seed-1 independence point, every J recipe's residue adjugate
    # comes from bordering its chain: the one adjugate taken is that of x
    shape = make_shape(kind, n, parts)
    for attempt in range(27):
        rng = Rng(1, verification._stream(verification._S_INDEPENDENCE, attempt))
        x = sample_group_point(shape, rng, 10)
        if verification._in_generic_position(shape, x):
            break
    sizes = _spy_adjugate_rows(monkeypatch)
    verification._tangent_rows(shape, build_system(shape).j, x.num, P)
    assert sizes == [n]


def _chain_pivot_points(shape):
    """Integer points whose chain n meets a pivot that is 0 mod P but not over Q:
    x_n1 = P; the leading 2-minor of rows n, n-1 equal to P; x_(n-1)1 = P, the
    minor J(n-1, 1) alone."""
    n = shape.n
    base = [list(row) for row in sample_group_point(shape, Rng(86), 10).num]
    points = []
    for edits in (
        {(n - 1, 0): P},
        {(n - 1, 0): 1, (n - 1, 1): 0, (n - 2, 1): P},
        {(n - 2, 0): P},
    ):
        x = [list(row) for row in base]
        for (r, c), v in edits.items():
            x[r][c] = v
        assert det(Matrix(x)) != 0
        points.append(x)
    return points


@pytest.mark.parametrize("kind,n,parts", [("gl", 5, (1, 2, 2)), ("gl", 8, (2, 3, 3))])
def test_chain_pivots_zero_mod_p_fall_back_to_adjugates(kind, n, parts, monkeypatch):
    # a Schur complement that is 0 mod P sends its recipe (and the rest of its
    # chain) to adjugate_rows: the residue rows are still the exact rows reduced,
    # and the certified ranks are the exact ones
    shape = make_shape(kind, n, parts)
    gens = build_system(shape).j
    for x in _chain_pivot_points(shape):
        with monkeypatch.context() as m:
            sizes = _spy_adjugate_rows(m)
            residues = verification._tangent_rows(shape, gens, x, P)
            assert len(sizes) > 1  # the fallback ran
        exact = verification._tangent_rows(shape, gens, x)
        assert residues == [[v % P for v in row] for row in exact]
        point = Matrix(x)
        certified = independence_rank(shape, point)
        with monkeypatch.context() as m:
            m.setattr(linalg, "rank_mod_p", _no_certificate)
            m.setattr(verification, "rank_mod_p", _no_certificate)
            assert independence_rank(shape, point) == certified


@pytest.mark.parametrize(
    "shape",
    [s for s in valid_shapes(5) if s.ell > 1] + [make_shape("sp", 8, (1, 2, 2, 2, 1))],
    ids=_label,
)
def test_orbit_rows_equal_dense_commutators(shape):
    x = sample_group_point(shape, Rng(84), 10)
    # the rows at the numerator X = d x are d times the rows at x
    assert Matrix(verification._orbit_rows(shape, x.num)) == orbit_rows_dense(shape, x) * x.den


def test_generator_systems_and_index_sets_are_memoised():
    shape = make_shape("o", 9, (2, 2, 1, 2, 2))
    assert build_system(shape) is build_system(make_shape("o", 9, (2, 2, 1, 2, 2)))
    assert index_set(shape) is index_set(make_shape("o", 9, (2, 2, 1, 2, 2)))


def test_orbit_dimension_generic_values():
    x = sample_group_point(GL5, Rng(70), 8)
    assert orbit_dimension(GL5, x) == 8
    y = sample_group_point(SP4, Rng(70), 8)
    assert orbit_dimension(SP4, y) == 3


def test_independence_rank_values():
    x = sample_group_point(GL5, Rng(71), 8)
    assert independence_rank(GL5, x) == {
        "rank": 17, "expected": 17, "j_rank": 17, "j_expected": 17,
        "gamma0_rank": 0, "gamma0_expected": 0,
    }
    y = sample_group_point(SL5, Rng(71), 8)
    r = independence_rank(SL5, y)
    assert (r["rank"], r["expected"]) == (16, 16)
    z = sample_group_point(make_shape("gl", 2, (2,)), Rng(71), 8)
    assert independence_rank(make_shape("gl", 2, (2,)), z)["rank"] == 4


def test_independence_rank_osp_families():
    for _ in range(4):
        rng = Rng(72)
        x = sample_group_point(SP4, rng, 8)
        r = independence_rank(SP4, x)
        if r["rank"] == 7:
            assert r["gamma0_rank"] == 3 and r["j_rank"] == 4
            return
    raise AssertionError("no generic point found")


def test_check_invariance_passes_and_is_deterministic():
    a = check_invariance(GL5, seed=5, trials=8, bound=8)
    b = check_invariance(GL5, seed=5, trials=8, bound=8)
    assert a[0].passed and b[0].passed
    assert [r.to_json_obj() for r in a] == [r.to_json_obj() for r in b]


def test_identity_conjugation_is_trivially_invariant():
    family = build_system(GL5).family()
    assert len(family) == 17
    x = sample_group_point(GL5, Rng(73), 8)
    assert eval_family(family, x) == eval_family(family, x)


def test_adjugate_minor_lemma_check():
    for shape in (make_shape("gl", 4, (4,)), GL5, SL5, O5, SP4, make_shape("sp", 8, (1, 2, 2, 2, 1))):
        result = check_adjugate_minor_lemma(shape)
        assert result.passed, result.counterexample
        stacked = sum(1 for g in build_system(shape).j if g.recipe.adj_rows)
        assert result.details == {"n": shape.n, "row_sets": shape.n + stacked}


def test_closure_names_the_first_operation_leaving_a_row_set():
    borel = [(1, 2), (1, 3), (2, 3)]
    assert verification._closed({1, 3}, borel) == (1, 2)
    assert verification._closed({2}, borel) == (2, 3)
    assert all(verification._closed(set(range(a, 4)), borel) is None for a in (1, 2, 3, 4))


def test_adjugate_minor_lemma_flags_stacked_rows_off_the_trailing_run(monkeypatch):
    system = build_system(GL5)
    k = next(k for k, g in enumerate(system.j) if g.recipe.adj_rows)
    recipe = system.j[k].recipe
    shifted = tuple(r - 1 for r in recipe.adj_rows)  # ends at row 4, so row 5 is outside
    j = list(system.j)
    j[k] = Generator(j[k].pair, Recipe(recipe.x_rows, shifted, recipe.cols))
    monkeypatch.setattr(verification, "build_system", lambda shape: replace(system, j=tuple(j)))
    result = check_adjugate_minor_lemma(GL5)
    assert not result.passed
    assert result.counterexample == {"rows": list(shifted), "operation": [shifted[0], 5]}


def test_sampled_bruhat_products_are_invertible_on_the_pattern():
    """The sampled statement behind the Bruhat check: N_L w0 B, for N_L on
    the diagonal and same-block upper positions and B invertible upper
    triangular, is invertible and nonzero only on the slice pattern."""
    for shape in (GL5, SL5, make_shape("gl", 6, (3, 3)), make_shape("gl", 6, (1, 2, 3))):
        n = shape.n
        pattern = slice_pattern(shape, "s")
        for t in range(25):
            rng = Rng(9, t)
            levi = [[int(r == c) for c in range(n)] for r in range(n)]
            upper = [[0] * n for _ in range(n)]
            for i in range(n):
                upper[i][i] = rng.nonzero_int(8)
                for j in range(i + 1, n):
                    upper[i][j] = rng.randint(-8, 8)
                    if shape.block_of(i + 1) == shape.block_of(j + 1):
                        levi[i][j] = rng.randint(-8, 8)
            m = Matrix(levi) @ anti_identity(n) @ Matrix(upper)
            assert det(m) != 0
            assert {(i, j) for i, row in enumerate(m.num, 1) for j, v in enumerate(row, 1) if v} <= pattern


def test_bruhat_containment_check():
    for shape in (GL5, SL5, make_shape("gl", 6, (3, 3)), make_shape("gl", 1, (1,))):
        result = check_bruhat_containment(shape)
        assert result.passed and result.counterexample is None
        assert result.details == {"off_pattern": [], "unfilled": []}


@pytest.mark.parametrize("change", ["gain", "lose"])
def test_bruhat_containment_fails_off_the_exact_pattern(monkeypatch, change):
    pattern = slice_pattern(GL5, "s")
    outside = min({(i, j) for i in range(1, 6) for j in range(1, 6)} - pattern)
    moved = outside if change == "gain" else min(pattern)
    monkeypatch.setattr(verification, "slice_pattern", lambda shape, variant: pattern ^ {moved})
    result = check_bruhat_containment(GL5)
    assert not result.passed
    if change == "gain":
        assert result.details == {"off_pattern": [], "unfilled": [moved]}
    else:
        assert result.details == {"off_pattern": [moved], "unfilled": []}


def test_monomial_restriction_check():
    for shape, upper in ((GL5, 7), (SL5, 6), (make_shape("gl", 8, (2, 3, 3)), 15), (make_shape("gl", 1, (1,)), 1)):
        result = check_monomial_restriction(shape)
        assert result.passed and result.counterexample is None
        assert result.details == {"upper_generators": upper}


def test_forced_matching_is_the_only_matching_or_none():
    full = {(r, c) for r in (1, 2) for c in (1, 2)}
    assert verification._forced_matching((1, 2), (1, 2), full) is None
    assert verification._forced_matching((1, 2), (1, 2), full - {(1, 2)}) == {(1, 1), (2, 2)}
    assert verification._forced_matching((1, 2), (1, 2), {(1, 1), (2, 1)}) is None


def _patched_pattern(monkeypatch, variant, change):
    """Patch verification's slice_pattern so that the variant's pattern is xor'ed with change."""
    real = verification.slice_pattern
    monkeypatch.setattr(
        verification, "slice_pattern", lambda shape, v: real(shape, v) ^ change if v == variant else real(shape, v)
    )


def test_monomial_restriction_names_a_pair_with_a_second_matching(monkeypatch):
    # (5, 2) on S0 gives row 5 of J(4, 2) a second column, so rows 4, 5 both see columns 1, 2
    _patched_pattern(monkeypatch, "s0", {(5, 2)})
    result = check_monomial_restriction(GL5)
    assert not result.passed
    assert result.counterexample == {"pair": [4, 2], "matching": None}


def test_sampled_flattened_slice_points_take_the_chain_monomials():
    """The sampled statement behind the monomial proof: at points of S0,
    each upper generator equals its signed chain monomial."""
    for shape in (GL5, SL5, make_shape("gl", 8, (2, 3, 3))):
        sigma0 = index_set(shape).sigma0
        upper = [(str(g.pair), g) for g in build_generators(shape) if g.pair in sigma0]
        for t in range(20):
            m = sample_slice(shape, Rng(8, t), 9, variant="s0")
            assert eval_family(upper, m) == [s0_chain_monomial(shape, g, m) for _, g in upper]


def test_slice_support_check():
    for shape, sign in ((GL5, None), (SL5, None), (SP4, -1), (O5, 1), (make_shape("o", 6, (2, 2, 2)), 1)):
        result = check_slice_support(shape)
        assert result.passed
        assert result.details == ({"problems": []} if sign is None else {"s_circ_sign": sign, "problems": []})


_OFF_O5 = min({(i, j) for i in range(1, 6) for j in range(1, 6)} - slice_pattern(O5, "s"))


@pytest.mark.parametrize("variant, moved, problem", [
    ("s0", (1, 5), "the flattened slice pattern misses part of the anti-diagonal chain"),
    ("s0", _OFF_O5, "the flattened slice pattern leaves the slice pattern"),
    ("s", _OFF_O5, "the group slice F p does not fill the slice pattern exactly"),
])
def test_slice_support_fails_off_the_patterns(monkeypatch, variant, moved, problem):
    # S0 loses the chain position (1, 5) or gains one off S; S gains one that F p never fills
    _patched_pattern(monkeypatch, variant, {moved})
    result = check_slice_support(O5)
    assert not result.passed
    assert result.details == {"s_circ_sign": 1, "problems": [problem]}


def test_support_proofs_pass_on_every_small_shape():
    shapes = list(valid_shapes(8))
    assert len(shapes) == 585
    for shape in shapes:
        assert check_slice_support(shape).passed, shape
        if shape.kind.value in ("gl", "sl"):
            assert check_monomial_restriction(shape).passed, shape


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


def test_nonvanishing_draws_samples_only_while_a_generator_is_missing(monkeypatch):
    draws = []

    def spy(shape, rng, bound, second_component=False):
        draws.append(second_component)
        return sample_group_point(shape, rng, bound, second_component=second_component)

    monkeypatch.setattr(verification, "sample_group_point", spy)
    result = check_nonvanishing(GL5, seed=12, bound=8)
    assert draws == [False] * result.details["max_samples_needed"]
    draws.clear()
    # M(4,3) and M(3,4) vanish on the identity component of O(6)
    result = check_nonvanishing(make_shape("o", 6, (2, 2, 2)), seed=1, bound=10)
    assert result.passed and result.details["second_component_witnesses"] == ["M(4,3)", "M(3,4)"]
    assert draws == [False] * 10 + [True]


def test_mutated_generators_are_fresh_recipes():
    from parinv.generators_gl import build_generators

    muts = mutated_generators(GL5)
    assert len(muts) >= 3
    genuine = {g.recipe for g in build_generators(GL5)}
    assert all(gen.recipe not in genuine for _, gen in muts)
    # both row lists of a stacked J recipe end at row n, so the merged rows
    # repeat n and no mutant can drop the adjugate and stay a minor
    for shape in valid_shapes(8):
        for g in build_system(shape).j:
            if g.recipe.adj_rows:
                assert g.recipe.x_rows[-1] == g.recipe.adj_rows[-1] == shape.n


def test_negative_controls_fail_invariance():
    for shape in (GL5, SP4):
        invariance, result = check_invariance(shape, seed=13, trials=40, bound=8)
        assert invariance.passed and result.passed
        assert result.details["broken"] >= 3


def test_stream_slices_are_disjoint():
    # trial 2^20 of one check would be trial 0 of the next check's slice
    last = (1 << 20) - 1
    assert verification._stream(verification._S_INVARIANCE, last) + 1 == verification._stream(
        verification._S_SECOND_COMPONENT, 0
    )
    for trial in (-1, 1 << 20):
        with pytest.raises(ValueError):
            verification._stream(verification._S_INVARIANCE, trial)


def _invariance_stream(t):
    return verification._stream(verification._S_INVARIANCE, t)


def test_negative_controls_match_the_per_mutant_oracle():
    # the negative controls ride on the invariance pairs
    shapes = valid_shapes(5) + [make_shape(kind, n, parts) for kind, n, parts in ACCEPTANCE_SHAPES]
    for shape in shapes:
        want = negative_controls_per_mutant(shape, mutated_generators(shape), 1, 25, 10, _invariance_stream)
        assert check_invariance(shape, seed=1, trials=25, bound=10)[1].details == want


def _spy_families(monkeypatch) -> list[tuple[list[str], list]]:
    """Record the labels and values of every family verification evaluates."""
    calls = []
    real = verification.eval_family

    def spy(family, point):
        values = real(family, point)
        calls.append(([label for label, _ in family], values))
        return values

    monkeypatch.setattr(verification, "eval_family", spy)
    return calls


def test_mutants_are_evaluated_only_while_unbroken(monkeypatch):
    calls = _spy_families(monkeypatch)
    # (shape, seed, bound, pairs after which every mutant is broken, or all 40)
    cases = [
        (make_shape("gl", 3, (1, 1, 1)), 1, 1, 4),
        (SP4, 1, 1, 6),
        (make_shape("gl", 2, (1, 1)), 1, 10, 1),
        (GL5, 13, 8, 40),  # two mutants stay invariant
        (make_shape("gl", 1, (1,)), 1, 10, 0),  # no mutants
    ]
    for shape, seed, bound, needed in cases:
        family = [label for label, _ in build_system(shape).family()]
        mutants = mutated_generators(shape)
        want = negative_controls_per_mutant(shape, mutants, seed, 40, bound, _invariance_stream)
        calls.clear()
        invariance, result = check_invariance(shape, seed=seed, trials=40, bound=bound)
        assert invariance.passed and result.details == want
        # one family at x and one at g^-1 x g per pair, every generator at every pair
        assert len(calls) == 80 and all(labels[:len(family)] == family for labels, _ in calls)
        unbroken = [label for label, _ in mutants]
        for t, ((at_x, vx), (at_y, vy)) in enumerate(zip(calls[::2], calls[1::2])):
            assert at_x == at_y == family + unbroken
            assert bool(unbroken) == (t < needed)
            unbroken = [label for k, label in enumerate(at_x) if k >= len(family) and vx[k] == vy[k]]
    # the second component has no negative controls
    o6 = make_shape("o", 6, (2, 2, 2))
    calls.clear()
    invariance, result = check_invariance(o6, seed=1, trials=8, bound=10, second_component=True)
    assert invariance.passed and result is None
    family = [label for label, _ in build_system(o6).family()]
    assert len(calls) == 16 and all(labels == family for labels, _ in calls)


def test_independence_checks_pass():
    for shape in (GL5, SL5, SP4, O5):
        assert check_independence(shape, seed=14, bound=10).passed


@pytest.mark.parametrize(
    "shape", [make_shape("o", 9, (2, 2, 1, 2, 2)), make_shape("sp", 8, (1, 2, 2, 2, 1))], ids=_label
)
def test_independence_builds_the_ratio_rows_once_per_point(shape, monkeypatch):
    # the central ratio rows are built once, over Q, and join the residue J rows as they are
    ratios = set(build_system(shape).ratios)
    passed = []
    real = verification._gradients

    def spy(gens, x, p=None):
        passed.append((sum(g in ratios for g in gens), p))
        return real(gens, x, p)

    monkeypatch.setattr(verification, "_gradients", spy)
    result = check_independence(shape, seed=1, bound=10)
    assert result.passed and result.details["points"] == 1
    assert [call for call in passed if call[0]] == [(len(ratios), None)]


def _spy_calls(monkeypatch, real, change=lambda k, value: value) -> list:
    """Record the points that verification passes to real (orbit_dimension or
    independence_rank); change(k, value) may alter the value of the k-th call
    (0-based) before the check sees it."""
    calls = []

    def spy(shape, x):
        calls.append(x)
        return change(len(calls) - 1, real(shape, x))

    monkeypatch.setattr(verification, real.__name__, spy)
    return calls


@pytest.mark.parametrize("shape", [GL5, SP8], ids=_label)
def test_rank_checks_stop_at_the_first_certified_point(shape, monkeypatch):
    # a rank meeting its upper bound at one point proves the generic rank
    orbit_calls = _spy_calls(monkeypatch, orbit_dimension)
    rank_calls = _spy_calls(monkeypatch, independence_rank)
    orbit = check_orbit_dimension(shape, seed=1, bound=10)
    independence = check_independence(shape, seed=1, bound=10)
    assert orbit.passed and len(orbit_calls) == 1
    assert orbit.details == {"orbit_dims": [dim_unipotent_radical(shape)], "expected": dim_unipotent_radical(shape)}
    assert independence.passed and len(rank_calls) == 1 and independence.details["points"] == 1
    assert "deficits" not in independence.details


def test_orbit_dimension_draws_until_a_point_reaches_dim_u(monkeypatch):
    d = dim_unipotent_radical(GL5)
    calls = _spy_calls(monkeypatch, orbit_dimension, lambda k, value: value - 1 if k == 0 else value)
    result = check_orbit_dimension(GL5, seed=1, bound=10)
    assert result.passed and result.details["orbit_dims"] == [d - 1, d] and len(calls) == 2
    # the second point is the stream's second draw
    assert calls[1] == sample_group_point(GL5, Rng(1, verification._stream(verification._S_ORBIT, 1)), 10)
    calls = _spy_calls(monkeypatch, orbit_dimension, lambda k, value: value - 1)
    result = check_orbit_dimension(GL5, seed=1, bound=10)
    assert not result.passed and len(calls) == verification._RANK_ATTEMPTS
    assert result.details["orbit_dims"] == [d - 1] * verification._RANK_ATTEMPTS


def _short(k, value, full_j_at, full_gamma0_at):
    """value with the J rank one short unless k is in full_j_at, and the
    Gamma0 rank one short unless k is in full_gamma0_at."""
    value = dict(value)
    if k not in full_j_at:
        value["j_rank"] -= 1
        value["rank"] -= 1
    if k not in full_gamma0_at:
        value["gamma0_rank"] -= 1
        value["rank"] -= 1
    return value


def test_independence_needs_both_ranks_full_at_one_point(monkeypatch):
    # J full only at the first point and Gamma0 only at the second certifies neither
    calls = _spy_calls(monkeypatch, independence_rank, lambda k, v: _short(k, v, {0, 2}, {1, 2}))
    result = check_independence(SP8, seed=1, bound=10)
    assert result.passed and len(calls) == 3
    details = result.details
    assert details["points"] == 3 and details["ranks"] == [21, 21, 22] and details["expected"] == 22
    assert details["j_ranks"] == [19, 18, 19] and details["gamma0_ranks"] == [2, 3, 3]
    assert details["corank_adjustment"] == 0
    # with no point where both are full, every attempt is spent and the check fails
    calls = _spy_calls(monkeypatch, independence_rank, lambda k, v: _short(k, v, {0}, {1}))
    result = check_independence(SP8, seed=1, bound=10)
    details = result.details
    assert not result.passed
    assert details["points"] == len(calls) == verification._RANK_ATTEMPTS - details["skipped_nongeneric"]
    assert details["j_ranks"][:2] == [19, 18] and details["gamma0_ranks"][:2] == [2, 3]


def test_gamma0_rows_take_one_determinant_per_minor(monkeypatch):
    # M0 and each M(i,j) are evaluated once per build, not once per entry of a row
    shape = make_shape("sp", 8, (1, 2, 2, 2, 1))
    dets = []
    real = verification.det_rows

    def spy(rows, p=None):
        dets.append(len(rows))
        return real(rows, p)

    monkeypatch.setattr(verification, "det_rows", spy)
    x = sample_group_point(shape, Rng(85), 10)
    rows = verification._gamma0_rows(shape, x.num)
    system = build_system(shape)
    assert len(rows) == len(system.ratios) == 4
    assert dets == [len(system.m0.x_rows)] + [len(g.recipe.x_rows) for g in system.ratios]


@pytest.mark.parametrize("trials", [0, -1, (1 << 20) + 1])
def test_run_suite_refuses_trials_outside_the_stream_slice(trials, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a sample was drawn before trials was checked")

    monkeypatch.setattr(verification, "sample_group_point", no_draw)
    with pytest.raises(ValueError, match=r"\[1, 2\^20\]"):
        run_suite(GL5, seed=1, trials=trials)


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


# sha256 of the canonical reports of the acceptance shapes at seed 1, trials
# 5 (one line each, newline-terminated), recorded when the orbit-dimension and
# independence checks began to stop at their first certified point
PINNED_REPORTS_SHA256 = "0639a1f99c13f8b3916bd901aa761682538dddec7b3f46ab4b120ebf55b75fb3"


def test_acceptance_reports_are_pinned():
    text = "".join(
        run_suite(make_shape(kind, n, parts), seed=1, trials=5).to_canonical_json() + "\n"
        for kind, n, parts in ACCEPTANCE_SHAPES
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORTS_SHA256


def test_run_suite_reports_slice_sign_for_osp():
    report = run_suite(SP4, seed=3, trials=4, bound=8)
    assert report.passed
    assert report.s_circ_sign == -1


def test_run_suite_inject_mutation_fails_with_counterexample(monkeypatch):
    report = run_suite(GL5, seed=3, trials=25, bound=8, inject_mutation=True)
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert [c.name for c in failing] == ["invariance"]
    mutants = mutated_generators(GL5)
    assert failing[0].details == {"trials": 25, "generators": 17 + len(mutants)}
    ce = failing[0].counterexample
    label = ce["generator"].removeprefix("injected:")
    assert ce["generator"] == f"injected:{label}"
    # the first mutant, in pool order, to break at the first trial where any breaks
    before, at = (
        negative_controls_per_mutant(GL5, mutants, 3, t, 8, _invariance_stream)["outcomes"]
        for t in (ce["trial"], ce["trial"] + 1)
    )
    assert not any(o["fails_invariance"] for o in before)
    assert next(o["mutation"] for o in at if o["fails_invariance"]) == label
    # the counterexample replays: x and g are serialized in full
    x, g = linalg.matrix_from_json(ce["x"]), linalg.matrix_from_json(ce["g"])
    assert (x.nrows, g.nrows) == (5, 5)
    named = [(label, dict(mutants)[label])]
    values = eval_family(named, x) + eval_family(named, linalg.inverse(g) @ x @ g)
    assert [str(v) for v in values] == [ce["value_at_x"], ce["value_at_conjugate"]]
    assert values[0] != values[1]
    # past the counterexample, pairs are drawn only while some mutant is unbroken:
    # every Sp(4) mutant is broken after 6 pairs at bound 1
    calls = _spy_families(monkeypatch)
    invariance, result = check_invariance(SP4, seed=1, trials=40, bound=1, inject_mutation=True)
    assert invariance.counterexample["trial"] < 5 and result.details["broken"] == result.details["mutants"]
    assert len(calls) == 12


# every (shape, check) pair that fails in the sweep of all valid shapes with
# n <= 5 at seed 1, trials 4: the negative controls of the one-part and
# (1,1) shapes (their mutant pools are trivial or too small), and the
# independence rank of O(2) (1,1), whose identity component is non-generic
SWEEP_FAILURES = {
    f"{label} negative_controls"
    for label in (
        "gl1-1", "gl2-1-1", "gl2-2", "gl3-3", "gl4-4", "gl5-5",
        "sl1-1", "sl2-1-1", "sl2-2", "sl3-3", "sl4-4", "sl5-5",
        "o1-1", "o2-1-1", "o2-2", "o3-3", "o4-4", "o5-5",
        "sp2-1-1", "sp2-2", "sp4-4",
    )
} | {"o2-1-1 independence_rank"}
# sha256 of the canonical reports of that sweep, in valid_shapes order (one
# line each, newline-terminated), recorded when the orbit-dimension and
# independence checks began to stop at their first certified point
PINNED_SWEEP_SHA256 = "0556a72a9d998b3e5dd3fba79a181e186f09fe3a50b3041c53d243e0669263d3"


def test_sweep_failures_and_reports_are_pinned():
    text = ""
    failures = set()
    for shape in valid_shapes(5):
        report = run_suite(shape, seed=1, trials=4)
        text += report.to_canonical_json() + "\n"
        failures |= {f"{_label(shape)} {c.name}" for c in report.checks if not c.passed}
    assert failures == SWEEP_FAILURES
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SWEEP_SHA256
