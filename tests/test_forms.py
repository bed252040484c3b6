import math
import random
from fractions import Fraction

import pytest

from sdnb import (
    REAL,
    BudgetExceededError,
    add,
    DiagonalForm,
    GramMatrix,
    Place,
    anisotropy_certificate,
    cup,
    det_square_class,
    diagonalize,
    exact,
    forms,
    hasse_witt,
    is_trivial,
    isotropic_over_Q,
    isotropic_over_Qp,
    isotropy_witness_ternary,
    quartic_family_form,
    represents,
    signature,
    squarefree_part,
    sum_of_four_squares,
    sum_of_two_squares,
    sum_of_two_squares_over_sqrt2,
    support_places,
    symbols,
    trace_form,
)

from helpers import (
    compose,
    numpy_witness_ternary,
    random_quartic_params,
    raised,
    reference_anisotropy_certificate,
    reference_det_square_class,
    reference_has_repeated_roots,
    reference_hasse_invariant_at,
    reference_quartic_family_form,
    reference_subresultant_pivots,
    reference_trace_form,
)

F = Fraction


def _det(g):
    """The determinant p_n / L^n, as the product of the diagonal entries: the pivots telescope."""
    return math.prod(diagonalize(g).entries)


# --- construction and diagonalization -------------------------------------


def test_form_validation():
    with pytest.raises(ValueError):
        DiagonalForm([])
    with pytest.raises(ValueError):
        DiagonalForm([1, 0])
    with pytest.raises(ValueError):
        GramMatrix([[1, 2], [3, 4]])  # not symmetric
    with pytest.raises(ValueError):
        GramMatrix([[1, 1], [1, 1]])  # degenerate


def test_diagonalize_golden():
    assert diagonalize(GramMatrix([[2, 0], [0, 4]])).entries == (F(2), F(4))
    assert diagonalize(GramMatrix([[2, 0], [0, 6]])).entries == (F(2), F(6))
    hyp = diagonalize(GramMatrix([[0, 1], [1, 0]]))
    assert squarefree_part(hyp.entries[0]) * squarefree_part(hyp.entries[1]) < 0
    assert squarefree_part(hyp.entries[0] * hyp.entries[1]) == -1


def _random_gram(rng, n):
    while True:
        rows = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
        try:
            return GramMatrix(rows)
        except ValueError:
            continue


def _congruent(rng, g):
    n = diagonalize(g).rank
    p = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            t = F(rng.randint(-2, 2))
            for k in range(n):
                p[i][k] += t * p[j][k]
    rows = [
        [sum(p[i][a] * g.rows[a][b] * p[j][b] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return GramMatrix(rows)


def test_diagonalize_preserves_invariants():
    rng = random.Random(21)
    for _ in range(60):
        n = rng.randint(1, 5)
        g = _random_gram(rng, n)
        d = diagonalize(g)
        assert d.rank == n
        assert squarefree_part(_det(g)) == det_square_class(d)
        # Sylvester: any congruent matrix diagonalizes to the same signature
        d2 = diagonalize(_congruent(rng, g))
        assert signature(d2) == signature(d)
        assert det_square_class(d2) == det_square_class(d)


# Reference copies of the Fraction-arithmetic pivot rule and determinant
# that diagonalize and GramMatrix.det used before the integer fast path.


def _reference_det(rows):
    n = len(rows)
    a = [list(map(F, row)) for row in rows]
    det = F(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return F(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                t = a[i][k] / a[k][k]
                a[i] = [x - t * y for x, y in zip(a[i], a[k])]
    return det


def _reference_diagonal(rows):
    n = len(rows)
    a = [list(map(F, row)) for row in rows]

    def add_row_col(dst, src, t):
        for j in range(n):
            a[dst][j] += t * a[src][j]
        for i in range(n):
            a[i][dst] += t * a[i][src]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for row in a:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i] != 0), None)
        if piv is None:
            i, j = next(
                (i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0
            )
            add_row_col(i, j, F(1))
            piv = i
        if piv != k:
            swap(k, piv)
        for j in range(k + 1, n):
            if a[k][j]:
                add_row_col(j, k, -a[k][j] / a[k][k])
    return tuple(a[i][i] for i in range(n))


def _assert_int_entries_agree(rows, g):
    """Integral entries given as int, and L * rows as ints or Fractions, agree."""
    mixed = GramMatrix([[int(x) if x.denominator == 1 else x for x in row] for row in rows])
    assert (_det(mixed), diagonalize(mixed)) == (_det(g), diagonalize(g)), rows
    lcd = math.lcm(*(x.denominator for row in rows for x in row))
    as_ints = GramMatrix([[int(x * lcd) for x in row] for row in rows])
    as_fractions = GramMatrix([[x * lcd for x in row] for row in rows])
    assert _det(as_ints) == _det(as_fractions) == _det(g) * lcd ** len(rows), rows
    assert diagonalize(as_ints) == diagonalize(as_fractions), rows


def _has_vanishing_leading_minor(rows):
    return any(_reference_det([row[:k] for row in rows[:k]]) == 0 for k in range(1, len(rows) + 1))


def _random_rational_symmetric(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.35:
                continue  # zeros make vanishing leading minors common
            rows[i][j] = rows[j][i] = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4]))
    if n > 1 and rng.random() < 0.3:
        rows[0][0] = F(0)
    return rows


def test_diagonalize_and_det_match_pivot_rule():
    rng = random.Random(1968)
    cases = vanishing = 0
    while cases < 400:
        rows = _random_rational_symmetric(rng, rng.randint(1, 6))
        ref_det = _reference_det(rows)
        if ref_det == 0:
            with pytest.raises(ValueError):
                GramMatrix(rows)
            continue
        g = GramMatrix(rows)
        assert _det(g) == ref_det, rows
        assert diagonalize(g).entries == _reference_diagonal(rows), rows
        _assert_int_entries_agree(rows, g)
        cases += 1
        vanishing += _has_vanishing_leading_minor(rows)
    assert vanishing >= cases // 4, vanishing


def _pivot_rule_repairs(rows):
    """How many steps of the pivot rule find no nonzero diagonal entry."""
    a = [list(map(F, row)) for row in rows]
    repairs = 0
    while a:
        piv = next((i for i in range(len(a)) if a[i][i]), None)
        if piv is None:
            piv, j = next(
                (i, j) for i in range(len(a)) for j in range(i + 1, len(a)) if a[i][j]
            )
            a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            for row in a:
                row[piv] += row[j]
            repairs += 1
        a[0], a[piv] = a[piv], a[0]
        for row in a:
            row[0], row[piv] = row[piv], row[0]
        top = a[0]
        a = [[x - row[0] * y / top[0] for x, y in zip(row[1:], top[1:])] for row in a[1:]]
    return repairs


def _random_zero_diagonal_symmetric(rng, n):
    """Zero diagonal: hyperbolic planes on a random matching, plus sparse entries."""
    rows = [[F(0)] * n for _ in range(n)]
    order = rng.sample(range(n), n)
    for i, j in zip(order[::2], order[1::2]):
        rows[i][j] = rows[j][i] = F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
    density = rng.choice([0, 0.1, 0.3])
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i][j] = rows[j][i] = F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return rows


def test_diagonalize_and_det_match_pivot_rule_at_ranks_7_to_10():
    rng = random.Random(710)
    cases = vanishing = repairs = multi_repair = 0
    while cases < 160:
        n = rng.randint(7, 10)
        if rng.random() < 0.5:
            rows = _random_zero_diagonal_symmetric(rng, n)
        else:
            rows = _random_rational_symmetric(rng, n)
        ref_det = _reference_det(rows)
        if ref_det == 0:
            with pytest.raises(ValueError):
                GramMatrix(rows)
            continue
        g = GramMatrix(rows)
        assert _det(g) == ref_det, rows
        assert diagonalize(g).entries == _reference_diagonal(rows), rows
        _assert_int_entries_agree(rows, g)
        cases += 1
        vanishing += _has_vanishing_leading_minor(rows)
        k = _pivot_rule_repairs(rows)
        repairs += k
        multi_repair += k > 1
    # seeded, and counted by the reference rule: 116 of the 160 matrices have
    # a vanishing leading minor, the repair fires 163 times, and more than
    # once on 38 matrices
    assert (vanishing, repairs, multi_repair) == (116, 163, 38)


def _reference_power_sums(coeffs):
    n = len(coeffs) - 1
    s = [F(0)] * (2 * n - 1)
    s[0] = F(n)
    for k in range(1, 2 * n - 1):
        acc = F(0)
        for j in range(1, min(k - 1, n) + 1):
            acc += F(coeffs[n - j]) * s[k - j]
        if k <= n:
            acc += F(k * coeffs[n - k])
        s[k] = -acc
    return s


def test_trace_form_tower_matches_fraction_reference():
    f4 = [2, 0, -4, 0, 1]  # minimal polynomial of 2cos(2pi/16)
    f8 = compose(f4, [-2, 0, 1])  # f4(x^2 - 2), of 2cos(2pi/32)
    f16 = compose(f8, [-2, 0, 1])  # of 2cos(2pi/64)
    for f in (f4, f8, f16):
        for t in range(-3, 4):
            coeffs = compose(f, [t, 1])
            n = len(coeffs) - 1
            s = _reference_power_sums(coeffs)
            rows = [[s[i + j] for j in range(n)] for i in range(n)]
            g = trace_form(coeffs)
            assert g.rows == tuple(tuple(row) for row in rows)
            assert all(type(x) is int for row in g.rows for x in row)
            assert _det(g) == _reference_det(rows)
            assert diagonalize(g).entries == _reference_diagonal(rows)


def test_det_signature_golden():
    assert det_square_class(DiagonalForm([2, 6])) == 3
    assert signature(DiagonalForm([2, 6])) == (2, 0)
    assert det_square_class(DiagonalForm([1, -1])) == -1
    assert signature(DiagonalForm([1, -1])) == (1, 1)
    # <1, eps, a, a> has determinant class eps
    assert det_square_class(DiagonalForm([1, 2, 3, 3])) == 2


def test_det_square_class_matches_product_route():
    # the entries' odd-exponent primes, never a factorization of the product
    rng = random.Random(1968)
    for _ in range(500):
        entries = [
            F(rng.randint(1, 300), rng.randint(1, 40)) * rng.choice([1, -1])
            * F(rng.choice((2, 3, 5, 7))) ** rng.randint(-4, 4)
            for _ in range(rng.randint(1, 6))
        ]
        f = DiagonalForm(entries)
        assert det_square_class(f) == squarefree_part(math.prod(entries)), entries
    # a determinant of two 64-bit primes, which the product route cannot factor
    f = DiagonalForm([2**64 - 59, 2**64 - 83, -1, -1])
    assert det_square_class(f) == (2**64 - 59) * (2**64 - 83)


# --- Hasse-Witt -----------------------------------------------------------


def test_hasse_witt_golden():
    # <1, eps, a, a> -> class of (a, a) = (-1, a)
    f = DiagonalForm([1, 2, 3, 3])
    assert hasse_witt(f) == cup(-1, 3)
    assert is_trivial(hasse_witt(DiagonalForm([1, 1, 1, 1, 1])))
    assert hasse_witt(DiagonalForm([2, 6])) == cup(2, 6)


def test_hasse_witt_invariances():
    rng = random.Random(31)
    for _ in range(40):
        entries = [F(rng.randint(1, 20) * rng.choice([1, -1])) for _ in range(rng.randint(2, 5))]
        f = DiagonalForm(entries)
        w = hasse_witt(f)
        scaled = DiagonalForm([a * rng.randint(1, 5) ** 2 for a in entries])
        assert hasse_witt(scaled) == w
        shuffled = entries[:]
        rng.shuffle(shuffled)
        assert hasse_witt(DiagonalForm(shuffled)) == w


def test_hasse_witt_matches_pairwise_sum():
    rng = random.Random(1608)
    pool = [1, -1, 2, 3, -3, 5, 6, 12, F(3, 4), F(1, 4), 27, -12, F(2, 9), 7]
    for _ in range(150):
        entries = [F(rng.choice(pool)) for _ in range(rng.randint(1, 9))]
        ref = cup(1, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                ref = add(ref, cup(entries[i], entries[j]))
        assert hasse_witt(DiagonalForm(entries)) == ref, entries


def test_hasse_invariant_at_matches_pairwise_product():
    rng = random.Random(1903)
    for _ in range(150):
        rank = rng.randint(2, 5)
        f = DiagonalForm(
            F(rng.randint(1, 200), rng.randint(1, 20)) * rng.choice([1, -1]) for _ in range(rank)
        )
        for v in symbols._support(f.entries):
            assert forms._hasse_invariant_at(f, v) == reference_hasse_invariant_at(f, v), (f, v)


# --- isotropy -------------------------------------------------------------


def test_isotropy_golden():
    assert not isotropic_over_Q(DiagonalForm([1, 1, -3]))
    assert isotropic_over_Q(DiagonalForm([1, 1, 1, 1, -7]))
    assert not isotropic_over_Q(DiagonalForm([1, -2]))
    assert isotropic_over_Q(DiagonalForm([1, -4]))
    cert = anisotropy_certificate(DiagonalForm([1, 1, -3]))
    assert cert is not None and not isotropic_over_Qp(DiagonalForm([1, 1, -3]), cert)


def test_real_place_isotropy():
    assert not isotropic_over_Qp(DiagonalForm([1, 2]), REAL)
    assert isotropic_over_Qp(DiagonalForm([1, -2]), REAL)
    assert not isotropic_over_Qp(DiagonalForm([3]), Place(3))


def _random_form_entries(rng: random.Random, rank: int) -> list[Fraction]:
    """Entries of both signs, some fractional, some with square factors."""
    return [
        F(rng.choice([1, -1]) * rng.randint(1, 40) * rng.choice([1, 1, 1, 4, 9, 25]), rng.choice([1, 1, 2, 3, 4, 9]))
        for _ in range(rank)
    ]


def test_anisotropy_certificate_matches_the_support_walk():
    rng = random.Random(2704)
    definite = represented = 0
    for _ in range(3000):
        f = DiagonalForm(_random_form_entries(rng, rng.randint(1, 6)))
        assert anisotropy_certificate(f) == reference_anisotropy_certificate(f), f
        definite += 0 in signature(f)
        if rng.random() < 0.3:
            c = _random_form_entries(rng, 1)[0]
            got = represents(f, c)
            assert got == (reference_anisotropy_certificate(f.orthogonal_sum(DiagonalForm([-c]))) is None), (f, c)
            represented += got
    assert 500 < definite < 2500 and represented > 100


def test_a_definite_form_builds_no_finite_support(monkeypatch):
    calls = []
    support = forms._support

    def counted(values):
        calls.append(values)
        return support(values)

    monkeypatch.setattr(forms, "_support", counted)
    rng = random.Random(2705)
    for rank in range(1, 7):
        for sign in (1, -1):
            f = DiagonalForm([sign * abs(a) for a in _random_form_entries(rng, rank)])
            assert anisotropy_certificate(f) == REAL and not isotropic_over_Q(f)
    assert calls == []
    indefinite = DiagonalForm([1, 1, -3])
    assert anisotropy_certificate(indefinite) == Place(2)
    assert calls == [indefinite.entries]


def test_the_support_factors_each_entry_once(monkeypatch):
    # real, 2, then every prime of an entry: the places of support_places, in place order
    rng = random.Random(2906)
    for _ in range(500):
        f = DiagonalForm(_random_form_entries(rng, rng.randint(1, 6)))
        assert symbols._support(f.entries) == sorted(support_places([(a, a) for a in f.entries]), key=Place.sort_key), f
    calls = []
    factor = symbols.factor

    def counted(q):
        calls.append(q)
        return factor(q)

    monkeypatch.setattr(symbols, "factor", counted)
    indefinite = DiagonalForm([F(3, 5), -7, 22, F(-1, 45), 13])
    assert anisotropy_certificate(indefinite) is None
    assert calls == list(indefinite.entries)


def test_the_invariants_of_a_2000_entry_form_factor_each_entry_once():
    # the determinant class, the Hasse-Witt class and the support each read every entry's
    # factorization; the factor memo holds all 2000, so the second and third reads hit
    rng = random.Random(3100)
    entries = set()
    while len(entries) < 2000:
        entries.add(rng.choice((1, -1)) * rng.randrange(2, 10**9))
    f = DiagonalForm(sorted(entries))
    forms.hasse_witt.cache_clear()
    exact._factor_fraction.cache_clear()
    det_square_class(f)
    hasse_witt(f)
    assert anisotropy_certificate(f) is None
    assert exact._factor_fraction.cache_info().misses == 2000


def test_rank5_isotropic_at_finite_places():
    rng = random.Random(41)
    for _ in range(20):
        f = DiagonalForm([rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(5)])
        for p in (2, 3, 5, 7):
            assert isotropic_over_Qp(f, Place(p))


def test_witness_search():
    w = isotropy_witness_ternary(DiagonalForm([1, 1, -2]))
    assert w is not None
    x, y, z = w
    assert x * x + y * y - 2 * z * z == 0 and any(w)
    assert isotropy_witness_ternary(DiagonalForm([1, 1, -3]), height_cap=50) is None


def test_witness_for_declared_isotropic_ternaries():
    rng = random.Random(51)
    found = 0
    for _ in range(120):
        f = DiagonalForm([rng.randint(1, 30) * rng.choice([1, -1]) for _ in range(3)])
        if not isotropic_over_Q(f):
            assert anisotropy_certificate(f) is not None
            assert isotropy_witness_ternary(f, height_cap=60) is None
            continue
        w = isotropy_witness_ternary(f)
        assert w is not None and max(w) <= 10**4
        a, b, c = f.entries
        x, y, z = w
        assert a * x * x + b * y * y + c * z * z == 0
        found += 1
    assert found > 10


def test_witness_scan_matches_numpy_reference():
    pytest.importorskip("numpy")
    rng = random.Random(3)
    isotropic = 0
    for _ in range(500):
        f = DiagonalForm([rng.randint(1, 50) * rng.choice([1, -1]) for _ in range(3)])
        if isotropic_over_Q(f):
            isotropic += 1
            assert isotropy_witness_ternary(f) == numpy_witness_ternary(f), f
        else:
            assert isotropy_witness_ternary(f, height_cap=60) is None, f
            assert numpy_witness_ternary(f, height_cap=60) is None, f
    assert 50 < isotropic < 450


def test_witness_scan_is_exact_beyond_64_bits():
    # an int64 scan wraps b * 2^2 = 2^64 + 4 to 4 and returns (0, 2, 2)
    b = 2**62 + 1
    assert isotropy_witness_ternary(DiagonalForm([1, b, -1])) == (1, 0, 1)


def test_witness_scan_raises_when_budget_runs_out(monkeypatch):
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "5000")
    with pytest.raises(BudgetExceededError) as info:
        isotropy_witness_ternary(DiagonalForm([1, 1, -3]))
    message = str(info.value)
    assert "<1, 1, -3>" in message and "of 5000 units" in message


def test_witness_scan_charges_each_row_once_and_each_x_by_its_candidates(monkeypatch):
    # <1, 1, -3> is anisotropic at 3, so a scan to height 50 tries everything: 51 rows y = 0..50
    # filled once, then 1 + #{y <= 50 : y^2 = -x^2 mod 3} for each x <= 50
    f = DiagonalForm([1, 1, -3])
    units = 51 + sum(1 + sum((x * x + y * y) % 3 == 0 for y in range(51)) for x in range(51))
    assert units == 391
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", str(units))
    assert isotropy_witness_ternary(f, height_cap=50) is None
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", str(units - 1))
    with pytest.raises(BudgetExceededError, match="after 390 of 390 units"):
        isotropy_witness_ternary(f, height_cap=50)


# --- representation and sums of squares ------------------------------------


def test_represents_golden():
    two_squares = DiagonalForm([1, 1])
    assert represents(two_squares, 5)
    assert not represents(two_squares, 3)
    four = DiagonalForm([1, 1, 1, 1])
    rng = random.Random(61)
    for _ in range(30):
        z = F(rng.randint(1, 60), rng.randint(1, 10)) * rng.choice([1, -1])
        assert represents(four, z) == (z > 0)
    with pytest.raises(ValueError):
        represents(two_squares, 0)


def test_sums_of_squares():
    assert sum_of_two_squares(5)
    assert not sum_of_two_squares(3)
    assert sum_of_four_squares(3)
    assert not sum_of_two_squares(-1) and not sum_of_four_squares(-1)
    assert sum_of_two_squares(F(9, 2))  # 9/2 = (3/2)^2 + (3/2)^2
    with pytest.raises(ValueError):
        sum_of_two_squares(0)


def test_two_squares_matches_form_representation():
    rng = random.Random(71)
    form = DiagonalForm([1, 1])
    for _ in range(40):
        z = F(rng.randint(1, 50), rng.randint(1, 8)) * rng.choice([1, -1])
        assert sum_of_two_squares(z) == represents(form, z)


def test_two_squares_over_sqrt2():
    # 3 = 1 + sqrt(2)^2 works; 7 fails at the split prime 7
    assert sum_of_two_squares_over_sqrt2(3)
    assert not sum_of_two_squares_over_sqrt2(7)
    assert not sum_of_two_squares_over_sqrt2(14)
    assert sum_of_two_squares_over_sqrt2(49)
    assert not sum_of_two_squares_over_sqrt2(-2)
    assert sum_of_two_squares_over_sqrt2(F(7, 7 * 8))  # 1/8: exponents even at 7


# --- trace forms ------------------------------------------------------------


def test_trace_form_golden():
    assert trace_form([-3, 0, 1]).rows == ((F(2), F(0)), (F(0), F(6)))
    assert trace_form([1, 0, 1]).rows == ((F(2), F(0)), (F(0), F(-2)))
    tf = trace_form([2, 0, -4, 0, 1])  # X^4 - 4X^2 + 2
    # power sums s_0..s_6 = 4, 0, 8, 0, 24, 0, 80
    assert [tf.rows[0][j] for j in range(4)] == [4, 0, 8, 0]
    assert tf.rows[3][3] == 80
    d = diagonalize(tf)
    assert signature(d) == (4, 0)
    assert det_square_class(d) == 2


def test_trace_form_rejects_repeated_roots():
    with pytest.raises(ValueError):
        trace_form([1, 2, 1])  # (X+1)^2
    with pytest.raises(ValueError):
        trace_form([0, 0, 1])  # X^2


def test_trace_form_input_validation():
    with pytest.raises(ValueError):
        trace_form([2])
    with pytest.raises(ValueError):
        trace_form([1, 0, 2])  # not monic


def test_trace_form_coerces_its_coefficients_before_it_checks_them():
    assert trace_form(["-2", "0", "1"]) == trace_form([-2, 0, 1])
    assert trace_form([F(-2), 0.0, F(1)]) == trace_form([-2, 0, 1])
    with pytest.raises(ValueError, match="^polynomial must have integer coefficients$"):
        trace_form([-2, 0, F(3, 2)])
    with pytest.raises(ValueError, match="^polynomial must be monic$"):
        trace_form(["1", "0", "2"])
    with pytest.raises(ValueError, match="^polynomial must have degree >= 1$"):
        trace_form(["1"])


def _poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def _tower_shifts():
    """f(x + t), t = -3..3, for the minimal polynomials of 2cos(2pi/2^k), k = 4, 5, 6."""
    f = [2, 0, -4, 0, 1]
    towers = [f]
    for _ in range(2):
        towers.append(compose(towers[-1], [-2, 0, 1]))
    return [compose(f, [t, 1]) for f in towers for t in range(-3, 4)]


def _differential_polynomials():
    """Seeded monic integer polynomials of degree 1-16.

    Dense ones of heights 3, 50 and 10^6; sparse ones, most of them with a
    vanishing leading minor of the trace form; and products g^2 h, which have
    repeated roots.
    """
    rng = random.Random(1301)
    polys = []
    for _ in range(2400):
        h = rng.choice((3, 50, 10**6))
        polys.append([rng.randint(-h, h) for _ in range(rng.randint(1, 16))] + [1])
    for _ in range(400):
        m = rng.randint(2, 16)
        c = [0] * m + [1]
        for i in rng.sample(range(m), rng.randint(1, 2)):
            c[i] = rng.choice((-2, -1, 1, 2, 3))
        polys.append(c)
    for _ in range(300):
        g = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
        h = [rng.randint(-3, 3) for _ in range(rng.randint(0, 6))] + [1]
        polys.append(_poly_mul(_poly_mul(g, g), h))
    return polys + _tower_shifts()


def test_trace_form_matches_the_elimination():
    routes = {"subresultant": 0, "elimination": 0, "repeated roots": 0}
    for coeffs in _differential_polynomials():
        try:
            want = reference_trace_form(coeffs)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                trace_form(coeffs)
            assert str(got.value) == str(exc), coeffs
            routes["repeated roots"] += 1
            continue
        g = trace_form(coeffs)
        assert g.rows == want.rows, coeffs
        assert all(type(x) is int for row in g.rows for x in row)
        assert (g._scale, g._pivots) == (want._scale, want._pivots), coeffs
        assert _det(g) == _det(want), coeffs
        assert diagonalize(g) == diagonalize(want), coeffs
        normal = forms._subresultants(coeffs)[0] is not None
        routes["subresultant" if normal else "elimination"] += 1
    # every route is exercised, the normal one by far the most
    assert routes["subresultant"] >= 2000, routes
    assert routes["elimination"] >= 50, routes
    assert routes["repeated roots"] >= 200, routes


def _sequence_polynomials():
    """Seeded polynomials of degree 1-12, monic and not.

    Dense ones; sparse ones, whose subresultant sequences mostly have a degree
    gap of 2 or more; and products with (x - r)^2 or (x - r)^3, which have a
    repeated root.
    """
    rng = random.Random(2907)
    polys = []
    for _ in range(24000):
        lead = rng.choice((1, 1, 1, -1, 2, -3, 6))
        if rng.random() < 0.3:
            k = rng.choice((2, 3))
            c = [rng.randint(-9, 9) for _ in range(rng.randint(0, 12 - k))] + [lead]
            r = rng.randint(-3, 3)
            for _ in range(k):
                c = _poly_mul(c, [-r, 1])
        else:
            m = rng.randint(1, 12)
            if rng.random() < 0.4:
                c = [0] * m
                for i in rng.sample(range(m), rng.randint(1, min(m, 2))):
                    c[i] = rng.choice((-3, -2, -1, 1, 2, 3))
            else:
                c = [rng.randint(-9, 9) for _ in range(m)]
            c.append(lead)
        polys.append(c)
    return polys


def test_one_subresultant_sequence_matches_the_two_it_replaced():
    kinds = {"normal": 0, "gap": 0, "repeated": 0}
    for i, coeffs in enumerate(_sequence_polynomials()):
        pivots, repeated = forms._subresultants(coeffs)
        assert pivots == reference_subresultant_pivots(coeffs), coeffs
        assert repeated == reference_has_repeated_roots(coeffs), coeffs
        if i % 10 == 0:
            assert forms._subresultants(coeffs)[0] == pivots, coeffs
            assert forms._subresultants(coeffs)[1] == repeated, coeffs
        kinds["repeated" if repeated else "gap" if pivots is None else "normal"] += 1
    # a vanishing minor without a repeated root is a degree gap of 2 or more
    assert min(kinds.values()) >= 1000, kinds


def test_trace_form_runs_one_subresultant_sequence(monkeypatch):
    calls = []
    run = forms._subresultants

    def counted(coeffs):
        calls.append(tuple(coeffs))
        return run(coeffs)

    monkeypatch.setattr(forms, "_subresultants", counted)
    assert diagonalize(trace_form([12, 8, 0, 0, 1])).rank == 4  # x^4 + 8x + 12: a degree gap, then the elimination
    assert calls == [(12, 8, 0, 0, 1)]
    with pytest.raises(ValueError, match="^polynomial has repeated roots$"):
        trace_form([1, 0, -2, 0, 1])  # (x^2 - 1)^2
    assert calls == [(12, 8, 0, 0, 1), (1, 0, -2, 0, 1)]


def test_a_constant_has_no_repeated_root():
    for c in (1, -1, 5, 0):
        assert forms._subresultants((c,))[1] is False


def test_trace_form_of_the_tower_runs_no_elimination(monkeypatch):
    calls = []
    eliminate = forms._pivots

    def counted(a):
        calls.append(len(a))
        return eliminate(a)

    monkeypatch.setattr(forms, "_pivots", counted)
    g = trace_form(_tower_shifts()[17])  # the degree-16 tower itself, t = 0
    assert calls == [] and diagonalize(g).rank == 16
    trace_form([1, 0, 0, 0, 1])  # x^4 + 1: s_1 = s_2 = 0, so D_2 = 0
    assert calls == [4]


def _count_power_sum_rows(monkeypatch):
    """Record the degree of every polynomial whose Hankel rows of power sums are built."""
    calls = []
    build = forms._power_sum_rows

    def counted(coeffs):
        calls.append(len(coeffs) - 1)
        return build(coeffs)

    monkeypatch.setattr(forms, "_power_sum_rows", counted)
    return calls


def test_a_trace_form_builds_its_rows_only_when_they_are_read(monkeypatch):
    tower16 = _tower_shifts()[17]
    want = reference_trace_form(tower16)
    calls = _count_power_sum_rows(monkeypatch)
    g = trace_form(tower16)
    assert diagonalize(g).rank == 16 and _det(g) == _det(want) and diagonalize(g) == diagonalize(want)
    assert calls == []
    assert g.rows == want.rows and calls == [16]
    assert g.rows is g.rows and calls == [16]


def test_a_trace_form_that_is_not_normal_builds_its_rows_at_once(monkeypatch):
    calls = _count_power_sum_rows(monkeypatch)
    g = trace_form([1, 0, 0, 0, 1])  # x^4 + 1: D_2 = 0, so the elimination runs
    assert calls == [4] and "rows" in vars(g)
    assert g.rows == reference_trace_form([1, 0, 0, 0, 1]).rows and calls == [4]


def _sturm_real_roots(coeffs):
    """Number of distinct real roots, by Sturm's theorem (exact arithmetic)."""

    def norm(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(p, q):
        p = p[:]
        while len(p) >= len(q):
            t = p[-1] / q[-1]
            shift = len(p) - len(q)
            for i, c in enumerate(q):
                p[i + shift] -= t * c
            norm(p)
            if not p:
                break
        return p

    chain = [norm([F(c) for c in coeffs])]
    chain.append(norm([F(i * c) for i, c in enumerate(coeffs)][1:]))
    while chain[-1]:
        r = rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-c for c in r])

    def variations(signs):
        signs = [s for s in signs if s]
        return sum(1 for x, y in zip(signs, signs[1:]) if x * y < 0)

    at_plus = [p[-1] for p in chain if p]
    at_minus = [p[-1] * (-1) ** (len(p) - 1) for p in chain if p]
    return variations(at_minus) - variations(at_plus)


def test_signature_detects_totally_real_fields():
    polys = [
        [-3, 0, 1], [1, 0, 1], [-2, 0, 1], [2, 0, -4, 0, 1], [1, -3, 0, 1],
        [-1, -3, 0, 1], [1, 0, 0, 1], [-1, 0, 0, 1], [5, 0, 1], [-5, 0, 1],
        [1, 1, 1, 1], [7, -7, 0, 1], [-7, 7, 0, 1], [1, -4, 0, 1],
        [3, 1, -4, 0, 1], [2, 0, 0, 0, 1], [-2, 0, 0, 0, 1],
        [1, -10, 0, 0, 1], [4, 0, -5, 0, 1], [-1, 3, 3, 1, 1],
    ]
    for coeffs in polys:
        try:
            gram = trace_form(coeffs)
        except ValueError:
            continue  # repeated roots, outside the contract
        sig = signature(diagonalize(gram))
        deg = len(coeffs) - 1
        all_real = _sturm_real_roots(coeffs) == deg
        assert (sig == (deg, 0)) == all_real, coeffs


# --- the quartic family ------------------------------------------------------


def test_quartic_family_golden():
    assert quartic_family_form(2, 1, 1, 2).entries == (F(1), F(2), F(2), F(2))
    assert quartic_family_form(3, F(3, 2), F(3, 2), 2).entries == (F(1), F(2), F(3), F(3))
    assert quartic_family_form(-2, 1, 1, 2).entries == (F(1), F(2), F(-2), F(-2))


def test_quartic_family_validation():
    with pytest.raises(ValueError):
        quartic_family_form(2, 1, 0, 2)  # c = 0
    with pytest.raises(ValueError):
        quartic_family_form(2, 1, 1, 4)  # relation fails and eps square
    with pytest.raises(ValueError):
        quartic_family_form(3, 1, 1, 2)  # relation fails


def test_quartic_family_coerces_every_value_before_it_refuses_a_zero_c():
    assert raised(quartic_family_form, 2, 1, 0, "abc") == raised(Fraction, "abc")
    for zero in (0, F(0), "0", "0/7"):
        assert raised(quartic_family_form, 2, 1, zero, 2) == (ValueError, "quartic family needs c nonzero")


def _quartic_outcome(build, args):
    try:
        return "form", build(*args).entries
    except Exception as exc:
        return type(exc), str(exc)


def _as_given(rng: random.Random, x: Fraction):
    """x as a Fraction, an int when integral, or its string."""
    r = rng.random()
    if r < 0.2:
        return str(x)
    return int(x) if r < 0.6 and x.denominator == 1 else x


def test_the_integer_quartic_relation_agrees_with_fraction_arithmetic():
    # a^2 = (b^2 + c^2) eps by one cross-multiplication of numerators and denominators;
    # every other input is moved off the relation, or given a zero c or a square eps
    rng = random.Random(3302)
    outcomes = []
    for i in range(5000):
        a, b, c, eps = random_quartic_params(rng, integral=rng.random() < 0.3)
        if i % 2:
            step = F(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 4))
            kind = rng.randrange(6)
            if kind == 0:
                a += step
            elif kind == 1:
                b += step
            elif kind == 2:
                c += step
            elif kind == 3:
                eps *= F(rng.randint(2, 9), rng.randint(1, 9)) ** rng.choice((1, -1))
            elif kind == 4:
                c = F(0)
            else:
                eps = F(rng.randint(0, 9), rng.randint(1, 9)) ** 2
        args = tuple(_as_given(rng, x) for x in (a, b, c, eps))
        want = _quartic_outcome(reference_quartic_family_form, args)
        assert _quartic_outcome(quartic_family_form, args) == want, args
        outcomes.append(want[0])
    assert 2500 <= outcomes.count("form") < 2700
    assert outcomes.count(ValueError) > 2300


def test_quartic_gram_route_matches_diagonal_route():
    # the diagonal form <1, eps, a, a> and the power-basis Gram matrix of
    # X^4 - 2aX^2 + (a^2 - b^2 eps) describe congruent forms
    from helpers import random_quartic_params
    from sdnb import quartic_family_polynomial

    rng = random.Random(81)
    for _ in range(100):
        a, b, c, eps = random_quartic_params(rng, integral=True)
        coeffs, _ = quartic_family_polynomial(a, b, c, eps)
        via_gram = diagonalize(trace_form(coeffs))
        direct = quartic_family_form(a, b, c, eps)
        assert hasse_witt(via_gram) == hasse_witt(direct)
        assert det_square_class(via_gram) == det_square_class(direct)
        assert signature(via_gram) == signature(direct)


def test_a_gram_elimination_is_charged_to_the_work_budget(monkeypatch):
    calls = []
    eliminate = forms._pivots

    def counted(a):
        calls.append(len(a))
        return eliminate(a)

    def matrix(n):
        rng = random.Random(n)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 200
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(-9, 9)
        return rows

    monkeypatch.setattr(forms, "_pivots", counted)
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "1000")
    assert diagonalize(GramMatrix(matrix(10))).rank == 10  # 10^3 units: the whole budget
    with pytest.raises(BudgetExceededError) as info:
        GramMatrix(matrix(11))
    assert str(info.value) == (
        "Gram elimination of a 11x11 matrix: work budget exhausted after 0 of 1000 units (SDNB_FACTOR_BUDGET)"
    )
    assert calls == [10]
    # a trace form read off its subresultant pivots runs no elimination and pays nothing
    assert diagonalize(trace_form(_tower_shifts()[17])).rank == 16
    assert calls == [10]
    # a malformed budget is named as such, not taken for repeated roots
    monkeypatch.setenv("SDNB_FACTOR_BUDGET", "abc")
    with pytest.raises(ValueError, match="^SDNB_FACTOR_BUDGET must be an integer, got 'abc'$"):
        trace_form([12, 8, 0, 0, 1])  # s_1 = s_2 = 0: the elimination route
    with pytest.raises(ValueError, match="^polynomial has repeated roots$"):
        trace_form([1, 0, -2, 0, 1])


def test_det_square_class_matches_the_entrywise_parity_walk():
    # the class read off the square-class table equals the XOR over each entry's odd primes,
    # and the squarefree part of the product of the entries
    rng = random.Random(2028)
    seen = {"negative": 0, "fraction": 0, "repeated class": 0, "square factor": 0}
    for _ in range(3000):
        entries = []
        for _ in range(rng.randint(1, 7)):
            if entries and rng.random() < 0.2:  # the class of an earlier entry, scaled by a square
                a = rng.choice(entries) * F(rng.randint(1, 12), rng.randint(1, 12)) ** 2
            else:
                a = F(rng.choice((-1, 1)) * rng.randint(1, 2000) * rng.choice((1, 4, 8, 9, 49)), rng.randint(1, 60))
            entries.append(a)
        f = DiagonalForm(entries)
        det = det_square_class(f)
        assert det == reference_det_square_class(f) == squarefree_part(math.prod(entries)), f
        classes = [squarefree_part(a) for a in entries]
        seen["negative"] += det < 0
        seen["fraction"] += any(a.denominator != 1 for a in entries)
        seen["repeated class"] += len(set(classes)) < len(classes)
        seen["square factor"] += any(squarefree_part(a) != a for a in entries)
    assert min(seen.values()) > 500, seen
