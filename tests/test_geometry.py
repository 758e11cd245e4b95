import json
import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from sporbits import geometry
from sporbits.geometry import (
    ConsistencyError,
    FlagError,
    FlagMatrix,
    classify_flag,
    flag_to_json,
    gram_basis_flag,
    gram_target,
    mat_mul,
    parse_flag_json,
    random_symplectic,
    rank_grid,
    standard_form,
    transform_flag,
)
from sporbits.involutions import FpfInvolution, corner_counts, enumerate_fpf, parse_involution, w0

from oracles import (
    corner_rank_grid,
    fpf_words,
    fraction_mat_mul,
    fraction_rank,
    identity,
    transpose,
    transvection_product,
)

p = parse_involution


def _identity_flag(m):
    return FlagMatrix(tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m)))


def _random_flag(rng, m):
    while True:
        rows = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m))
            for _ in range(m)
        )
        try:
            return FlagMatrix(rows)
        except FlagError:
            continue


class TestStandardForm:
    def test_n1(self):
        assert standard_form(1) == ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))

    def test_n2_antidiagonal(self):
        j = standard_form(2)
        anti = [j[i][4 - 1 - i] for i in range(4)]
        assert anti == [1, 1, -1, -1]
        assert all(j[i][k] == 0 for i in range(4) for k in range(4) if i + k != 3)

    def test_n3_antidiagonal(self):
        j = standard_form(3)
        assert [j[i][6 - 1 - i] for i in range(6)] == [1, 1, 1, -1, -1, -1]
        assert all(j[i][k] == 0 for i in range(6) for k in range(6) if i + k != 5)
        assert all(type(x) is Fraction for row in j for x in row)

    def test_skew_symmetric(self):
        j = standard_form(3)
        jt = transpose(j)
        assert all(j[i][k] + jt[i][k] == 0 for i in range(6) for k in range(6))

    def test_refuses_half_degree_zero(self):
        with pytest.raises(FlagError, match="^half-degree must be at least 1, got 0$"):
            standard_form(0)


class TestRankGrid:
    def test_refuses_non_square(self):
        # A 1x2 matrix once got a 2x2 grid without its second column (its
        # rank is 1), and a 2x1 matrix a 3x3 grid.
        zero, one = Fraction(0), Fraction(1)
        with pytest.raises(FlagError, match=r"^rank grid needs a square matrix: row 1 has 2 entries, expected 1$"):
            rank_grid(((zero, one),))
        with pytest.raises(FlagError, match=r"^rank grid needs a square matrix: row 1 has 1 entries, expected 2$"):
            rank_grid(((one,), (zero,)))

    def test_matches_plain_elimination(self):
        rng = random.Random(7)
        for m in (4, 6):
            for _ in range(4):
                flag = _random_flag(rng, m)
                gram = mat_mul(mat_mul(flag.rows, standard_form(m // 2)), transpose(flag.rows))
                grid = rank_grid(gram)
                for i in range(1, m + 1):
                    for j in range(1, m + 1):
                        sub = [list(gram[r][:j]) for r in range(i)]
                        assert grid[i][j] == fraction_rank(sub), (i, j)

    def test_nondegeneracy_margins(self):
        rng = random.Random(11)
        for _ in range(5):
            flag = _random_flag(rng, 4)
            gram = mat_mul(mat_mul(flag.rows, standard_form(2)), transpose(flag.rows))
            grid = rank_grid(gram)
            for i in range(1, 5):
                assert grid[i][4] == i
                assert grid[4][i] == i


    def test_one_pass_equals_corner_oracle(self):
        # Square rational matrices of size 1..8; a third get a row that is a
        # combination of two earlier ones, a third are mostly zero.
        rng = random.Random(29)
        singular = 0
        for size in range(1, 9):
            for trial in range(9):
                zero = 0.7 if trial % 3 == 1 else 0.2
                rows = [
                    [Fraction(0) if rng.random() < zero else Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                     for _ in range(size)]
                    for _ in range(size)
                ]
                if trial % 3 == 0 and size >= 3:
                    a, b = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3), 3)
                    rows[size - 1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
                m = tuple(map(tuple, rows))
                singular += fraction_rank(rows) < size
                assert rank_grid(m) == corner_rank_grid(m), m
        assert singular >= 10

    def test_one_pass_equals_corner_oracle_on_basis_grams(self):
        for n in range(1, 5):
            for mu in enumerate_fpf(n):
                flag = gram_basis_flag(mu)
                gram = mat_mul(mat_mul(flag.rows, standard_form(n)), transpose(flag.rows))
                assert rank_grid(gram) == corner_rank_grid(gram), mu


class TestMatMul:
    def test_equals_fraction_product_with_mixed_denominators(self):
        rng = random.Random(31)
        for rows, inner, cols in ((1, 1, 1), (2, 3, 4), (4, 4, 4), (5, 2, 3), (12, 12, 12)):
            a = tuple(
                tuple(rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 12))))
                      for _ in range(inner))
                for _ in range(rows)
            )
            b = tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(cols)) for _ in range(inner))
            product = mat_mul(a, b)
            assert product == fraction_mat_mul(a, b)
            assert all(type(x) is Fraction for row in product for x in row)

    def test_shape_mismatch(self):
        with pytest.raises(FlagError, match="shape mismatch: 2x3 times 2x2"):
            mat_mul(((1, 2, 3), (4, 5, 6)), ((1, 0), (0, 1)))


class TestClassify:
    def test_identity_flag_is_closed_orbit(self):
        assert classify_flag(_identity_flag(4)) == p("4321")
        assert classify_flag(_identity_flag(6)) == p("654321")

    def test_adding_a_later_row_changes_the_flag(self):
        # e1+e2 as the first row moves V_1 off the line <e1>, so this is a
        # genuinely different flag: <e1+e2> pairs nontrivially with V_3
        # (rank 1 where the identity flag has 0), landing in the 3412 orbit.
        # Only operations adding *earlier* rows preserve the flag steps; see
        # test_random_row_operations_invariant below.
        rows = (
            (1, 1, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        )
        assert classify_flag(FlagMatrix(rows)) == p("3412")

    def test_random_row_operations_invariant(self):
        rng = random.Random(13)
        for _ in range(5):
            flag = _random_flag(rng, 6)
            base = classify_flag(flag)
            rows = [list(r) for r in flag.rows]
            for _ in range(4):
                i = rng.randrange(1, 6)
                k = rng.randrange(0, i)
                c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
            assert classify_flag(FlagMatrix(tuple(tuple(r) for r in rows))) == base

    def test_round_trip_degree_six(self):
        for mu in enumerate_fpf(3):
            assert classify_flag(gram_basis_flag(mu)) == mu

    def test_orbit_grid_equals_fraction_oracle_on_moved_flags(self):
        # The orbit's grid c_pi must be the rank grid of the flag's pairings,
        # here by Fraction products with J written out: +1 at (i, 2n+1-i)
        # for i <= n, -1 below.  Flags are basis flags moved by the oracle's
        # transvection products, and random flags.
        rng = random.Random(41)
        for n in range(1, 5):
            m = 2 * n
            form = [[Fraction(0)] * m for _ in range(m)]
            for i in range(m):
                form[i][m - 1 - i] = Fraction(1 if i < n else -1)
            mus = list(enumerate_fpf(n))
            moved = [
                (mu, fraction_mat_mul(gram_basis_flag(mu).rows, transvection_product(n, seed, 5)))
                for mu in (mus if n < 4 else rng.sample(mus, 8))
                for seed in (1, 2)
            ]
            moved += [(None, _random_flag(rng, m).rows) for _ in range(3)]
            for mu, rows in moved:
                pi = classify_flag(FlagMatrix(rows))
                gram = fraction_mat_mul(fraction_mat_mul(rows, form), transpose(rows))
                assert corner_counts(pi.word) == corner_rank_grid(gram), rows
                assert mu is None or pi == mu

    def test_consistency_guards(self, monkeypatch):
        flag = _identity_flag(4)
        monkeypatch.setattr(geometry, "_pivots", lambda rows: [4, None, 2, 1])
        with pytest.raises(ConsistencyError, match=r"^row 2 of the pairing grid adds no rank$"):
            classify_flag(flag)
        monkeypatch.setattr(geometry, "_pivots", lambda rows: [2, 3, 4, 1])
        message = "recovered map [2, 3, 4, 1] is not a fixed-point-free involution"
        with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
            classify_flag(flag)

    def test_singular_matrix_rejected(self):
        with pytest.raises(FlagError, match="singular"):
            FlagMatrix(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 0)))

    def test_booleans_rejected(self):
        # Fraction(True) == 1; a flag of booleans is not a rational flag.
        with pytest.raises(FlagError, match="bad rational at row 1, column 1: True"):
            FlagMatrix(((True, 0), (0, 1)))

    def test_floats_rejected(self):
        # Fraction(0.1) is the binary float, not 1/10.
        with pytest.raises(FlagError, match="bad rational at row 2, column 2: 0.1"):
            FlagMatrix(((1, 0), (0, 0.1)))

    def test_shape_errors(self):
        with pytest.raises(FlagError, match="row 1"):
            FlagMatrix(((1, 0), (0, 1), (0, 0)))
        with pytest.raises(FlagError, match="even"):
            FlagMatrix(())


class TestGramBasisFlag:
    def test_reversal_gives_identity_basis(self):
        assert gram_basis_flag(p("4321")).rows == identity(4)
        assert gram_basis_flag(w0(4)).rows == identity(8)

    def test_target_structure_for_2143(self):
        g = gram_target(p("2143"))
        nonzero = {(i + 1, j + 1): g[i][j] for i in range(4) for j in range(4) if g[i][j]}
        assert nonzero == {(1, 2): 1, (2, 1): -1, (3, 4): 1, (4, 3): -1}
        flag = gram_basis_flag(p("2143"))
        gram = mat_mul(mat_mul(flag.rows, standard_form(2)), transpose(flag.rows))
        assert gram == g

    def test_gram_matches_target_degree_six(self):
        for mu in enumerate_fpf(3):
            flag = gram_basis_flag(mu)
            gram = mat_mul(mat_mul(flag.rows, standard_form(3)), transpose(flag.rows))
            assert gram == gram_target(mu)


class TestRandomSymplectic:
    def test_preserves_form(self):
        for n in (1, 2, 3):
            for seed in (0, 1, 2):
                s = random_symplectic(n, seed)
                j = standard_form(n)
                assert mat_mul(mat_mul(s, j), transpose(s)) == j

    def test_refuses_half_degree_zero(self):
        with pytest.raises(FlagError, match="^half-degree must be at least 1, got 0$"):
            random_symplectic(0, 1)

    def test_zero_transvections_is_identity(self):
        assert random_symplectic(2, seed=5, transvections=0) == identity(4)
        for n in range(1, 7):
            assert random_symplectic(n, seed=5, transvections=0) == transvection_product(n, 5, 0)

    def test_equals_fraction_product_oracle(self):
        for n in range(1, 7):
            for seed in range(10):
                s = random_symplectic(n, seed)
                assert s == transvection_product(n, seed), (n, seed)
                assert all(type(x) is Fraction for row in s for x in row)

    def test_deterministic(self):
        assert random_symplectic(2, seed=42) == random_symplectic(2, seed=42)
        assert random_symplectic(2, seed=42) != random_symplectic(2, seed=43)

    def test_action_preserves_class(self):
        rng = random.Random(17)
        mats = [random_symplectic(2, seed=k) for k in range(8)]
        for mu in enumerate_fpf(2):
            flag = gram_basis_flag(mu)
            for s in mats:
                assert classify_flag(transform_flag(flag, s)) == mu
        for _ in range(3):
            flag = _random_flag(rng, 4)
            base = classify_flag(flag)
            for s in mats[:4]:
                assert classify_flag(transform_flag(flag, s)) == base

    def test_action_preserves_class_degree_eight_sample(self):
        rng = random.Random(23)
        mats = [random_symplectic(4, seed=k, transvections=5) for k in range(3)]
        sample = rng.sample(list(enumerate_fpf(4)), 8)
        for mu in sample:
            flag = gram_basis_flag(mu)
            for s in mats:
                assert classify_flag(transform_flag(flag, s)) == mu


class TestSerialization:
    def test_round_trip(self):
        flag = gram_basis_flag(p("2143"))
        text = flag_to_json(flag)
        assert parse_flag_json(text).rows == flag.rows

    def test_accepts_fractions_and_integers(self):
        flag = parse_flag_json('[["1/2", 0], [0, "2"]]')
        assert flag.rows == ((Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2)))

    def test_parse_errors_carry_position(self):
        with pytest.raises(FlagError, match="row 2, column 1"):
            parse_flag_json('[["1", "0"], ["x", "1"]]')
        with pytest.raises(FlagError, match="JSON"):
            parse_flag_json("not json")
        with pytest.raises(FlagError, match="array of arrays"):
            parse_flag_json('{"rows": []}')

    def test_booleans_are_not_rationals(self):
        # Fraction(True) == 1, so booleans must be refused before conversion
        with pytest.raises(FlagError, match="bad rational at row 1, column 1"):
            parse_flag_json("[[true, false], [false, true]]")
        with pytest.raises(FlagError, match="row 2, column 2"):
            parse_flag_json('[["1", 0], [0, false]]')

    @pytest.mark.parametrize(
        "entry", ["1e3", "0.5", " 1", "1_0", "+1", "٣", "３", "1/0", "1/-2", "--1", "-", "", "1/", "/2"]
    )
    def test_only_the_written_text_form_is_read(self, entry):
        # Fraction's own grammar reads most of these; a flag entry is only
        # what flag_to_json writes: ASCII digits, an optional "-" and "/q".
        with pytest.raises(FlagError, match="bad rational at row 1, column 1"):
            parse_flag_json(json.dumps([[entry, 0], [0, 1]]))

    @pytest.mark.parametrize("entry, value", [("-1/2", Fraction(-1, 2)), ("12/4", 3), ("0", 0)])
    def test_text_forms_read(self, entry, value):
        flag = parse_flag_json(json.dumps([[1, entry], [0, 1]]))
        assert flag.rows[0][1] == value and type(flag.rows[0][1]) is Fraction

    def test_other_rational_types_refused(self):
        with pytest.raises(FlagError, match=r"bad rational at row 1, column 1: Decimal\('1'\)"):
            FlagMatrix(((Decimal(1), 0), (0, 1)))

    def test_exponent_refused_before_any_arithmetic(self):
        # Fraction("1e10000000") builds a ten-million-digit integer, in
        # seconds; a larger exponent would only take longer to show that.
        start = time.perf_counter()
        with pytest.raises(FlagError, match="bad rational at row 1, column 1"):
            parse_flag_json('[["1e10000000", 0], [0, 1]]')
        assert time.perf_counter() - start < 0.1

    def test_row_length_checked_before_coercion(self):
        # Coercing first would refuse the boolean at row 1, column 1.
        text = "[[" + ", ".join(["true"] * 300000) + "], [0, 1]]"
        with pytest.raises(FlagError, match="row 1 has 300000 entries, expected 2"):
            parse_flag_json(text)


def _int_row_cases():
    """(flag, its rows as the old Fraction coercion made them): random flags and
    moved basis flags at 2n <= 12, the moves by the oracle's Fraction product."""
    rng = random.Random(59)
    for n in range(1, 7):
        m = 2 * n
        for _ in range(3):
            rows = _random_flag(rng, m).rows
            yield FlagMatrix(rows), tuple(tuple(map(Fraction, row)) for row in rows)
        mus = list(enumerate_fpf(n)) if n <= 3 else [FpfInvolution(w) for w in rng.sample(fpf_words(m), 4)]
        for mu in mus[:5]:
            s = random_symplectic(n, rng.randrange(10**6), rng.randrange(12))
            yield transform_flag(gram_basis_flag(mu), s), fraction_mat_mul(_basis_rows(mu), s)


def _basis_rows(mu):
    """gram_basis_flag(mu)'s rows as Fractions, written out from the arcs."""
    m = mu.degree
    rows = [[Fraction(0)] * m for _ in range(m)]
    for k, arc in enumerate(mu.arcs(), start=1):
        rows[arc.a - 1][k - 1] = rows[arc.d - 1][m - k] = Fraction(1)
    return tuple(map(tuple, rows))


class TestIntRows:
    """A flag keeps int rows over one denominator per row; Fractions appear only when `rows` is read."""

    def test_rows_json_and_parse_equal_the_fraction_forms(self):
        count = 0
        for flag, coerced in _int_row_cases():
            assert flag.rows == coerced
            assert all(type(x) is Fraction for row in flag.rows for x in row)
            text = flag_to_json(flag)
            assert text == json.dumps([[str(x) for x in row] for row in coerced])
            assert parse_flag_json(text).rows == coerced
            count += 1
        assert count == 39

    @pytest.mark.parametrize(
        "data, rows",
        [
            ([["2/4", "-0"], ["0/7", 3]], [["1/2", "0"], ["0", "3"]]),
            ([[1, "-3/6"], ["4/8", 2]], [["1", "-1/2"], ["1/2", "2"]]),
            ([["-12/4", 0], [5, "10/25"]], [["-3", "0"], ["5", "2/5"]]),
        ],
    )
    def test_unreduced_and_signed_entries(self, data, rows):
        flag = parse_flag_json(json.dumps(data))
        assert flag_to_json(flag) == json.dumps(rows)
        assert flag.rows == tuple(tuple(map(Fraction, row)) for row in rows)

    def test_mixed_denominators_in_one_row(self):
        flag = FlagMatrix(((Fraction(1, 2), 3), (Fraction(-2, 3), Fraction(5, 6))))
        assert flag_to_json(flag) == '[["1/2", "3"], ["-2/3", "5/6"]]'
        assert transform_flag(flag, identity(2)).rows == flag.rows

    def test_transform_refuses_a_matrix_of_another_size(self):
        with pytest.raises(FlagError, match=r"^a flag of 4 rows moves only by a 4x4 matrix$"):
            transform_flag(_identity_flag(4), identity(2))
        with pytest.raises(FlagError, match=r"^a flag of 2 rows moves only by a 2x2 matrix$"):
            transform_flag(_identity_flag(2), ((1, 0, 0), (0, 1, 0)))

    def test_flag_is_immutable(self):
        flag = _identity_flag(2)
        with pytest.raises(AttributeError):
            flag.rows = ((1, 0), (0, 1))

    def test_no_fraction_rows_between_input_and_output(self):
        # Build, move, serialize, parse and classify as `flags` and `classify` do.
        rng = random.Random(61)
        for n in range(1, 7):
            word = rng.choice(fpf_words(2 * n))
            basis = gram_basis_flag(FpfInvolution(word))
            moved = transform_flag(basis, random_symplectic(n, rng.randrange(10**6)))
            parsed = parse_flag_json(flag_to_json(moved))
            assert classify_flag(parsed).word == word
            assert all("rows" not in vars(f) for f in (basis, moved, parsed)), word
