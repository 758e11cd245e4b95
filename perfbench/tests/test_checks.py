"""Each output check accepts the package's real output and rejects corrupted copies."""

import contextlib
import io
import json
import random

import pytest

import checks
import fpf

SWEEP_TEXT = """\
degree 2: 1 involutions, 1 rationally smooth, equivalence holds
degree 4: 3 involutions, 3 rationally smooth, equivalence holds
degree 6: 15 involutions, 14 rationally smooth, equivalence holds
degree 8: 105 involutions, 68 rationally smooth, equivalence holds
degree 10: 945 involutions, 320 rationally smooth, equivalence holds
degree 12: 10395 involutions, 1472 rationally smooth, equivalence holds
verify-theorem: OK (degrees 2..12)
"""


def _cli(argv):
    from sporbits import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_sweep_text_passes():
    assert checks.check_sweep(SWEEP_TEXT, 0, 12) == []


def test_sweep_check_matches_the_package_at_small_degree():
    rc, text = _cli(["verify-theorem", "--degree", "8"])
    assert checks.check_sweep(text, rc, 8) == []


@pytest.mark.parametrize(
    "old, new",
    [
        ("945 involutions", "944 involutions"),
        ("1472 rationally", "1473 rationally"),
        ("degree 8: 105 involutions, 68 rationally smooth, equivalence holds",
         "degree 8: 105 involutions, 68 rationally smooth, 1 MISMATCHES\n  counterexample 2143: x"),
        ("degree 12: 10395 involutions, 1472 rationally smooth, equivalence holds",
         "degree 12: 10395 involutions, 1472 rationally smooth, 2 MISMATCHES"),
        ("verify-theorem: OK", "verify-theorem: MISMATCH"),
        ("degree 4: 3 involutions, 3 rationally smooth, equivalence holds\n", ""),
    ],
)
def test_sweep_corruptions_are_rejected(old, new):
    assert old in SWEEP_TEXT
    assert checks.check_sweep(SWEEP_TEXT.replace(old, new), 0, 12)


def test_sweep_exit_code_is_checked():
    assert checks.check_sweep(SWEEP_TEXT, 1, 12)


SINGULAR = (3, 5, 1, 6, 2, 4)
SMOOTH = fpf.top(6)


@pytest.fixture(scope="module")
def analyses():
    out = {}
    for word in (SINGULAR, SMOOTH):
        rc, text = _cli(["analyze", fpf.fmt(word), "--output", "json"])
        assert rc == 0
        out[word] = json.loads(text)
    assert out[SINGULAR]["singular_locus"]["members"] and out[SMOOTH]["factor_exponents"]
    return out


def test_real_analyses_pass(analyses):
    assert checks.check_analyze(SINGULAR, json.dumps(analyses[SINGULAR]), 0, True) == []
    assert checks.check_analyze(SMOOTH, json.dumps(analyses[SMOOTH]), 0, False) == []


def _set(path, value):
    def corrupt(d):
        for key in path[:-1]:
            d = d[key]
        d[path[-1]] = value(d[path[-1]]) if callable(value) else value

    return corrupt


@pytest.mark.parametrize(
    "word, corrupt",
    [
        (SINGULAR, _set(["rationally_smooth"], True)),
        (SINGULAR, _set(["witness"], None)),
        (SINGULAR, _set(["singular_locus", "members"], lambda m: m[1:])),
        (SINGULAR, _set(["singular_locus", "maximal"], lambda m: m + ["214365"])),
        (SINGULAR, _set(["singular_locus", "maximal"], [])),
        (SINGULAR, _set(["rank"], 5)),
        (SINGULAR, _set(["rank_poly"], lambda p: p + [1])),
        (SINGULAR, _set(["factor_exponents"], [2, 1, 0])),
        (SINGULAR, _set(["involution"], "654321")),
        (SMOOTH, _set(["rank_poly"], lambda p: [1] + [c + 1 for c in p[1:-1]] + [1])),
        (SMOOTH, _set(["factor_exponents"], lambda e: [e[0] + 1] + e[1:])),
        (SMOOTH, _set(["factor_exponents"], None)),
        (SMOOTH, _set(["singular_locus", "members"], ["654321"])),
        (SMOOTH, _set(["rationally_smooth"], False)),
    ],
)
def test_analyze_corruptions_are_rejected(analyses, word, corrupt):
    d = json.loads(json.dumps(analyses[word]))
    corrupt(d)
    assert checks.check_analyze(word, json.dumps(d), 0, word == SINGULAR)


def test_analyze_rejects_a_missing_witness_for_a_built_obstruction(analyses):
    # A smooth verdict is self-consistent, but the query was built around a pattern.
    assert checks.check_analyze(SMOOTH, json.dumps(analyses[SMOOTH]), 0, True)


def test_analyze_rejects_bad_exit_and_garbage(analyses):
    assert checks.check_analyze(SMOOTH, json.dumps(analyses[SMOOTH]), 2, False)
    assert checks.check_analyze(SMOOTH, "{not json", 0, False)
    assert checks.check_analyze(SMOOTH, "{}", 0, False)


@pytest.fixture(scope="module")
def classified(tmp_path_factory):
    from sporbits import geometry, involutions

    word = fpf.random_fpf(random.Random(3), 8)
    flag = geometry.transform_flag(
        geometry.gram_basis_flag(involutions.FpfInvolution(word)), geometry.random_symplectic(4, 11)
    )
    path = tmp_path_factory.mktemp("flags") / "flag.json"
    path.write_text(geometry.flag_to_json(flag))
    rc, text = _cli(["classify", str(path), "--grid", "--output", "json"])
    assert rc == 0
    return word, json.loads(text)


def test_real_classification_passes(classified):
    word, d = classified
    assert checks.check_classify(word, json.dumps(d), 0, 10) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        _set(["orbit"], "21436587"),
        _set(["rank"], lambda r: r + 1),
        _set(["grid"], lambda g: [row[:] for row in g[:-1]] + [[x + 1 for x in g[-1][:1]] + g[-1][1:]]),
        _set(["grid"], lambda g: g[:-1]),
        _set(["rationally_smooth"], None),
    ],
)
def test_classify_corruptions_are_rejected(classified, corrupt):
    word, d = classified
    d = json.loads(json.dumps(d))
    corrupt(d)
    assert checks.check_classify(word, json.dumps(d), 0, 10)


def test_grid_formula_and_rank_agree_with_known_values():
    assert checks.rank_grid((2, 1, 4, 3)) == [[0, 1, 1, 1], [1, 2, 2, 2], [1, 2, 2, 3], [1, 2, 3, 4]]
    assert fpf.rank((3, 5, 1, 6, 2, 4)) == 4 and fpf.rank(fpf.reversal(6)) == 0
    assert fpf.rank(fpf.top(6)) == 6
    assert checks.bracket_product([2, 1]) == [1, 2, 2, 1]


def test_generated_inputs_are_what_they_claim():
    rng = random.Random(5)
    low = fpf.low_rank(10, 3)
    assert low and all(1 <= fpf.rank(w) <= 3 for w in low)
    for _ in range(20):
        w = fpf.with_obstruction(rng, 10)
        assert sorted(w) == list(range(1, 11)) and all(w[w[i] - 1] == i + 1 != w[i] for i in range(10))
