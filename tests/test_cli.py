import json
import os
import subprocess
import sys
import time

import pytest

from sporbits import patterns, sweep
from sporbits.cli import main
from sporbits.patterns import BOTTOM_VERTEX_TABLE
from sporbits.geometry import flag_to_json, gram_basis_flag
from sporbits.involutions import _pack, parse_involution

p = parse_involution


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--output", "json")
    return code, json.loads(out), err


class TestBasicCommands:
    def test_enumerate_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--degree", "4")
        assert code == 0
        assert out.splitlines() == ["2143", "3412", "4321"]

    def test_enumerate_json(self, capsys):
        code, data, _ = run_json(capsys, "enumerate", "--degree", "4")
        assert code == 0
        assert data["schema"] == "sporbits.enumerate/1"
        assert data["count"] == 3

    def test_enumerate_over_cap(self, capsys):
        code, _, err = run(capsys, "enumerate", "--degree", "12")
        assert code == 3
        assert "cap" in err

    def test_enumerate_with_override(self, capsys):
        code, data, _ = run_json(capsys, "enumerate", "--degree", "12", "--max-degree-override", "12")
        assert code == 0
        assert data["count"] == 10395

    def test_override_beyond_hard_max(self, capsys):
        code, _, err = run(capsys, "enumerate", "--degree", "16", "--max-degree-override", "16")
        assert code == 3
        assert "cap 14" in err

    def test_override_hint_only_where_the_cap_can_rise(self, capsys):
        top16 = ",".join(str(k + 1 if k % 2 else k - 1) for k in range(1, 17))
        code, out, err = run(capsys, "poly", top16)
        assert (code, out) == (3, "")
        assert "exceeds the cap 10 (raise it with --max-degree-override)" in err
        code, out, err = run(capsys, "poly", top16, "--max-degree-override", "14")
        assert (code, out) == (3, "")
        assert "(2027025 involutions) exceeds the cap 14" in err
        assert "raise it" not in err

    def test_rank(self, capsys):
        code, out, _ = run(capsys, "rank", "351624")
        assert (code, out.strip()) == (0, "4")

    @pytest.mark.parametrize("command", ["rank", "poly", "singular-locus"])
    def test_dot_refused_where_nothing_renders_it(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "351624", "--output", "dot"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'dot'" in captured.err

    def test_rank_bad_input(self, capsys):
        code, _, err = run(capsys, "rank", "2043")
        assert code == 2
        assert "error" in err
        code, _, err = run(capsys, "rank", "21x4")
        assert code == 2

    def test_rank_letter_over_the_int_digit_limit(self, capsys):
        code, out, err = run(capsys, "rank", "2," + "1" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad integer") and "at entry 2" in err
        # The refused text is echoed cut short, with its length.
        assert len(err.rstrip("\n")) < 200 and "(5000 characters)" in err

    def test_option_over_the_int_digit_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--degree", "9" * 5000])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "expected ASCII digits" in err and "(5000 characters)" in err
        assert max(map(len, err.splitlines())) < 200

    def test_order(self, capsys):
        code, data, _ = run_json(capsys, "order", "4321", "3412")
        assert code == 0
        assert data["mu_leq_pi"] is True and data["pi_leq_mu"] is False
        assert data["relation"] == "mu < pi"
        code, data, _ = run_json(capsys, "order", "2143", "4321")
        assert data["relation"] == "mu > pi"

    def test_interval(self, capsys):
        code, out, _ = run(capsys, "interval", "2143")
        assert code == 0
        assert out.splitlines() == ["2143 2", "3412 1", "4321 0"]

    def test_poly(self, capsys):
        code, data, _ = run_json(capsys, "poly", "351624")
        assert code == 0
        assert data["coeffs"] == [1, 2, 3, 3, 1]
        assert data["palindromic"] is False

    def test_factor(self, capsys):
        code, data, _ = run_json(capsys, "factor", "2143")
        assert code == 0
        assert data["exponents"] == [2, 0]
        assert data["product"] == [1, 1, 1]

    def test_factor_refusal(self, capsys):
        code, _, err = run(capsys, "factor", "351624")
        assert code == 2
        assert "351624" in err
        code, data, _ = run_json(capsys, "factor", "47513826")
        assert code == 2
        assert data["refused"] is True
        assert data["witness"] == {"pattern": "351624", "indices": [1, 2, 4, 6, 7, 8]}

    def test_avoid(self, capsys):
        code, out, _ = run(capsys, "avoid", "2143")
        assert code == 0 and "avoids" in out
        code, data, _ = run_json(capsys, "avoid", "47513826")
        assert code == 0
        assert data["avoids"] is False
        assert data["witness"]["indices"] == [1, 2, 4, 6, 7, 8]

    @pytest.mark.parametrize("command", ["avoid", "factor"])
    def test_pattern_search_capped_before_index_sets(self, capsys, monkeypatch, command):
        def no_search(*args):
            raise AssertionError("the degree check must come before any search")

        monkeypatch.setattr(patterns, "_first_occurrence", no_search)
        over = ",".join(str(x) for k in range(1, 66) for x in (2 * k, 2 * k - 1))
        code, out, err = run(capsys, command, over)
        assert (code, out) == (3, "")
        assert "degree 130 exceeds the cap 128" in err
        # At the cap itself the search starts.
        with pytest.raises(AssertionError, match="before any search"):
            main([command, over.rsplit(",", 2)[0]])

    def test_graph_dot(self, capsys):
        code, out, _ = run(capsys, "graph", "2143", "--output", "dot")
        assert code == 0
        assert out.startswith("graph interval {")
        assert out.count(" -- ") == 3

    def test_graph_with_bottom(self, capsys):
        code, data, _ = run_json(capsys, "graph", "2143", "--bottom", "3412")
        assert code == 0
        assert data["bottom"] == "3412"
        assert len(data["vertices"]) == 2

    def test_bottom_passes_the_involution_gate(self, capsys):
        # An empty bottom is bad text, not w0; a bottom over the cap is refused like the top.
        code, out, err = run(capsys, "graph", "2143", "--bottom", "")
        assert (code, out) == (2, "")
        assert "empty involution text" in err
        code, out, err = run(capsys, "graph", "2143", "--bottom", "2,1,4,3,6,5,8,7,10,9,12,11")
        assert (code, out) == (3, "")
        assert "exceeds the cap 10" in err

    def test_singular_locus(self, capsys):
        code, out, _ = run(capsys, "singular-locus", "351624")
        assert code == 0
        assert out.splitlines() == ["564312 (maximal)", "654321"]
        code, out, _ = run(capsys, "singular-locus", "2143")
        assert "empty" in out

    def test_export_bad_patterns(self, capsys):
        code, data, _ = run_json(capsys, "export-bad-patterns")
        assert code == 0
        assert data["count"] == 17
        assert data["patterns"][0] == "351624"
        assert len(set(data["patterns"])) == 17


class TestAnalyze:
    def test_singular_case(self, capsys):
        code, data, _ = run_json(capsys, "analyze", "351624")
        assert code == 0
        assert data["rank"] == 4
        assert data["rationally_smooth"] is False
        assert data["witness"]["pattern"] == "351624"
        assert data["rank_poly"] == [1, 2, 3, 3, 1]
        assert data["factor_exponents"] is None
        assert data["singular_locus"] == {
            "members": ["564312", "654321"],
            "maximal": ["564312"],
        }

    def test_smooth_case(self, capsys):
        code, data, _ = run_json(capsys, "analyze", "2143")
        assert code == 0
        assert data["rationally_smooth"] is True
        assert data["witness"] is None
        assert data["factor_exponents"] == [2, 0]
        assert data["rank_poly"] == [1, 1, 1]
        assert data["singular_locus"]["members"] == []

    def test_trivial_case(self, capsys):
        code, data, _ = run_json(capsys, "analyze", "4321")
        assert data["rank_poly"] == [1] and data["rationally_smooth"] is True

    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "351624")
        assert code == 0
        assert "rationally smooth: no" in out
        assert "bad pattern: 351624 at indices 1,2,3,4,5,6" in out


class TestClassify:
    def test_identity_flag(self, capsys, tmp_path):
        path = tmp_path / "flag.json"
        path.write_text(json.dumps([[1 if i == j else 0 for j in range(4)] for i in range(4)]))
        code, data, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert data["orbit"] == "4321" and data["rank"] == 0
        assert data["rationally_smooth"] is True

    def test_gram_flag_of_open_orbit(self, capsys, tmp_path):
        path = tmp_path / "flag.json"
        path.write_text(flag_to_json(gram_basis_flag(p("2143"))))
        code, data, _ = run_json(capsys, "classify", str(path))
        assert code == 0
        assert data["orbit"] == "2143"

    def test_grid_output(self, capsys, tmp_path):
        path = tmp_path / "flag.json"
        path.write_text(json.dumps([[1 if i == j else 0 for j in range(4)] for i in range(4)]))
        code, data, _ = run_json(capsys, "classify", str(path), "--grid")
        assert code == 0
        # identity flag: r(i, j) = max(0, i + j - 4)
        assert data["grid"][0] == [0, 0, 0, 1]
        assert data["grid"][3] == [1, 2, 3, 4]

    def test_singular_input(self, capsys, tmp_path):
        path = tmp_path / "flag.json"
        path.write_text(json.dumps([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
        code, _, err = run(capsys, "classify", str(path))
        assert code == 2
        assert "singular" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", str(tmp_path / "nope.json"))
        assert code == 2

    def test_boolean_entries_refused(self, capsys, tmp_path):
        path = tmp_path / "flag.json"
        path.write_text("[[true, false], [false, true]]")
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2
        assert out == ""
        assert "bad rational at row 1, column 1" in err

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b'[["\xff", 0], [0, 1]]', id="not-utf-8"),
            pytest.param(b"[[" + b"1" * 4301 + b", 0], [0, 1]]", id="int-over-4300-digits"),
            pytest.param(b"[" * 100000, id="deep-nesting"),
            pytest.param(b'[["1e3", 0], [0, 1]]', id="exponent-entry"),
        ],
    )
    def test_unreadable_files_are_input_errors(self, capsys, tmp_path, content):
        path = tmp_path / "flag.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_size_cap_before_coercion(self, capsys, tmp_path):
        # Booleans are refused entry by entry with exit 2; exit 3 shows that
        # the 16-row cap refused the file before any entry was read.
        path = tmp_path / "flag.json"
        path.write_text(json.dumps([[True] * 18 for _ in range(18)]))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (3, "")
        assert "18 rows, more than the cap 16" in err

    @pytest.mark.parametrize("rows", [[], [[1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])
    def test_empty_and_odd_sizes_are_input_errors(self, capsys, tmp_path, rows):
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(rows))
        code, out, _ = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")


# The two rows the reference table carried before they were corrected;
# patched back in, they exercise the diff path of verify-table.
OLD_WRONG_ROWS = {
    "53281764": (7, ("12", "13", "14", "23", "24", "25", "34", "35")),
    "34128765": (9, ("12", "13", "14", "15", "16", "23", "24", "25", "26", "34", "35")),
}


def patch_old_rows(monkeypatch):
    for pattern, row in OLD_WRONG_ROWS.items():
        monkeypatch.setitem(BOTTOM_VERTEX_TABLE, pattern, row)


class TestVerifyTable:
    def test_shipped_table_matches(self, capsys):
        code, out, _ = run(capsys, "verify-table")
        assert code == 0
        assert "DIFF" not in out
        assert out.splitlines()[-1] == "verify-table: OK (17 rows)"

    def test_reports_known_reference_diffs(self, capsys, monkeypatch):
        # with the old wrong rows patched back in, the command must surface
        # exactly those rows
        patch_old_rows(monkeypatch)
        code, data, _ = run_json(capsys, "verify-table")
        assert code == 1
        assert data["ok"] is False
        assert data["diffs"] == ["53281764", "34128765"]
        by_pattern = {r["pattern"]: r for r in data["rows"]}
        assert by_pattern["351624"]["ok"] is True
        assert by_pattern["53281764"]["edges"] == ["12", "13", "14", "23", "24", "25", "26", "34", "35"]
        assert by_pattern["34128765"]["edges"] == ["12", "13", "14", "15", "23", "24", "25", "26", "34", "35"]
        assert all(r["rank"] == r["expected_rank"] for r in data["rows"])

    def test_text_mode_marks_diffs(self, capsys, monkeypatch):
        patch_old_rows(monkeypatch)
        code, out, _ = run(capsys, "verify-table")
        assert code == 1
        assert out.count("DIFF") == 2
        assert "MISMATCH (2 of 17 rows differ)" in out


class TestVerifyTheorem:
    def test_degree_six(self, capsys):
        code, data, _ = run_json(capsys, "verify-theorem", "--degree", "6")
        assert code == 0
        assert data["ok"] is True
        per_degree = {d["degree"]: d for d in data["degrees"]}
        assert per_degree[4] == {"degree": 4, "count": 3, "smooth": 3, "mismatches": []}
        assert per_degree[6] == {"degree": 6, "count": 15, "smooth": 14, "mismatches": []}

    def test_degree_eight_smooth_count(self, capsys):
        code, data, _ = run_json(capsys, "verify-theorem", "--degree", "8")
        assert code == 0
        per_degree = {d["degree"]: d for d in data["degrees"]}
        assert per_degree[8]["count"] == 105
        assert per_degree[8]["smooth"] == 68

    def test_json_output_repeats_without_workers_key(self, capsys):
        code1, out1, _ = run(capsys, "verify-theorem", "--degree", "8", "--output", "json")
        code2, out2, _ = run(capsys, "verify-theorem", "--degree", "8", "--output", "json")
        assert code1 == code2 == 0
        assert out1 == out2
        assert set(json.loads(out1)) == {"schema", "max_degree", "degrees", "ok"}

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "verify-theorem", "--degree", "4")
        assert code == 0
        assert "degree 4: 3 involutions, 3 rationally smooth, equivalence holds" in out
        assert "verify-theorem: OK" in out

    def test_mismatches_reported_in_word_order(self, capsys, monkeypatch):
        # Flip avoidance at known words, at ranks that the sweep meets out of
        # word order; each flip must come back as one counterexample.
        # At 2n = 10 the words are in comma form.
        flips = {
            6: ["214365", "351624", "654321"],
            8: ["21438765", "21768435", "34127856", "35162487"],
            10: ["2,1,10,9,8,7,6,5,4,3", "3,5,1,6,2,4,8,7,10,9", "4,3,2,1,10,9,8,7,6,5", "10,9,8,7,6,5,4,3,2,1"],
        }
        packed_avoiders = sweep._packed_avoiders

        def flipped(two_n):
            words = {_pack(p(w).word) for w in flips.get(two_n, ())}
            return frozenset(packed_avoiders(two_n) ^ words)

        monkeypatch.setattr(sweep, "_packed_avoiders", flipped)
        code, out, _ = run(capsys, "verify-theorem", "--degree", "10")
        assert code == 1
        assert out.splitlines() == [
            "degree 2: 1 involutions, 1 rationally smooth, equivalence holds",
            "degree 4: 3 involutions, 3 rationally smooth, equivalence holds",
            "degree 6: 15 involutions, 14 rationally smooth, 3 MISMATCHES",
            "  counterexample 214365: avoids=False palindromic=True regular=True",
            "  counterexample 351624: avoids=True palindromic=False regular=False",
            "  counterexample 654321: avoids=False palindromic=True regular=True",
            "degree 8: 105 involutions, 68 rationally smooth, 4 MISMATCHES",
            "  counterexample 21438765: avoids=False palindromic=True regular=True",
            "  counterexample 21768435: avoids=True palindromic=False regular=False",
            "  counterexample 34127856: avoids=True palindromic=False regular=False",
            "  counterexample 35162487: avoids=True palindromic=False regular=False",
            "degree 10: 945 involutions, 320 rationally smooth, 4 MISMATCHES",
            "  counterexample 2,1,10,9,8,7,6,5,4,3: avoids=False palindromic=True regular=True",
            "  counterexample 3,5,1,6,2,4,8,7,10,9: avoids=True palindromic=False regular=False",
            "  counterexample 4,3,2,1,10,9,8,7,6,5: avoids=True palindromic=False regular=False",
            "  counterexample 10,9,8,7,6,5,4,3,2,1: avoids=False palindromic=True regular=True",
            "verify-theorem: MISMATCH (degrees 2..10)",
        ]
        code, data, _ = run_json(capsys, "verify-theorem", "--degree", "10")
        assert code == 1
        assert data["ok"] is False
        smooth = {"avoids": False, "palindromic": True, "regular": True}
        singular = {"avoids": True, "palindromic": False, "regular": False}
        assert [(d["degree"], d["count"], d["smooth"], d["mismatches"]) for d in data["degrees"]] == [
            (2, 1, 1, []),
            (4, 3, 3, []),
            (6, 15, 14, [{"involution": "214365", **smooth}, {"involution": "351624", **singular},
                         {"involution": "654321", **smooth}]),
            (8, 105, 68, [{"involution": "21438765", **smooth}, {"involution": "21768435", **singular},
                          {"involution": "34127856", **singular}, {"involution": "35162487", **singular}]),
            (10, 945, 320, [{"involution": "2,1,10,9,8,7,6,5,4,3", **smooth},
                            {"involution": "3,5,1,6,2,4,8,7,10,9", **singular},
                            {"involution": "4,3,2,1,10,9,8,7,6,5", **singular},
                            {"involution": "10,9,8,7,6,5,4,3,2,1", **smooth}]),
        ]
        assert [list(m) for d in data["degrees"] for m in d["mismatches"]] == [
            ["involution", "avoids", "palindromic", "regular"]
        ] * 11

    def test_over_cap_refused(self, capsys):
        code, _, err = run(capsys, "verify-theorem", "--degree", "12")
        assert code == 3
        assert "cap" in err

    def test_dense_sweep_over_budget_refused_up_front(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("no degree may be swept before the size check")

        monkeypatch.setattr(sweep, "theorem_survey", no_sweep)
        code, out, err = run(capsys, "verify-theorem", "--degree", "16", "--max-degree-override", "16")
        assert code == 3
        assert out == ""
        assert "cap 14" in err and "2027025 involutions" in err

    def test_bad_workers(self, capsys):
        # --workers is gone: the sweep runs serially, so the flag is refused.
        with pytest.raises(SystemExit) as exc:
            main(["verify-theorem", "--degree", "4", "--workers", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers" in capsys.readouterr().err

    def test_seed_refused(self, capsys):
        # --seed is gone: no command draws random numbers from it.
        with pytest.raises(SystemExit) as exc:
            main(["verify-theorem", "--degree", "4", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["rank", "2143"], ["order", "4321", "2143"], ["factor", "2143"], ["avoid", "2143"], ["verify-table"],
         ["export-bad-patterns"]],
    )
    def test_override_refused_where_no_cap_is_read(self, capsys, argv):
        # These commands read no degree cap, so the override is not one of their options.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--max-degree-override", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-degree-override" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "order"])
def test_word_cap_refuses_before_the_quadratic_work(capsys, command):
    # Both commands are quadratic in the word length, so 8192 letters is their cap.
    bottom = ",".join(map(str, range(8194, 0, -1)))
    argv = [command, bottom] if command == "rank" else [command, bottom, bottom]
    start = time.monotonic()
    code, out, err = run(capsys, *argv)
    assert time.monotonic() - start < 1.0
    assert (code, out) == (3, "")
    assert "degree 8194 exceeds the cap 8192" in err


def test_module_entry_point_in_a_process():
    # Every other test calls main() in-process; this runs `python -m sporbits.cli`.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    runs = [
        (["rank", "351624"], 0, "4\n"),
        (["rank", "351624", "--output", "dot"], 2, ""),  # refused by argparse
        (["enumerate", "--degree", "12"], 3, ""),
    ]
    got = []
    for argv, _, _ in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "sporbits.cli", *argv], capture_output=True, text=True, env=env, timeout=60
        )
        got.append((argv, proc.returncode, proc.stdout))
    assert got == runs


# A child started from the test process would carry that process's peak RSS
# over its exec (the kernel keeps the larger), so a small launcher starts the
# command, passes its stdout through and prints its exit code and peak RSS.
_PEAK_RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:])
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
print(proc.returncode, usage.ru_maxrss)
"""


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_order_at_eight_thousand_letters_stays_small():
    # 8000 letters lies under the 8192-letter cap of `order`; the order test
    # must run in O(n) memory.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    bottom = ",".join(map(str, range(8000, 0, -1)))
    top = ",".join(str(x) for k in range(1, 4001) for x in (2 * k, 2 * k - 1))
    argv = [sys.executable, "-m", "sporbits.cli", "order", bottom, top]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    *out, last = proc.stdout.splitlines()
    code, peak_kib = map(int, last.split())
    assert (code, out) == (0, ["mu <= pi: true", "pi <= mu: false", "relation: mu < pi"])
    assert peak_kib < 50 * 1024, f"peak RSS {peak_kib} KiB"


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
@pytest.mark.parametrize(
    "output, first, last, count",
    [
        # a header of two lines and 155925 edges
        ("text", "interval [12,11,10,9,8,7,6,5,4,3,2,1, 2,1,4,3,6,5,8,7,10,9,12,11]: 10395 vertices, 155925 edges",
         "12,11,10,9,7,8,5,6,4,3,2,1 -- 12,11,10,9,8,7,6,5,4,3,2,1 [56,78]", 2 + 155925),
        # a header of two lines, 10395 vertices, 155925 edges and the closing brace
        ("dot", "graph interval {", "}", 2 + 10395 + 155925 + 1),
    ],
)
def test_graph_of_the_top_at_twelve_stays_small(output, first, last, count):
    # The graph keeps the scan's packed words and renders them a line at a
    # time: no involution per vertex, and never one string split into lines.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    top = "2,1,4,3,6,5,8,7,10,9,12,11"
    argv = [sys.executable, "-m", "sporbits.cli", "graph", top, "--max-degree-override", "12", "--output", output]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    *out, status = proc.stdout.splitlines()
    code, peak_kib = map(int, status.split())
    assert (code, out[0], out[-1], len(out)) == (0, first, last, count)
    assert peak_kib < 64 * 1024, f"peak RSS {peak_kib} KiB"


@pytest.mark.skipif(os.environ.get("SPORBITS_SLOW") != "1", reason="slow: set SPORBITS_SLOW=1")
def test_graph_json_of_the_top_at_twelve_stays_small():
    # The JSON payload goes out in batches of encoder chunks, never as one string.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    top = "2,1,4,3,6,5,8,7,10,9,12,11"
    argv = [sys.executable, "-m", "sporbits.cli", "graph", top, "--max-degree-override", "12", "--output", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    out, last = proc.stdout.rstrip("\n").rsplit("\n", 1)
    code, peak_kib = map(int, last.split())
    payload = json.loads(out)
    assert (code, len(payload["vertices"]), len(payload["edges"])) == (0, 10395, 155925)
    assert peak_kib < 200 * 1024, f"peak RSS {peak_kib} KiB"
