import json

import pytest

from sporbits import sweep
from sporbits.cli import main
from sporbits.patterns import BOTTOM_VERTEX_TABLE
from sporbits.geometry import flag_to_json, gram_basis_flag
from sporbits.involutions import parse_involution

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
