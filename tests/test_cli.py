import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcpotts.cli import run
from rcpotts.graphs import BUDGET
from rcpotts.polynomials import BivariatePolynomial


@pytest.fixture()
def triangle_file(tmp_path):
    f = tmp_path / "triangle.json"
    f.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    return str(f)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestPolynomials:
    def test_tutte(self, capsys, triangle_file):
        code, rep = run_json(capsys, ["tutte", "--graph", triangle_file])
        assert code == 0
        poly = BivariatePolynomial.from_json_dict(rep["polynomial"])
        assert poly == BivariatePolynomial({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_chromatic(self, capsys, triangle_file):
        code, rep = run_json(capsys, ["chromatic", "--graph", triangle_file])
        assert code == 0

    def test_out_file(self, tmp_path, triangle_file):
        out = tmp_path / "report.json"
        assert run(["rank-gen", "--graph", triangle_file, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "rank-gen"


class TestPartitions:
    def test_rc_partition_exact_string(self, capsys, triangle_file):
        code, rep = run_json(
            capsys, ["rc-partition", "--graph", triangle_file, "--p", "1/2", "--q", "2"]
        )
        assert code == 0
        # Z = sum over the 8 subsets of (1/2)^3 q^k = (8+3*4+3*2+2)/8
        assert rep["z_rc"] == "7/2"

    def test_potts_partition(self, capsys, triangle_file):
        code, rep = run_json(
            capsys, ["potts-partition", "--graph", triangle_file, "--beta", "0.0", "--q", "3"]
        )
        assert code == 0
        assert rep["z_p"] == pytest.approx(27.0)


class TestSampling:
    def test_sample_sw_reproducible(self, capsys, triangle_file):
        argv = [
            "sample-sw", "--graph", triangle_file, "--p", "0.5", "--q", "2",
            "--sweeps", "500", "--burn-in", "50", "--seed", "9",
        ]
        code1, rep1 = run_json(capsys, argv)
        code2, rep2 = run_json(capsys, argv)
        assert code1 == code2 == 0
        assert rep1["observables"] == rep2["observables"]
        assert {"tau", "tau_se", "conn", "conn_se", "n"} <= set(rep1["observables"])

    def test_flow_count(self, capsys, triangle_file):
        code, rep = run_json(capsys, ["flow-count", "--graph", triangle_file, "--q", "4"])
        assert code == 0 and rep["count"] == 3

    def test_flow_corr_mc(self, capsys, tmp_path):
        f = tmp_path / "edge.json"
        f.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        code, rep = run_json(
            capsys,
            ["flow-corr-mc", "--graph", str(f), "--lam", "0.5", "--q", "2",
             "--x", "0", "--y", "1", "--samples", "4000", "--seed", "5"],
        )
        assert code == 0
        assert abs(rep["estimate"] - math.tanh(0.5)) < 5 * rep["se"] + 1e-12


class TestVerify:
    def test_corrconn_suite_green(self, capsys):
        code, rep = run_json(capsys, ["verify", "corrconn", "--max-edges", "3"])
        assert code == 0 and rep["pass"]

    def test_fkg_violation_exits_two(self, capsys, triangle_file):
        code, rep = run_json(
            capsys,
            ["verify", "fkg", "--graph", triangle_file, "--p", "1/2", "--q", "1/4"],
        )
        assert code == 2 and not rep["pass"]

    def test_q_limits_suite_gates_ust_at_its_rate(self, capsys):
        # the spanning-tree regime cannot reach 1e-3 on the 3- and 4-cycles:
        # it is gated at its sqrt(q) rate, final TV <= C*sqrt(q) with
        # C = 4/3 and 7/4, and the other regimes at 1e-3
        code, rep = run_json(capsys, ["verify", "q-limits"])
        assert code == 0 and all(r["pass"] for r in rep["reports"])
        ust = [r["tv"][-1] for r in rep["reports"] if r["identity"] == "q-to-zero-ust"]
        assert len(ust) == 2 and 1e-3 < ust[0] <= 4 / 3 * 1e-3 and 1e-3 < ust[1] <= 7 / 4 * 1e-3
        assert all(r["tv"][-1] < 1e-3 for r in rep["reports"] if r["identity"] != "q-to-zero-ust")

    def test_forest_conjecture_informational(self, capsys):
        code, rep = run_json(capsys, ["verify", "forest-conjecture"])
        assert code == 0 and rep["pass"]

    @pytest.mark.parametrize(
        "suite, n_reports, message",
        [
            ("tutte-rcm", 1, "identity is checked on connected graphs only"),
            ("q-limits", 3, "connected-subgraph measure needs a connected graph"),
            ("ust-na", 1, "spanning-tree measure needs a connected graph"),
            ("forest-conjecture", 1, "connected-subgraph measure needs a connected graph"),
        ],
        ids=["tutte-rcm", "q-limits", "ust-na", "forest-conjecture"],
    )
    def test_suite_runs_on_the_graph_given(self, suite, n_reports, message, capsys, tmp_path, triangle_file):
        # --graph replaces the built-in sweep; a graph the check cannot take
        # exits 1 with the library's message
        code, rep = run_json(capsys, ["verify", suite, "--graph", triangle_file])
        assert code == 0 and len(rep["reports"]) == n_reports
        assert rep["reports"][0].get("graphs_scanned", 1) == 1
        two_components = tmp_path / "two-components.json"
        two_components.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]]}))
        assert run(["verify", suite, "--graph", str(two_components)]) == 1
        assert message in capsys.readouterr().err

    def test_verify_all_on_the_graph_given(self, capsys, triangle_file):
        # --graph replaces the atlas sweep of corrconn and partition too
        _, rep = run_json(capsys, ["verify", "all", "--graph", triangle_file])
        identities = [r["identity"] for r in rep["reports"]]
        assert identities.count("corr-conn") == 2 and identities.count("partition") == 1

    def test_verify_all_golden(self, tmp_path):
        # every report key, value and witness of the full suite, byte for byte
        out = tmp_path / "all.json"
        assert run(["verify", "all", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "650480681f488cce2855f49c56520862327f594809d1441240c3c5cc5498b7b5"

    def test_verify_all_without_networkx(self):
        # the golden bytes above, from an interpreter where networkx cannot be imported
        code = "import sys; sys.modules['networkx'] = None; from rcpotts.cli import run; sys.exit(run(['verify', 'all']))"
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(proc.stdout).hexdigest()
        assert digest == "650480681f488cce2855f49c56520862327f594809d1441240c3c5cc5498b7b5"


class TestKn:
    def test_kn_report(self, capsys):
        code, rep = run_json(capsys, ["kn", "--q", "2", "--lambda", "1.0", "--n", "6,10,14"])
        assert code == 0
        assert rep["eta"] == pytest.approx(math.log(2.0) - 0.25)

    def test_kn_real_q_default_sizes(self, capsys):
        # n = 8, 12 and 14 are past any edge-subset enumeration of K_n
        code, rep = run_json(capsys, ["kn", "--q", "1.5", "--lambda", "1"])
        assert code == 0 and rep["pass"]
        assert [row["n"] for row in rep["rows"]] == [4, 8, 12, 14]

    def test_kn_q_in_the_hundreds(self, capsys):
        # one spin state after another, in a loop: no recursion depth grows with q
        code, rep = run_json(capsys, ["kn", "--q", "600", "--lambda", "1", "--n", "4,5"])
        assert code == 0
        assert [row["rate"] for row in rep["rows"]] == [5.966239751086826, 5.951475798992969]


class TestErrors:
    def test_missing_graph_file(self, capsys):
        assert run(["tutte", "--graph", "/nonexistent.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert run(["tutte", "--graph", str(f)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_invalid_graph_payload(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"n": 2, "edges": [[0, 5]]}))
        assert run(["tutte", "--graph", str(f)]) == 1

    def test_bad_rational(self, capsys, triangle_file):
        assert run(["rc-partition", "--graph", triangle_file, "--p", "x", "--q", "2"]) == 1

    def test_float_overflow_exits_one(self, capsys, triangle_file):
        argv = ["potts-partition", "--graph", triangle_file, "--beta", "1000", "--q", "2"]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_command_usage(self, capsys):
        assert run(["definitely-not-a-command"]) == 1


class TestParserReuse:
    def test_runs_around_a_bad_argv_agree(self, capsys, triangle_file):
        # one parser serves every run: a failed parse in between leaves no trace
        good = ["sample-sw", "--graph", triangle_file, "--p", "0.5", "--q", "3",
                "--sweeps", "200", "--burn-in", "10", "--seed", "4"]
        code1, rep1 = run_json(capsys, good)
        for bad in (["sample-sw", "--graph", triangle_file, "--q", "3"],
                    ["sample-sw", "--graph", triangle_file, "--p", "0.5", "--q", "x"],
                    ["definitely-not-a-command"],
                    ["sample-sw", "--graph", triangle_file, "--p", "0.5", "--q", "2", "--seed", "9",
                     "--x", "7"]):
            assert run(bad) == 1
        assert "error:" in capsys.readouterr().err
        code2, rep2 = run_json(capsys, good)
        assert code1 == code2 == 0
        assert rep1 == rep2

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["tutte", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv, triangle_file):
        assert run(argv) == 0
        assert capsys.readouterr().out
        code, rep = run_json(capsys, ["flow-count", "--graph", triangle_file, "--q", "4"])
        assert code == 0 and rep["count"] == 3


# Bad inputs across the subcommands: each must end in exit code 1 and an
# error line, never in an exception escaping run().
BAD_INPUTS = {
    "sample-sw-vertex": ["sample-sw", "--graph", "{tri}", "--p", "0.5", "--q", "2", "--sweeps", "10", "--x", "7"],
    "potts-partition-q": ["potts-partition", "--graph", "{tri}", "--beta", "1", "--q", "1"],
    "potts-partition-beta-nan": ["potts-partition", "--graph", "{tri}", "--beta", "nan", "--q", "2"],
    "potts-partition-beta-inf": ["potts-partition", "--graph", "{tri}", "--beta", "inf", "--q", "2"],
    "potts-partition-beta-1e308": ["potts-partition", "--graph", "{tri}", "--beta", "1e308", "--q", "2"],
    "rc-partition-out-unwritable": ["rc-partition", "--graph", "{tri}", "--p", "1/2", "--q", "2",
                                    "--out", "{tmp}/no-such-dir/out.json"],
    "kn-n": ["kn", "--q", "2", "--lambda", "1", "--n", "abc"],
    "kn-n-budget-potts": ["kn", "--q", "3", "--lambda", "1", "--n", "4,1000"],
    "kn-n-budget-cluster": ["kn", "--q", "1.5", "--lambda", "1", "--n", "1000"],
    "flow-count-budget": ["flow-count", "--graph", "{tri}", "--q", "100000"],
    "verify-corrconn-p": ["verify", "corrconn", "--p", "1"],
    "verify-partition-q": ["verify", "partition", "--q", "3/2"],
    "rc-partition-p": ["rc-partition", "--graph", "{tri}", "--p", "3/2", "--q", "2"],
    "flow-count-q": ["flow-count", "--graph", "{tri}", "--q", "0"],
    "flow-corr-mc-vertex": ["flow-corr-mc", "--graph", "{tri}", "--lam", "1", "--q", "2", "--x", "9", "--y", "1"],
    "flow-corr-mc-q": ["flow-corr-mc", "--graph", "{tri}", "--lam", "1", "--q", "-2", "--x", "0", "--y", "1",
                       "--samples", "10"],
    "simon-scan-grid": ["simon-scan", "--p-grid", "abc"],
    "edges-not-pairs": ["tutte", "--graph", "{bad}"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_code(case, capsys, tmp_path, triangle_file):
    bad = tmp_path / "not_pairs.json"
    bad.write_text(json.dumps({"n": 3, "edges": [[0, 1, 2]]}))
    argv = [a.format(tri=triangle_file, bad=bad, tmp=tmp_path) for a in BAD_INPUTS[case]]
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_tutte_over_the_minors_budget_exits_one(capsys, monkeypatch, triangle_file):
    monkeypatch.setitem(BUDGET, "minors", 1)  # the triangle's memo needs 5
    assert run(["tutte", "--graph", triangle_file]) == 1
    err = capsys.readouterr().err
    assert "minors above the budget of 1" in err and "Traceback" not in err


class TestCsv:
    def test_csv_format(self, capsys, triangle_file):
        code = run(["flow-count", "--graph", triangle_file, "--q", "3", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        header, row = out.strip().splitlines()
        assert "count" in header.split(",")
        assert "2" in row.split(",")
