import json
import math
import os
import subprocess
import sys

import pytest

from logsine import cli, fourier_appendix


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("LOGSINE_TOLERANCE", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "logsine", *args],
        capture_output=True,
        env=env,
    )


class TestBernoulli:
    def test_plain_rows(self):
        proc = run_cli("bernoulli", "--n-max", "4")
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines() == [
            "0 1",
            "1 -1/2",
            "2 1/6",
            "3 0",
            "4 -1/30",
        ]

    def test_json_single_row(self):
        proc = run_cli("bernoulli", "--n-max", "0", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == [{"k": 0, "B": "1"}]

    def test_csv_is_crlf_terminated(self):
        proc = run_cli("bernoulli", "--n-max", "2", "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == b"k,B\r\n0,1\r\n1,-1/2\r\n2,1/6\r\n"

    def test_negative_n_max_is_usage_error(self):
        proc = run_cli("bernoulli", "--n-max", "-1")
        assert proc.returncode == 2


class TestZeta:
    def test_plain_surfaces_exact_and_numeric(self):
        proc = run_cli("zeta", "--n-max", "4")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0].startswith("s=2 value=1.6449340668482264")
        assert lines[0].endswith("exact=1/6 · pi^2")
        assert lines[2].endswith("exact=1/90 · pi^4")

    def test_json_parses(self):
        proc = run_cli("zeta", "--n-max", "6", "--format", "json")
        doc = json.loads(proc.stdout.decode())
        assert [row["s"] for row in doc] == [2, 3, 4, 5, 6]
        assert doc[0]["exact"] == "1/6 · pi^2"
        assert doc[1]["exact"] is None

    def test_unreachable_tolerance_exits_3(self):
        proc = run_cli("zeta", "--n-max", "4", "--tolerance", "1e-30")
        assert proc.returncode == 3

    def test_one_bernoulli_table_per_run(self, monkeypatch, capsys):
        sizes = []
        build = cli.exact_core.bernoulli_table

        def counting(max_index):
            sizes.append(max_index)
            return build(max_index)

        monkeypatch.setattr(cli.exact_core, "bernoulli_table", counting)
        assert cli.main(["zeta", "--n-max", "30", "--tolerance", "1e-10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 29
        assert len(sizes) <= 1


class TestLogsine:
    def test_plain_matches_closed_constants(self):
        proc = run_cli("logsine", "--n-max", "1")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines[0].startswith("n=0 value=-2.177586090303602")
        assert lines[1].startswith("n=1 value=-3.420544231928558")

    def test_json_includes_symbolic_zeta3(self):
        proc = run_cli("logsine", "--n-max", "2", "--format", "json")
        doc = json.loads(proc.stdout.decode())
        assert doc[2]["symbolic"]["zeta_terms"] == [
            {"arg": 3, "coeff": "-1/2", "pi_power": 1}
        ]

    def test_unreachable_tolerance_exits_3(self):
        proc = run_cli("logsine", "--n-max", "2", "--tolerance", "1e-30")
        assert proc.returncode == 3
        assert b"certification failure" in proc.stderr


class TestVerify:
    def test_small_full_suite_passes(self):
        proc = run_cli("verify", "--suite", "all", "--n-max", "3")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_json_is_one_object_per_check(self):
        proc = run_cli("verify", "--suite", "recurrence", "--n-max", "6", "--format", "json")
        doc = json.loads(proc.stdout.decode())
        assert all(set(c) == {"suite", "check", "n", "pass", "detail"} for c in doc)
        assert all(c["pass"] for c in doc)

    def test_csv_output(self):
        proc = run_cli("verify", "--suite", "identities", "--n-max", "2", "--format", "csv")
        lines = proc.stdout.decode().splitlines()
        assert lines[0] == "suite,check,n,pass,detail"
        assert all(",true," in line for line in lines[1:])

    def test_unknown_suite_is_usage_error(self):
        proc = run_cli("verify", "--suite", "nope")
        assert proc.returncode == 2

    def test_contour_certification_failure_exits_3(self):
        proc = run_cli("verify", "--suite", "contour", "--n-max", "1", "--tolerance", "1e-30")
        assert proc.returncode == 3

    def test_envelope_edge_at_default_tolerance(self):
        # n <= 12 certifies at 1e-10; leg R of n = 13 does not
        assert run_cli("verify", "--suite", "contour", "--n-max", "12").returncode == 0
        assert run_cli("verify", "--suite", "contour", "--n-max", "13").returncode == 3


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("bernoulli", "--n-max", "12"),
            ("zeta", "--n-max", "8", "--format", "json"),
            ("logsine", "--n-max", "5", "--format", "csv"),
            ("verify", "--suite", "identities", "--n-max", "8", "--format", "json"),
        ],
    )
    def test_byte_identical_reruns(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


class TestEnvironmentTolerance:
    def test_env_var_applies(self):
        proc = run_cli("logsine", "--n-max", "1", env_extra={"LOGSINE_TOLERANCE": "1e-30"})
        assert proc.returncode == 3

    def test_flag_wins_over_env(self):
        proc = run_cli(
            "logsine",
            "--n-max",
            "1",
            "--tolerance",
            "1e-10",
            env_extra={"LOGSINE_TOLERANCE": "1e-30"},
        )
        assert proc.returncode == 0

    def test_malformed_env_is_usage_error(self):
        proc = run_cli("zeta", "--n-max", "3", env_extra={"LOGSINE_TOLERANCE": "abc"})
        assert proc.returncode == 2


class TestExitOne:
    def test_failed_check_exits_1(self, monkeypatch, capsys):
        # the enclosure of a one-term orthogonality sum is nowhere near
        # pi^3/24, so the parseval check genuinely fails and the command
        # reports it
        monkeypatch.setattr(cli, "_PARSEVAL_TERMS", 1)
        code = cli.main(["verify", "--suite", "fourier", "--n-max", "2"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL fourier/parseval" in out


class TestParseval:
    @pytest.mark.parametrize("terms,passed", [(785397, False), (785398, True)])
    def test_certified_edge_agrees_with_float_sum(self, monkeypatch, capsys, terms, passed):
        # (pi/4) sum_{l>N} 1/l^2 first falls to 1e-6 at N = 785398
        monkeypatch.setattr(cli, "_PARSEVAL_TERMS", terms)
        code = cli.main(["verify", "--suite", "fourier", "--n-max", "0"])
        assert code == (0 if passed else 1)
        status = "PASS" if passed else "FAIL"
        assert f"{status} fourier/parseval n={terms} value=" in capsys.readouterr().out
        float_sum = fourier_appendix.parseval_logsquared(terms)
        assert (abs(float_sum - math.pi ** 3 / 24) <= 1e-6) == passed

    def test_value_in_every_format(self, capsys):
        argv = ["verify", "--suite", "fourier", "--n-max", "0", "--format"]
        assert cli.main([*argv, "plain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "PASS fourier/parseval n=1000000 value=1.2919274096147217"
        assert cli.main([*argv, "json"]) == 0
        assert json.loads(capsys.readouterr().out)[-1] == {
            "suite": "fourier",
            "check": "parseval",
            "n": 1000000,
            "pass": True,
            "detail": "value=1.2919274096147217",
        }
        assert cli.main([*argv, "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "fourier,parseval,1000000,true,value=1.2919274096147217"


@pytest.mark.parametrize(
    "args,env",
    [
        (("zeta", "--tolerance", "0"), None),
        (("zeta", "--tolerance", "inf"), None),
        (("zeta", "--tolerance", "nan"), None),
        (("bernoulli", "--format", "xml"), None),
        (("verify", "--n-max", "-1"), None),
        (("logsine", "--n-max", "1"), {"LOGSINE_TOLERANCE": "-1"}),
        (("logsine", "--n-max", "1"), {"LOGSINE_TOLERANCE": "0"}),
        (("logsine", "--n-max", "1"), {"LOGSINE_TOLERANCE": "inf"}),
        (("logsine", "--n-max", "1"), {"LOGSINE_TOLERANCE": "nan"}),
    ],
)
def test_invalid_input_is_usage_error(args, env):
    proc = run_cli(*args, env_extra=env)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr
