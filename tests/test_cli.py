"""Tests for the command-line experiment runner."""

import json
import time
import warnings

import numpy as np
import pytest

from spqm import cli, verify


def _read_output(path):
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0])
    return meta, lines[1:]


def test_missing_dt_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--kappa", "1", "--t-final", "0.1"])
    assert info.value.code == 2
    assert "--dt" in capsys.readouterr().err


def test_bad_step_count_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["simulate", "--t-final", "0.0105", "--dt", "1e-2"])
    assert info.value.code == 2
    assert "not a positive multiple of dt" in capsys.readouterr().err


def test_simulate_output(tmp_path):
    out = tmp_path / "traj.csv"
    code = cli.main(["simulate", "--t-final", "0.1", "--dt", "1e-3",
                     "--seed", "5", "--out", str(out)])
    assert code == 0
    meta, rows = _read_output(out)
    assert meta["subcommand"] == "simulate"
    assert meta["seed"] == 5
    assert meta["closed_form_deviation"] <= 1e-10
    header = rows[0].split(",")
    assert header[:4] == ["k", "t", "re_dw", "im_dw"]
    assert len(rows) == 1 + 100  # header + one row per step


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--t-final", "0.05", "--dt", "1e-3", "--seed", "3"]
    cli.main(args + ["--out", str(a)])
    cli.main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_moments_closed_form_row(tmp_path):
    out = tmp_path / "moments.csv"
    code = cli.main(["moments", "--kappa", "1", "--t-final", "5",
                     "--out", str(out)])
    assert code == 0
    _, rows = _read_output(out)
    last = rows[-1].split(",")
    assert abs(float(last[0]) - 5.0) <= 1e-12
    assert abs(float(last[1]) - 5 / 6) <= 1e-6  # n(5) = kT/(1+kT)


def test_moments_past_ceiling_is_usage_error(capsys):
    # kappa T = 1000 would take a million RK4 steps; refused at once.
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        cli.main(["moments", "--t-final", "1000"])
    assert time.perf_counter() - start < 1.0
    assert info.value.code == 2
    assert "kappa T up to 100" in capsys.readouterr().err


def test_moments_at_ceiling_writes_rows(tmp_path):
    out = tmp_path / "moments.csv"
    assert cli.main(["moments", "--t-final", "100", "--out", str(out)]) == 0
    _, rows = _read_output(out)
    last = rows[-1].split(",")
    assert abs(float(last[0]) - 100.0) <= 1e-9
    assert abs(float(last[1]) - 100 / 101) <= 1e-6  # n = kT/(1+kT)


def test_moments_json_rows(tmp_path):
    out = tmp_path / "moments.jsonl"
    cli.main(["moments", "--t-final", "1", "--format", "json",
              "--out", str(out)])
    _, rows = _read_output(out)
    row = json.loads(rows[-1])
    assert abs(row["kT"] - 1.0) <= 1e-12
    assert abs(row["n"] - 0.5) <= 1e-6


def test_distributions_with_mc(tmp_path):
    out = tmp_path / "dists.csv"
    code = cli.main(["distributions", "--t-final", "0.5", "--dt", "1e-2",
                     "--paths", "5000", "--seed", "11", "--out", str(out)])
    assert code == 0
    meta, rows = _read_output(out)
    assert "fk_normalization" in meta and "fk_ess" in meta
    assert 1 <= meta["fk_kish_ess"] <= 5000
    assert (abs(meta["fk_normalization"] - meta["fk_closed_form"])
            <= 5 * meta["fk_stderr"])
    assert len(rows) == 1 + 50
    sigma_col = [float(r.split(",")[1]) for r in rows[1:]]
    assert np.all(np.diff(sigma_col) > 0)  # Sigma grows


def test_distributions_at_vanishing_time(tmp_path):
    # kT from 2e-11: Sigma ~ kT^3/3 stays positive and q <= n on every row.
    out = tmp_path / "tiny.csv"
    assert cli.main(["distributions", "--t-final", "1e-9", "--dt", "1e-10",
                     "--out", str(out)]) == 0
    _, rows = _read_output(out)
    header = rows[0].split(",")
    table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    kt, sigma, n, q = (table[:, header.index(name)]
                       for name in ("kT", "sigma", "n", "q"))
    assert len(kt) == 50 and np.all(sigma > 0) and np.all(q <= n)
    assert np.max(np.abs(sigma / (kt ** 3 / 3) - 1)) <= 1e-12


def test_distributions_fk_targets_and_variance_edge(tmp_path):
    # At check 9's (50, 1e-2) the discrete target is 1/det W = 1.820268
    # and the weight's variance is finite; at t-final 1.0 (N = 100) the
    # variance is infinite from N = 77 on, and the run warns.
    out = tmp_path / "finite.csv"
    assert cli.main(["distributions", "--t-final", "0.5", "--dt", "1e-2",
                     "--paths", "2000", "--seed", "3", "--out",
                     str(out)]) == 0
    meta, _ = _read_output(out)
    assert abs(meta["fk_discrete_target"] - 1.820268) <= 1e-6
    assert meta["fk_variance_finite"] is True
    assert (abs(meta["fk_normalization"] - meta["fk_discrete_target"])
            <= 5 * meta["fk_stderr"])
    out = tmp_path / "infinite.csv"
    with pytest.warns(UserWarning, match="infinite variance"):
        assert cli.main(["distributions", "--t-final", "1.0", "--dt", "1e-2",
                         "--paths", "500", "--seed", "3", "--out",
                         str(out)]) == 0
    meta, _ = _read_output(out)
    assert meta["fk_variance_finite"] is False
    assert meta["fk_discrete_target"] > meta["fk_closed_form"] > 1


def test_distributions_defaults_inside_variance_edge(tmp_path):
    # The default times (t-final 0.5, dt 1e-2, so N = 50) keep the
    # e^{-2s} weight's variance finite: no warning.
    out = tmp_path / "defaults.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["distributions", "--paths", "2000", "--seed", "3",
                         "--out", str(out)]) == 0
    meta, _ = _read_output(out)
    assert meta["t_final"] == 0.5 and meta["dt"] == 1e-2
    assert meta["fk_variance_finite"] is True


def test_povm_report(tmp_path):
    out = tmp_path / "povm.csv"
    code = cli.main(["povm", "--t-final", "1", "--dim", "12",
                     "--out", str(out)])
    assert code == 0
    _, rows = _read_output(out)
    header = rows[0].split(",")
    values = dict(zip(header, rows[1].split(",")))
    assert float(values["partition_residual"]) <= 1e-6
    assert float(values["completeness_deviation"]) <= 1e-3


def test_povm_completeness_finite_at_large_kt(tmp_path):
    out = tmp_path / "povm.csv"
    assert cli.main(["povm", "--t-final", "400", "--dim", "8",
                     "--out", str(out)]) == 0
    _, rows = _read_output(out)
    values = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert float(values["completeness_deviation"]) <= 1e-12


def test_povm_library_error_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["povm", "--dim", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "dim must be at least 2, got 1" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dt", ["0", "-1e-3", "nan"])
def test_povm_channel_bad_dt_is_usage_error(capsys, dt):
    with pytest.raises(SystemExit) as info:
        cli.main(["povm", "--dim", "4", "--paths", "10", f"--dt={dt}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "dt must be positive and finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("dim", ["2", "3"])
def test_povm_smallest_dims(tmp_path, dim):
    out = tmp_path / "povm.csv"
    assert cli.main(["povm", "--dim", dim, "--out", str(out)]) == 0
    _, rows = _read_output(out)
    values = dict(zip(rows[0].split(","), rows[1].split(",")))
    assert float(values["completeness_deviation"]) <= 1e-12


def test_povm_channel_at_default_dim(tmp_path):
    out = tmp_path / "povm.json"
    code = cli.main(["povm", "--dim", "24", "--paths", "200",
                     "--format", "json", "--out", str(out)])
    assert code == 0
    _, rows = _read_output(out)
    report = json.loads(rows[0])
    channel = {k: v for k, v in report.items() if k.startswith("channel_")}
    assert sorted(channel) == ["channel_boundary_population",
                               "channel_trace_distance", "channel_trace_mean",
                               "channel_trace_stderr"]
    assert all(np.isfinite(v) for v in channel.values())
    assert (abs(channel["channel_trace_mean"] - 1)
            <= 5 * channel["channel_trace_stderr"])


def test_verify_exit_codes(monkeypatch, capsys, tmp_path):
    calls = []

    def fake_run_all():
        calls.append(1)
        return [verify.CheckResult(1, "stub pass", True, "ok", 0.0),
                verify.CheckResult(2, "stub fail", False, "bad", 0.0)]

    monkeypatch.setattr(verify, "run_all", fake_run_all)
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--out", str(out)]) == 1
    report = capsys.readouterr().out
    assert "[PASS]  1 stub pass" in report
    assert "[FAIL]  2 stub fail" in report

    monkeypatch.setattr(verify, "run_all", lambda: [
        verify.CheckResult(1, "stub pass", True, "ok", 0.0)])
    assert cli.main(["verify"]) == 0


def test_verify_json_output(monkeypatch, tmp_path):
    # A check may hand back a numpy bool; the JSON rows must still
    # serialize.  One stubbed check keeps the full suite out of it.
    monkeypatch.setattr(verify, "CHECKS", [
        (1, "stub numpy pass", lambda: (np.True_, "ok"))])
    out = tmp_path / "verify.jsonl"
    assert cli.main(["verify", "--out", str(out), "--format", "json"]) == 0
    _, rows = _read_output(out)
    row = json.loads(rows[0])
    assert row["passed"] is True and row["name"] == "stub numpy pass"


def test_verify_single_check(monkeypatch, capsys, tmp_path):
    # --check runs only the named checks, in the order given, and keeps
    # --out/--format.
    monkeypatch.setattr(verify, "CHECKS", [
        (1, "stub one", lambda: (True, "ok")),
        (2, "stub two", lambda: (False, "never run")),
        (3, "stub three", lambda: (True, "ok"))])
    out = tmp_path / "verify.jsonl"
    code = cli.main(["verify", "--check", "3", "--check", "1", "--out",
                     str(out), "--format", "json"])
    assert code == 0
    report = capsys.readouterr().out
    assert "stub two" not in report and "2/2 checks passed" in report
    _, rows = _read_output(out)
    assert [json.loads(row)["number"] for row in rows] == [3, 1]


def test_verify_unknown_check_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "--check", "99"])
    assert info.value.code == 2
    assert "invalid choice: 99" in capsys.readouterr().err


# The flags each subcommand reads, besides --out and --format, and a
# short invocation of it.
_FLAGS_OF = {
    "simulate": ({"kappa", "t_final", "dt", "seed"},
                 ["--t-final", "0.01", "--dt", "1e-3"]),
    "moments": ({"kappa", "t_final"}, ["--t-final", "0.1"]),
    "distributions": ({"kappa", "t_final", "dt", "paths", "seed"}, []),
    "povm": ({"kappa", "t_final", "dt", "dim", "paths", "seed"},
             ["--dim", "4"]),
    "verify": ({"check"}, ["--check", "13"]),
}
_VALUES = {"kappa": "7", "t_final": "0.02", "dt": "0.25", "dim": "2",
           "paths": "3", "seed": "4"}
_REMOVED = [(command, dest) for command, (flags, _) in _FLAGS_OF.items()
            for dest in _VALUES if dest not in flags]


@pytest.mark.parametrize("command, dest", _REMOVED)
def test_removed_flag_is_usage_error(capsys, command, dest):
    flag = "--" + dest.replace("_", "-")
    base = _FLAGS_OF[command][1]
    with pytest.raises(SystemExit) as info:
        cli.main([command, *base, flag, _VALUES[dest]])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_FLAGS_OF))
def test_metadata_records_exactly_the_flags_read(monkeypatch, tmp_path,
                                                 command):
    monkeypatch.setattr(verify, "CHECKS", [
        (13, "stub", lambda: (True, "ok"))])
    flags, base = _FLAGS_OF[command]
    parsed = vars(cli.build_parser().parse_args([command, *base]))
    assert set(parsed) - {"func", "command"} == flags | {"out", "format"}
    out = tmp_path / "out.csv"
    assert cli.main([command, *base, "--out", str(out)]) == 0
    meta, _ = _read_output(out)
    extra = {"closed_form_deviation"} if command == "simulate" else set()
    assert set(meta) == {"artifact", "version", "subcommand"} | flags | extra


@pytest.mark.parametrize("argv", [
    ["moments", "--t-final", "-2"],
    ["moments", "--t-final", "inf"],
    ["moments", "--kappa", "-1"],
    ["distributions", "--kappa", "-1"],
    ["distributions", "--t-final", "nan"],
    ["distributions", "--dt", "0", "--paths", "10"],
    ["simulate", "--kappa", "nan", "--dt", "1e-3", "--t-final", "0.01"],
    ["simulate", "--dt", "0"],
])
def test_bad_time_or_rate_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["moments", "--kappa", "1e200", "--t-final", "1e200"], "kappa T"),
    (["povm", "--kappa", "1e200", "--t-final", "1e200"], "kappa T"),
    (["simulate", "--t-final", "1e200", "--dt", "1e-200"], "step count"),
    (["distributions", "--t-final", "1e200", "--dt", "1e-200", "--paths",
      "10"], "step count"),
])
def test_overflowing_time_is_usage_error(capsys, argv, message):
    # Each flag is finite, but kappa T or T/dt overflows: a usage error,
    # not an OverflowError traceback from the step count.
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert f"{message} " in capsys.readouterr().err


def test_distributions_past_normalization_overflow_is_usage_error(capsys):
    # N(kT) = e^{2kT}/(1 + kT) overflows past kT ~ 354.9: no inf rows.
    with pytest.raises(SystemExit) as info:
        cli.main(["distributions", "--t-final", "1000"])
    assert info.value.code == 2
    assert "normalization factor" in capsys.readouterr().err
