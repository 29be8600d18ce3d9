"""Command-line interface: byte determinism, exit codes, table contents."""

import argparse
import json
import math
import os

import pytest
from numpy.testing import assert_allclose

from gapdet.cli import (_meta, build_parser, main, pearcey_airy_endpoints,
                        tacnode_pearcey_times)
from gapdet.errors import DomainError

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "tw_grid.csv")


def run_text(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def parse_rows(text):
    lines = text.strip().split("\n")
    assert lines[0].startswith("# gapdet ")
    cols = lines[1].split(",")
    return [dict(zip(cols, ln.split(","))) for ln in lines[2:]]


# ---------------------------------------------------------------------------
# Golden output and determinism

def test_tw_default_grid_matches_golden_bytes(tmp_path):
    out = tmp_path / "tw.csv"
    assert main(["tw", "--out", str(out)]) == 0
    with open(GOLDEN, "rb") as fh:
        want = fh.read()
    assert out.read_bytes() == want


def test_output_deterministic_across_thread_counts(capsys, monkeypatch):
    tw = ["tw", "--s-min", "-2", "--s-max", "2", "--steps", "4"]
    dd = ["scan-tacnode-pearcey", "--sigmas", "-3", "-3.5", "--tol", "1e-12",
          "--json"]
    for argv in (tw, dd):
        monkeypatch.setenv("GAPDET_THREADS", "1")
        rc1, text1 = run_text(capsys, argv)
        monkeypatch.setenv("GAPDET_THREADS", "2")
        rc2, text2 = run_text(capsys, argv)
        assert rc1 == rc2 == 0
        assert text1 == text2
    # both dd rows ran in double-double, so two threads ran dd rungs at once
    assert [row["route"] for row in json.loads(text2)["rows"]] \
        == ["double-double"] * 2


def test_out_file_equals_stdout(capsys, tmp_path):
    argv = ["pearcey", "--tau", "1.0"]
    rc, text = run_text(capsys, argv)
    out = tmp_path / "p.csv"
    assert main(argv + ["--out", str(out)]) == rc == 0
    assert out.read_text() == text


def test_meta_line_records_flags_but_not_out(capsys, tmp_path):
    out = tmp_path / "t.csv"
    main(["tw", "--out", str(out)])
    meta = out.read_text().split("\n")[0]
    assert meta == "# gapdet 0.1.0 tw --s-min -8 --s-max 4 --steps 12 " \
                   "--m0 40 --tol 1e-08"
    assert "--out" not in meta


@pytest.mark.parametrize("argv", [
    ["tw"],
    ["pearcey"],
    ["tacnode", "--sigma", "0", "--force-sigma"],
    ["scan-pearcey-airy"],
    ["scan-tacnode-pearcey", "--force-sigma"],
    ["scan-tacnode-airy", "--fixed", "0", "--one-sided", "--force-sigma"],
    ["positivity-probe"],
], ids=lambda argv: argv[0])
def test_meta_names_every_registered_flag(argv):
    # parsing only: every flag a subcommand registers reaches the meta
    # line, except the output format and path
    parser = build_parser()
    args = parser.parse_args(argv + ["--json"])
    subs = next(act for act in parser._actions
                if isinstance(act, argparse._SubParsersAction))
    flags = {opt for act in subs.choices[argv[0]]._actions
             for opt in act.option_strings if opt.startswith("--")}
    named = set(_meta(args).split())
    assert flags - {"--json", "--out", "--help"} <= named
    assert not named & {"--json", "--out", "--help"}


# ---------------------------------------------------------------------------
# Exit codes

def test_unknown_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 3


def test_odd_endpoint_count_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pearcey", "--endpoints", "1.0"])
    assert exc.value.code == 3


def test_malformed_intervals_exit_3(capsys):
    # a >= b and non-finite fields are bad arguments, not failed rows
    for text in ("1:2:3:4", "1:-1", "-1:1:nan", "-1:1:inf"):
        with pytest.raises(SystemExit) as exc:
            main(["tacnode", "--sigma", "0", "--intervals=" + text])
        assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ["tw", "--steps", "-2"],
    ["scan-pearcey-airy", "--n", "-1"],
    ["scan-tacnode-airy", "--n", "-3"],
    ["positivity-probe", "--n-samples", "-1"],
], ids=["tw-steps", "scan-pearcey-airy-n", "scan-tacnode-airy-n",
        "probe-n-samples"])
def test_negative_count_exits_3(capsys, argv):
    # exit 1 means "probe found no witness", so bad counts must not crash
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "count >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["tw", "--m0", "5"],
    ["tw", "--tol", "0"],
    ["tw", "--tol", "nan"],
], ids=["m0-5", "tol-0", "tol-nan"])
def test_unusable_m0_or_tol_exits_3(capsys, argv):
    # no ladder can honour these, so they are argument errors, not rows
    # that failed numerically
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3


def test_failed_row_exits_2_and_reports(capsys):
    # sigma = 12 is outside the stability window; the row carries the error
    rc, text = run_text(capsys, ["tacnode", "--sigma", "12",
                                 "--intervals=-1:1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "DomainError" in row["error"]
    assert row["F_tac"] == ""
    assert row["sigma"] == "12"


def test_scan_pearcey_airy_rejects_nonpositive_tau_per_row(capsys):
    # exit 1 means "probe found no witness", so a bad tau fails the rows
    rc, text = run_text(capsys, ["scan-pearcey-airy", "--tau", "-1",
                                 "--n", "1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "DomainError" in row["error"]
    assert row["F_P"] == ""
    assert (row["rho"], row["sigma"]) == ("-3", "-3")


def test_scan_pearcey_airy_failed_reference_fails_its_rows(capsys):
    # F2(-13) is outside F2's window and F2(-12), inside it, has no correct
    # digit: each row carries the error of the first reference it reads
    # that failed, and the row that reads only F2(-3) keeps its value
    out_of_window = "DomainError: s must lie in [-12; 12]; got -13"
    no_digit = ("NonConvergenceError: no correct digit: err 1.236e-39 >= "
                "|v(80)| = 2.006e-63")
    for hi, errors in (("-12", [out_of_window, no_digit] * 2),
                       ("-3", [out_of_window] * 3 + [""])):
        rc, text = run_text(capsys, ["scan-pearcey-airy", "--lo", "-13",
                                     "--hi", hi, "--n", "2"])
        assert rc == 2
        rows = parse_rows(text)
        assert [(r["rho"], r["sigma"]) for r in rows] \
            == [("-13", "-13"), ("-13", hi), (hi, "-13"), (hi, hi)]
        assert [r["error"] for r in rows] == errors
        assert [r["F_P"] == "" for r in rows] == [bool(e) for e in errors]
    assert float(rows[3]["F_P"]) > 0.0


@pytest.mark.parametrize("argv, error", [
    (["--a", "-13"], "DomainError: s must lie in [-12; 12]; got -13"),
    (["--one-sided", "--a", "1", "--b", "0"],
     "DomainError: interval needs finite a < b; got [1.0; 0.0]"),
], ids=["two-sided", "one-sided"])
def test_scan_tacnode_airy_failed_reference_fails_every_row(capsys, argv,
                                                            error):
    rc, text = run_text(capsys, ["scan-tacnode-airy", "--n", "2"] + argv)
    assert rc == 2
    rows = parse_rows(text)
    assert [r["param"] for r in rows] == ["1", "5"]
    assert [r["error"] for r in rows] == [error] * 2


def test_scan_tacnode_pearcey_failed_reference_fails_its_rows(capsys):
    rc, text = run_text(capsys, ["scan-tacnode-pearcey", "--sigmas", "-3",
                                 "--a-p", "1", "--b-p", "-1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert row["sigma"] == "-3"
    assert row["error"] == "DomainError: endpoints must be strictly increasing"


def test_pearcey_failed_row_keeps_endpoints(capsys):
    rc, text = run_text(capsys, ["pearcey", "--endpoints", "1", "-1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "DomainError" in row["error"]
    assert (row["tau"], row["endpoints"]) == ("0", "1;-1")


def test_positivity_probe_has_no_tol_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["positivity-probe", "--tol", "123", "--n-samples", "1"])
    assert exc.value.code == 3


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "gapdet 0.1.0"


# ---------------------------------------------------------------------------
# Table contents

def test_tw_column_is_monotone(capsys):
    rc, text = run_text(capsys, ["tw"])
    assert rc == 0
    vals = [float(r["F2"]) for r in parse_rows(text)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_tacnode_equals_sign_interval_form(capsys):
    rc, text = run_text(capsys, ["tacnode", "--sigma", "0",
                                 "--intervals=-1:1"])
    assert rc == 0
    row = parse_rows(text)[0]
    assert_allclose(float(row["F_tac"]), 0.6726669445727375, rtol=1e-12)


def test_tacnode_json_diagnostics(capsys):
    rc, text = run_text(capsys, ["tacnode", "--sigma", "-4",
                                 "--intervals=-1:1", "--json"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["columns"] == ["sigma", "F_tac", "err", "error"]
    assert doc["meta"].startswith("gapdet 0.1.0 tacnode --sigma -4")
    row = doc["rows"][0]
    # float64 keeps about 11 digits here: its rounding floor is below tol
    assert row["route"] == "float64"
    assert 0.0 < row["rounding_floor"] <= 1e-8
    # per component: R+, the edge split at the origin, and the gap
    assert row["m_used"] == [80] * 4
    assert_allclose(row["F_tac"], 0.00984940930935679, rtol=1e-9)
    assert row["err"] <= 1e-8
    assert "err_estimate" not in row


def test_tacnode_direct_json_carries_rounding_floor(capsys):
    rc, text = run_text(capsys, ["tacnode", "--sigma", "-4", "--route",
                                 "direct", "--intervals=-1:1", "--json"])
    assert rc == 0
    row = json.loads(text)["rows"][0]
    assert row["route"] == "direct"
    assert 0.0 < row["rounding_floor"] <= 1e-8
    assert row["err"] >= row["rounding_floor"] * row["F_tac"]


def test_tacnode_direct_deep_sigma_row_fails_typed(capsys):
    # the direct route has no double-double rung, so past its float64
    # rounding floor the row fails and names the error type
    rc, text = run_text(capsys, ["tacnode", "--route", "direct", "--sigma",
                                 "-6", "--intervals=-1:1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "DivisionInstabilityError" in row["error"]
    assert row["F_tac"] == ""


def test_scan_tacnode_airy_degenerate_gap_row(capsys):
    # shift = sigma + tau^2 = -2 empties the two-sided gap; the row is the
    # exact-probability case F_tac = 1
    rc, text = run_text(capsys, ["scan-tacnode-airy", "--mode", "tau-sweep",
                                 "--fixed", "-2", "--lo", "0", "--hi", "0",
                                 "--n", "1"])
    assert rc == 0
    row = parse_rows(text)[0]
    assert_allclose(float(row["F_tac"]), 1.0, rtol=0, atol=1e-9)


def test_scan_tacnode_pearcey_multi_time_reports_reldisc(capsys):
    rc, text = run_text(capsys, ["scan-tacnode-pearcey", "--sigmas", "-3",
                                 "-5", "--tau-p", "0", "1"])
    assert rc == 0
    rows = parse_rows(text)
    assert [r["sigma"] for r in rows] == ["-3", "-5"]
    assert rows[0]["reldisc"] == ""
    disc = float(rows[1]["reldisc"])
    assert 0.0 < disc < 0.1


def test_positivity_probe_finds_negative_minor(capsys):
    rc, text = run_text(capsys, ["positivity-probe", "--n-samples", "0"])
    assert rc == 0
    meta = text.split("\n")[0]
    assert "negative_found True" in meta
    min_det = float(meta.split("min_det")[1].split()[0])
    assert min_det < 0.0
    assert len(parse_rows(text)) == 55


def test_positivity_probe_reports_kernel_failure(capsys, monkeypatch):
    def overflow(*args):
        raise OverflowError("shifted Airy overflow")
    monkeypatch.setattr("gapdet.kernels.ConditionedKernel.value_matrix",
                        overflow)
    assert main(["positivity-probe", "--n-samples", "0"]) == 2
    assert "shifted Airy overflow" in capsys.readouterr().err


def test_positivity_probe_rejects_coarse_inner_rule(capsys):
    # an argument error like --m0 5, not a row that failed numerically
    with pytest.raises(SystemExit) as exc:
        main(["positivity-probe", "--n-samples", "0", "--m-inner", "5"])
    assert exc.value.code == 3
    assert "expected m_inner >= 20, got 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Limit-regime parameter maps

def test_pearcey_airy_endpoint_map():
    tau = 5.314
    c = 2.0 * (tau / 3.0) ** 1.5
    w = (3.0 * tau) ** (1.0 / 6.0)
    a, b = pearcey_airy_endpoints(tau, 0.0, 0.0)
    assert_allclose((a, b), (-c, c), rtol=1e-15)
    a, b = pearcey_airy_endpoints(tau, 1.0, -3.0)
    assert_allclose((a, b), (-c + w, c + 3.0 * w), rtol=1e-15)
    # tau = 0 collapses both edges, and tau < 0 has no real scale
    for tau in (0.0, -1.0):
        with pytest.raises(DomainError):
            pearcey_airy_endpoints(tau, 0.0, 0.0)


def test_limit_maps_reject_nan():
    with pytest.raises(DomainError, match="needs tau > 0, got nan"):
        pearcey_airy_endpoints(math.nan, 0.0, 0.0)
    with pytest.raises(DomainError, match="needs sigma < 0, got nan"):
        tacnode_pearcey_times(math.nan, [0.0])


def test_scan_tacnode_pearcey_nan_sigma_row_names_sigma(capsys):
    rc, text = run_text(capsys, ["scan-tacnode-pearcey", "--sigmas", "nan"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "the time map needs sigma < 0" in row["error"]
    assert row["F_tac"] == ""
    assert row["sigma"] == "nan"


def test_tacnode_pearcey_time_map():
    with pytest.raises(DomainError):
        tacnode_pearcey_times(0.0, [0.0])
    scale, times = tacnode_pearcey_times(-8.0, [0.0, 1.0])
    assert_allclose(scale, 64.0 ** 0.125, rtol=1e-15)
    assert_allclose(times[0], 2.0, rtol=1e-15)
    assert_allclose(times[1], 2.0 + 1024.0 ** -0.25, rtol=1e-15)
    _, neg = tacnode_pearcey_times(-8.0, [0.0], branch=-1.0)
    assert_allclose(neg[0], -2.0, rtol=1e-15)
