"""Command-line interface: byte determinism, exit codes, table contents."""

import json
import math
import os

import pytest
from numpy.testing import assert_allclose

from gapdet.cli import main, pearcey_airy_endpoints, tacnode_pearcey_times
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
    argv = ["tw", "--s-min", "-2", "--s-max", "2", "--steps", "4"]
    monkeypatch.setenv("GAPDET_THREADS", "1")
    rc1, text1 = run_text(capsys, argv)
    monkeypatch.setenv("GAPDET_THREADS", "2")
    rc2, text2 = run_text(capsys, argv)
    assert rc1 == rc2 == 0
    assert text1 == text2


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
    with pytest.raises(SystemExit) as exc:
        main(["tacnode", "--sigma", "0", "--intervals", "1:2:3:4"])
    assert exc.value.code == 3


def test_failed_row_exits_2_and_reports(capsys):
    # sigma = 12 is outside the stability window; the row carries the error
    rc, text = run_text(capsys, ["tacnode", "--sigma", "12",
                                 "--intervals=-1:1"])
    assert rc == 2
    row = parse_rows(text)[0]
    assert "DomainError" in row["error"]
    assert row["F_tac"] == ""


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
    assert row["route"] == "double-double"
    assert row["m_used"] == [80]
    assert_allclose(row["F_tac"], 0.00984940930935679, rtol=1e-9)
    assert row["err_estimate"] <= 1e-8


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


def test_positivity_probe_rejects_coarse_inner_rule(capsys):
    rc = main(["positivity-probe", "--n-samples", "0", "--m-inner", "5"])
    assert rc == 2
    assert "m_inner must be at least 20" in capsys.readouterr().err


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


def test_tacnode_pearcey_time_map():
    with pytest.raises(DomainError):
        tacnode_pearcey_times(0.0, [0.0])
    scale, times = tacnode_pearcey_times(-8.0, [0.0, 1.0])
    assert_allclose(scale, 64.0 ** 0.125, rtol=1e-15)
    assert_allclose(times[0], 2.0, rtol=1e-15)
    assert_allclose(times[1], 2.0 + 1024.0 ** -0.25, rtol=1e-15)
    _, neg = tacnode_pearcey_times(-8.0, [0.0], branch=-1.0)
    assert_allclose(neg[0], -2.0, rtol=1e-15)
