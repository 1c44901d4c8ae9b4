import argparse
import csv
import dataclasses
import json
import logging
import math
import multiprocessing
import os
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import squeeze.cli as cli
import squeeze.construct as construct
import squeeze.estimate as est
import squeeze.metrics as metrics
from squeeze import CertificationError, NumericalError, ValidationError
from squeeze.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    RunConfig,
    cmd_build,
    cmd_certify_smoothed,
    cmd_plotdata,
    main,
)
from squeeze.domain import ReinhardtDomain, domain_from_doc, fmt

from helpers import fmt_csv_table


def read_csv(path: Path):
    with path.open() as fh:
        return list(csv.reader(fh))


HEADLINE = dict(levels=2, schedule="margin", margin_u="0.05")


class TestBuild:
    def test_default_exit0(self, tmp_path):
        cfg = RunConfig(out=str(tmp_path / "r"))
        assert cmd_build(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "r" / "certificate.csv")
        assert rows[0] == ["k", "a_k", "C_k", "m_k", "n_k", "s_upper_k", "target"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert [r[2] for r in rows[1:]] == ["7", "15", "31"]
        assert [r[4] for r in rows[1:]] == ["99", "1900", "19199"]
        doc = json.loads((tmp_path / "r" / "domain.json").read_text())
        assert doc["version"] == 1

    def test_zero_levels_vacuous(self, tmp_path):
        cfg = RunConfig(levels=0, out=str(tmp_path / "r"))
        assert cmd_build(cfg) == EXIT_OK
        rows = read_csv(tmp_path / "r" / "certificate.csv")
        assert len(rows) == 1  # header only

    def test_bad_sequence_exit2(self, tmp_path):
        code = main(["build", "--out", str(tmp_path / "r"), "--config",
                     _write_config(tmp_path, {"sequence": ["1.5", "1.4", "1.6"],
                                              "levels": 2})])
        assert code == EXIT_CONFIG

    def test_unknown_key_exit2(self, tmp_path):
        code = main(["build", "--out", str(tmp_path / "r"), "--config",
                     _write_config(tmp_path, {"bogus": 1})])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("args", [
        ["--config", "{tmp}/bad.json", "--out", "{tmp}/r"],
        ["--config", "{tmp}/missing.json", "--out", "{tmp}/r"],
        ["--out", "{tmp}/bad.json"],
    ], ids=["malformed-json", "missing-config", "out-names-a-file"])
    def test_unusable_config_or_out_exit2(self, tmp_path, capsys, args):
        (tmp_path / "bad.json").write_text('{"levels": 2,')
        code = main(["build"] + [a.format(tmp=tmp_path) for a in args])
        assert code == EXIT_CONFIG
        assert any(line.startswith("error: ")
                   for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("command", ["build", "certify-smoothed", "plot-data"])
@pytest.mark.parametrize("args", [
    ["--grid", "0"], ["--grid", "-3"], ["--grid", "4"], ["--grid", "7"],
    ["--margin", "abc"], ["--margin", "1/0"], ["--levels", "-1"],
], ids=["grid0", "grid-3", "grid4", "grid7", "margin-abc", "margin-1/0", "levels-1"])
def test_bad_override_exit2(tmp_path, capsys, command, args):
    # command-line overrides meet the same schema as the config file
    code = main([command, "--out", str(tmp_path / "r"), "--levels", "1"] + args)
    assert code == EXIT_CONFIG
    assert any(line.startswith("error: ")
               for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("doc, text", [
    ({"a": "1e-10000"}, "1e-10000"),
    ({"schedule": "margin", "margin_u": "5e+10000"}, "5e+10000"),
    ({"sequence": ["1.5", "1.9e0_0000"]}, "1.9e0_0000"),
], ids=["a", "margin_u", "sequence"])
def test_long_rational_exponent_exit2(tmp_path, capsys, doc, text):
    # Fraction(text) would build 10^|exponent| before any check; an exponent
    # of more than four digits is refused first, naming the value
    code = main(["build", "--out", str(tmp_path / "r"), "--config",
                 _write_config(tmp_path, {"levels": 1, **doc})])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"cannot read {text!r} as an exact rational: its exponent has more than four " \
           "digits" in err


def test_rational_texts_read_exactly():
    assert construct._to_fraction("3/2") == Fraction(3, 2)
    assert construct._to_fraction("-2.5e-3") == Fraction(-1, 400)
    assert construct._to_fraction("1E9999") == 10**9999
    for text in ("1e-10000000", "1e+00001", "2E1_0000"):
        with pytest.raises(ValidationError, match="more than four digits"):
            construct._to_fraction(text)


@pytest.mark.parametrize("command", ["estimate", "all"])
def test_negative_seed_exit2_before_the_run_directory(tmp_path, capsys, command):
    out = tmp_path / "r"
    assert main([command, "--seed", "-5", "--levels", "1", "--out", str(out)]) == EXIT_CONFIG
    assert "error: seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValidationError):
        RunConfig(seed=-1)


@pytest.mark.parametrize("command", ["certify-smoothed", "plot-data"])
@pytest.mark.parametrize("bad", ['{"smooth_eps": NaN}', '{"smooth_kappa": Infinity}',
                                 '{"smooth_h": NaN}'], ids=["eps-nan", "kappa-inf", "h-nan"])
def test_non_finite_smoothing_exit2_before_the_run_directory(tmp_path, capsys, command, bad):
    # Python's json reads NaN and Infinity, and the schema's number admits
    # them; NaN passes an "eps < 0" or "kappa <= 0" test
    (tmp_path / "bad.json").write_text(bad)
    out = tmp_path / "r"
    assert main([command, "--config", str(tmp_path / "bad.json"), "--levels", "2",
                 "--margin", "0.05", "--out", str(out)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValidationError, match="must be finite"):
        RunConfig(**json.loads(bad))


def test_smallest_grid_accepted(tmp_path):
    code = main(["certify-smoothed", "--out", str(tmp_path / "r"), "--levels", "2",
                 "--margin", "0.05", "--grid", "8"])
    assert code in (EXIT_OK, EXIT_CERTIFICATION)
    assert (tmp_path / "r" / "smoothed_certificate.json").exists()


def test_override_replaces_a_bad_config_value(tmp_path):
    config = _write_config(tmp_path, {"levels": 1, "distance_resolution": 4})
    assert main(["build", "--config", config, "--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert main(["build", "--config", config, "--grid", "64",
                 "--out", str(tmp_path / "b")]) == EXIT_OK


def test_config_not_an_object_exit2(tmp_path):
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["build", "--config", str(tmp_path / "list.json"),
                 "--out", str(tmp_path / "r")]) == EXIT_CONFIG


def test_one_parser_per_process(tmp_path, monkeypatch):
    """main builds its argument parser once; an unknown command still exits
    2 through argparse, and a malformed config through the config check."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == EXIT_CONFIG
        (tmp_path / "bad.json").write_text('{"levels": 2,')
        assert main(["build", "--config", str(tmp_path / "bad.json"),
                     "--out", str(tmp_path / "r")]) == EXIT_CONFIG
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def _write_config(tmp_path, doc):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(doc))
    return str(p)


class TestCertifySmoothed:
    def test_headline_exit0(self, tmp_path):
        cfg = RunConfig(out=str(tmp_path / "r"), **HEADLINE)
        assert cmd_certify_smoothed(cfg) == EXIT_OK
        rep = json.loads((tmp_path / "r" / "levi_report.json").read_text())
        assert rep["strictly_pseudoconvex_reported"]
        assert float(rep["min_value"]) > 1e-7
        cert = json.loads((tmp_path / "r" / "smoothed_certificate.json").read_text())
        assert cert["violation"]
        assert float(cert["margin"]) >= 0.01
        prof = read_csv(tmp_path / "r" / "smooth_profile.csv")
        assert prof[0] == ["t", "phi", "phi_tilde"]
        assert len(prof) == 2002

    def test_eps_zero_exit3(self, tmp_path):
        cfg = RunConfig(out=str(tmp_path / "r"), smooth_eps=0.0, **HEADLINE)
        assert cmd_certify_smoothed(cfg) == EXIT_CERTIFICATION

    def test_h_too_large_exit2(self, tmp_path):
        code = main(["certify-smoothed", "--out", str(tmp_path / "r"),
                     "--levels", "2", "--margin", "0.05", "--config",
                     _write_config(tmp_path, {"smooth_h": 1.0})])
        assert code == EXIT_CONFIG

    def test_harmonic_four_levels_smooth(self, tmp_path):
        # no violation at 4 harmonic levels (exit 3: the targets 1/k first
        # clear the centre bound at level 10), but the smoothing, its Levi
        # scan and plot-data all go through
        cfg = RunConfig(levels=4, out=str(tmp_path / "s"))
        assert cmd_certify_smoothed(cfg) == EXIT_CERTIFICATION
        rep = json.loads((tmp_path / "s" / "levi_report.json").read_text())
        assert rep["strictly_pseudoconvex_reported"]
        cert = json.loads((tmp_path / "s" / "smoothed_certificate.json").read_text())
        assert not cert["violation"]
        assert cmd_plotdata(RunConfig(levels=4, out=str(tmp_path / "p"))) == EXIT_OK
        lines = {"profile.csv": 10, "bound_curve.csv": 26}
        lines.update({f"sheared_profile_level{k}.csv": 11 for k in range(1, 5)})
        for name, n in lines.items():
            assert len(read_csv(tmp_path / "p" / name)) == n


def test_harmonic_ten_levels_certify(tmp_path):
    # the paper's harmonic schedule violates plurisubharmonicity at level 10
    # on both the staircase and its smoothing
    for command in ("build", "certify-smoothed", "plot-data"):
        assert main([command, "--levels", "10", "--out", str(tmp_path / command)]) == EXIT_OK
    for path in ("build/certificate.json", "certify-smoothed/smoothed_certificate.json"):
        cert = json.loads((tmp_path / path).read_text())
        assert cert["violation"] and cert["violation_level"] == 10


def test_only_build_computes_the_base_center_bound(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise CertificationError("base center bound requested")

    monkeypatch.setattr("squeeze.construct.squeezing_lower_inclusion", refuse)
    assert cmd_certify_smoothed(RunConfig(out=str(tmp_path / "s"), **HEADLINE)) == EXIT_OK
    assert cmd_plotdata(RunConfig(out=str(tmp_path / "p"), **HEADLINE)) == EXIT_OK
    assert main(["build", "--levels", "2", "--margin", "0.05",
                 "--out", str(tmp_path / "b")]) == EXIT_CERTIFICATION


# a small run of every command, estimates included
SMALL = {"levels": 2, "schedule": "margin", "margin_u": "0.05", "est_budget": 40,
         "est_samples": 512, "est_restarts": 2, "levi_points": 2000}


def _count_calls(monkeypatch, bindings):
    """Count the calls made through each ``(module, name)`` binding, by name."""
    calls = Counter()
    for module, name in bindings:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


class TestStages:
    def test_all_computes_each_stage_once(self, tmp_path, monkeypatch):
        calls = _count_calls(monkeypatch, [(cli, "certify_levels"), (cli, "certify_center"),
                                           (cli, "smooth")])
        assert main(["all", "--config", _write_config(tmp_path, SMALL),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert calls == {"certify_levels": 1, "certify_center": 1, "smooth": 1}

    @pytest.mark.parametrize("command, shears", [
        ("build", 0), ("certify-smoothed", 0), ("plot-data", 3)],
        ids=["build", "certify-smoothed", "plot-data"])
    def test_only_plot_data_shears(self, tmp_path, monkeypatch, command, shears):
        """The certified checks work from the exact slopes; only the sheared
        profile tables of plot-data build the shear images, one per level."""
        calls = _count_calls(monkeypatch, [(metrics, "shear_normalize"),
                                           (cli, "shear_normalize")])
        assert main([command, "--levels", "3", "--margin", "0.05",
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        assert sum(calls.values()) == shears

    def test_recheck_does_not_shear(self, monkeypatch):
        config = RunConfig(levels=3, schedule="margin")
        calls = _count_calls(monkeypatch, [(metrics, "shear_normalize")])
        construct.verify_construction(config.staircase[0], config.certificate)
        assert sum(calls.values()) == 0

    def test_all_equals_the_single_commands(self, tmp_path):
        config = _write_config(tmp_path, SMALL)
        assert main(["all", "--config", config, "--out", str(tmp_path / "all")]) == EXIT_OK
        singles = {}
        for command in ("build", "certify-smoothed", "estimate", "plot-data"):
            out = tmp_path / command
            assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
            for path in out.iterdir():
                assert path.name not in singles
                singles[path.name] = path.read_bytes()
        assert {p.name: p.read_bytes() for p in (tmp_path / "all").iterdir()} == singles

    @pytest.mark.parametrize("margin", ["0.02", "0.05"])
    @pytest.mark.parametrize("levels", [8, 10])
    def test_deep_staircases_certify(self, tmp_path, margin, levels):
        for command in ("build", "certify-smoothed", "plot-data"):
            assert main([command, "--levels", str(levels), "--margin", margin,
                         "--out", str(tmp_path / command)]) == EXIT_OK


    def test_polynomial_radii_certify_at_l60(self, tmp_path):
        """The radius rule a_k = 2 - 1/(k + 1) through the three certifying
        commands at 60 levels, where halving radii stop at 22."""
        config = _write_config(tmp_path, {
            "levels": 60, "schedule": "margin", "margin_u": "0.05",
            "sequence": [f"{2 * k + 1}/{k + 1}" for k in range(1, 61)]})
        for command in ("build", "certify-smoothed", "plot-data"):
            assert main([command, "--config", config,
                         "--out", str(tmp_path / command)]) == EXIT_OK
        assert len(read_csv(tmp_path / "build" / "certificate.csv")) == 61
        assert len(read_csv(tmp_path / "plot-data" / "sheared_profile_level60.csv")) == 123

    @pytest.mark.parametrize("doc", [
        {"levels": 19, "schedule": "margin", "margin_u": "0.02"},
        {"levels": 20, "schedule": "margin", "margin_u": "0.02"},
        {"levels": 200, "schedule": "margin", "margin_u": "0.05",
         "sequence": [f"{2 * k + 1}/{k + 1}" for k in range(1, 201)]},
    ], ids=["u0.02-L19", "u0.02-L20", "radii-L200"])
    def test_deep_build_rechecks_from_its_domain_json(self, tmp_path, doc):
        """build's domain.json holds the construction's exact profile, so the
        certificate rechecks against the domain read back from it, also at
        depths where the heights' doubles do not determine the exact ones."""
        assert main(["build", "--config", _write_config(tmp_path, doc),
                     "--out", str(tmp_path / "r")]) == EXIT_OK
        written = domain_from_doc(json.loads((tmp_path / "r" / "domain.json").read_text()))
        config = RunConfig(**doc)
        assert written.profile.exact_values == config.staircase[0].profile.exact_values
        construct.verify_construction(written, config.certificate)


class TestPlotData:
    def test_files_and_shapes(self, tmp_path):
        cfg = RunConfig(out=str(tmp_path / "r"), **HEADLINE)
        assert cmd_plotdata(cfg) == EXIT_OK
        prof = read_csv(tmp_path / "r" / "profile.csv")
        # 2K + 1 rows: the level breakpoints and the center
        assert len(prof) == 1 + (2 * 2 + 1)
        sheared = read_csv(tmp_path / "r" / "sheared_profile_level1.csv")
        peak = [r for r in sheared[1:] if float(r[0]) == 0.0]
        assert peak and float(peak[0][1]) == 0.0
        curve = read_csv(tmp_path / "r" / "bound_curve.csv")
        uppers = {float(r[0]): float(r[2]) for r in curve[1:] if r[1] == "s_upper"}
        lowers = {float(r[0]): float(r[2]) for r in curve[1:] if r[1] == "s_lower"}
        t2 = math.log(1.75)
        assert uppers[t2] < max(lowers.values())

    @pytest.mark.parametrize("doc", [HEADLINE, {"levels": 4}], ids=["headline", "harmonic-L4"])
    def test_profile_rows_match_the_scalar_path(self, tmp_path, doc):
        """profile.csv, evaluated as one array, equals the rows of the
        scalar ``eval`` and ``value`` called once per point."""
        cfg = RunConfig(out=str(tmp_path / "r"), **doc)
        assert cmd_plotdata(cfg) == EXIT_OK
        (domain, levels), sd = cfg.staircase, cfg.smoothed
        ts = sorted({math.log(rec.a_k) for rec in levels}
                    | {-math.log(rec.a_k) for rec in levels} | {0.0})
        want = [["t", "phi", "phi_tilde"]]
        for t in ts:
            want.append([fmt(t), fmt(domain.profile.eval(t)), fmt(sd.profile.value(t))])
        assert read_csv(tmp_path / "r" / "profile.csv") == want

    @pytest.mark.parametrize("doc, code", [
        (HEADLINE, EXIT_OK),
        # the harmonic staircase shows no violation once smoothed
        ({"levels": 4}, EXIT_CERTIFICATION),
        ({"levels": 6, "schedule": "margin", "margin_u": "0.02",
          "distance_resolution": 16384, "levi_points": 40000}, EXIT_OK),
    ], ids=["headline", "harmonic-L4", "u0.02-L6-fine"])
    def test_float_profile_tables_equal_the_fmt_reference(self, tmp_path, doc, code):
        """smooth_profile.csv, profile.csv and every sheared profile equal,
        byte for byte, the same arrays written one ``fmt`` call per value
        through ``csv.writer``."""
        cfg = RunConfig(out=str(tmp_path / "r"), **doc)
        assert cmd_certify_smoothed(cfg) == code
        (tmp_path / "r" / ".lock").unlink(missing_ok=True)
        assert cmd_plotdata(cfg) == EXIT_OK
        (domain, levels), sd = cfg.staircase, cfg.smoothed
        header = ("t", "phi", "phi_tilde")
        want = {}
        for name, ts in [
            ("smooth_profile.csv", np.linspace(domain.t_min, domain.t_max, 2001)),
            ("profile.csv", np.array(sorted({math.log(rec.a_k) for rec in levels}
                                            | {-math.log(rec.a_k) for rec in levels}
                                            | {0.0}))),
        ]:
            want[name] = fmt_csv_table(
                header, (ts, domain.profile.eval_many(ts), sd.profile.value(ts)))
        for rec in levels:
            idx = domain.profile.breakpoints.index(math.log(rec.a_k))
            image = metrics.shear_normalize(domain, idx)[0].profile
            want[f"sheared_profile_level{rec.k}.csv"] = fmt_csv_table(
                ("s", "phi_sheared"), (image.breakpoints, image.values))
        assert len(want) == 2 + len(levels)
        for name, text in want.items():
            assert (tmp_path / "r" / name).read_bytes() == text, name


def test_float_profile_writer_text_is_fmt(tmp_path):
    """Every field of the float table writer is ``fmt`` of its value, also
    for signed zeros, infinities, nan, subnormals, 17-digit boundaries, and
    for float32 and int columns, which become float64 as ``float(x)`` does."""
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
              2.2250738585072014e-308, 1e16, 1e17, 0.1, 1 / 3, -1e-300,
              1.7976931348623157e308]
    with np.errstate(over="ignore"):
        singles = np.array(values).astype(np.float32)
    ints = np.array([0, -1, 7, 2**53 + 1, -(2**53 + 1), 10**16, 10**17 + 1,
                     2**62 + 2**9, -12345678901234567, 3, 2**63 - 1, -2**63, 99],
                    dtype=np.int64)
    columns = (values, singles, ints)
    path = tmp_path / "table.csv"
    cli._write_floats(path, ("x", "x32", "n"), columns)
    lines = path.read_text().split("\n")
    assert lines[0] == "x,x32,n" and lines[-1] == ""
    assert [line.split(",") for line in lines[1:-1]] == [
        [fmt(x) for x in row] for row in zip(*columns)]


# a tiny estimate run: one level, short searches
TINY_ESTIMATE = {"levels": 1, "est_budget": 20, "est_restarts": 1, "est_samples": 256}


@pytest.mark.parametrize("search, quantity, factor", [
    ("caratheodory_lower_search", "caratheodory", 1e6),
    ("kobayashi_upper_search", "kobayashi", 1e-6),
], ids=["caratheodory", "kobayashi"])
def test_estimate_on_the_wrong_side_exit3(tmp_path, monkeypatch, search, quantity, factor):
    """An estimate on the wrong side of its certified bound fails its entry,
    the run's sandwich_ok and the exit code."""
    real = getattr(est, search)

    def wrong_side(*args, **kwargs):
        out = real(*args, **kwargs)
        if not isinstance(args[0], ReinhardtDomain):
            return out  # a calibration row, outside the sandwich
        bound, candidate, trace = out
        return dataclasses.replace(bound, value=bound.value * factor), candidate, trace

    monkeypatch.setattr(est, search, wrong_side)
    out = tmp_path / "r"
    assert main(["estimate", "--config", _write_config(tmp_path, TINY_ESTIMATE),
                 "--out", str(out)]) == EXIT_CERTIFICATION
    doc = json.loads((out / "estimates.json").read_text())
    assert doc["sandwich_ok"] is False
    verdicts = {(pt["point"], q): pt[q]["sandwich_ok"]
                for pt in doc["points"] for q in ("kobayashi", "caratheodory") if q in pt}
    assert verdicts and all(ok == (q != quantity) for (_, q), ok in verdicts.items())


def _no_child_process_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _estimate_with_workers(tmp_path, monkeypatch, caplog, workers, args):
    """Runs ``squeeze estimate`` with the worker count forced to ``workers``;
    its exit code and run directory."""
    monkeypatch.setattr(est, "_usable_cpus", lambda: workers)
    out = tmp_path / f"w{workers}"
    with caplog.at_level(logging.DEBUG, logger="squeeze"):
        code = main(["estimate", "--config", _write_config(tmp_path, TINY_ESTIMATE),
                     "--out", str(out)] + args)
    _no_child_process_left()
    return code, out


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_estimate_on_workers_writes_the_in_process_bytes(tmp_path, monkeypatch, caplog, seed):
    """Three forked workers and the in-process run write the same files,
    and no worker outlives the command."""
    runs = [_estimate_with_workers(tmp_path, monkeypatch, caplog, workers, ["--seed", str(seed)])
            for workers in (1, 3)]
    assert [code for code, _out in runs] == [EXIT_OK, EXIT_OK]
    assert "9 searches on 1 worker(s)" in caplog.text
    assert "9 searches on 3 worker(s)" in caplog.text
    for name in ("estimates.json", "estimate_traces.csv"):
        assert (runs[0][1] / name).read_bytes() == (runs[1][1] / name).read_bytes()


@pytest.mark.parametrize("error, code", [(ValidationError, EXIT_CONFIG),
                                         (NumericalError, EXIT_NUMERICAL)],
                         ids=["validation", "numerical"])
@pytest.mark.parametrize("workers", [1, 3])
def test_estimate_error_in_a_search_exits_as_in_process(tmp_path, monkeypatch, caplog, capsys,
                                                        error, code, workers):
    """An error raised in one search, on a worker or in process, gives the
    command's exit code for it and its message, and leaves no lock and no
    process behind."""
    real = est.caratheodory_lower_search

    def failing(*args, **kwargs):
        if not isinstance(args[0], ReinhardtDomain):  # the calibration rows
            raise error(f"calibration search failed in process {os.getpid()}")
        return real(*args, **kwargs)

    monkeypatch.setattr(est, "caratheodory_lower_search", failing)
    got, out = _estimate_with_workers(tmp_path, monkeypatch, caplog, workers, [])
    assert got == code
    pid = int(capsys.readouterr().err.split("calibration search failed in process ")[1].split()[0])
    assert (pid == os.getpid()) == (workers == 1)
    assert not (out / ".lock").exists()


def test_worker_count_follows_the_usable_cpus(monkeypatch, caplog):
    """``_parallel_cpus`` gives each usable CPU, at most one per job, and
    holds OpenBLAS to one thread while it gives more than one, restoring it
    after and saying so at DEBUG; it gives 1, holding nothing, where one CPU
    is usable, there are fewer than two jobs or no OpenBLAS can be held.
    Where the platform cannot fork, the searches run in process whatever the
    CPUs, and the DEBUG line names each by its key."""
    blas = []
    monkeypatch.setattr(est, "_openblas_threads", lambda: (lambda: 4, blas.append))
    for cpus, jobs, want in [({0}, 13, 1), ({0, 1}, 13, 2), ({0, 2, 5, 7}, 13, 4),
                             ({0, 1, 2, 3}, 3, 3), ({0, 1, 2, 3}, 1, 1), ({0, 1}, 0, 1)]:
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid, cpus=cpus: cpus)
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="squeeze"), est._parallel_cpus(jobs) as got:
            assert got == want
            assert blas[-1:] == ([1] if want > 1 else [])
        assert blas == ([1, 4] if want > 1 else [])
        held = f"OpenBLAS held to one thread (from 4) for {want} CPUs"
        assert (held in caplog.text) == (want > 1)
        blas.clear()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    searches = {(f"(a_{k},0)", "kobayashi"): os.getpid for k in (1, 2, 3)}
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="squeeze"):
        assert cli._run_searches(searches) == dict.fromkeys(searches, os.getpid())
    assert "3 searches on 1 worker(s)" in caplog.text and blas == []
    assert all(f"(a_{k},0) kobayashi " in caplog.text for k in (1, 2, 3))
    monkeypatch.setattr(est, "_openblas_threads", lambda: None)
    with est._parallel_cpus(13) as got:
        assert got == 1


def test_forked_workers_read_openblas_at_one_thread(monkeypatch):
    """A forked worker inherits the OpenBLAS hold: it reads one thread where
    the parent had two.  After the pool the parent's count is restored, also
    when a search raises, and no worker outlives the searches."""
    blas = est._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS whose threads can be held")
    get_threads, set_threads = blas
    original = get_threads()
    monkeypatch.setattr(est, "_usable_cpus", lambda: 2)

    def failing():
        raise NumericalError("search failed")

    try:
        set_threads(2)
        got = cli._run_searches({("a", "threads"): get_threads, ("b", "pid"): os.getpid,
                                 ("c", "threads"): get_threads})
        assert get_threads() == 2
        with pytest.raises(NumericalError, match="search failed"):
            cli._run_searches({("a", "threads"): get_threads, ("b", "failing"): failing})
        assert get_threads() == 2
    finally:
        set_threads(original)
    _no_child_process_left()
    assert got["a", "threads"] == got["c", "threads"] == 1 and got["b", "pid"] != os.getpid()


class TestDeterminism:
    def test_run_directories_byte_identical(self, tmp_path):
        cfgdoc = {"levels": 1, "schedule": "margin", "margin_u": "0.05",
                  "est_budget": 40, "est_samples": 512, "est_restarts": 2,
                  "levi_points": 2000}
        outs = []
        for name in ("r1", "r2"):
            code = main(["all", "--out", str(tmp_path / name), "--config",
                         _write_config(tmp_path, cfgdoc)])
            assert code == EXIT_OK
            outs.append(tmp_path / name)
        files1 = sorted(p.name for p in outs[0].iterdir())
        files2 = sorted(p.name for p in outs[1].iterdir())
        assert files1 == files2
        for name in files1:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_config_roundtrip(self, tmp_path):
        cfg = RunConfig(levels=2, schedule="margin", margin_u="0.05", seed=7)
        doc = cfg.to_doc()
        again = RunConfig.from_doc(json.loads(json.dumps(doc)))
        assert again == cfg
        assert again.to_doc() == doc


def test_emitted_json_validates_against_schemas(tmp_path):
    from squeeze.schema import validate_doc

    cfg = RunConfig(out=str(tmp_path / "r"), **HEADLINE)
    assert cmd_build(cfg) == EXIT_OK
    validate_doc("domain", json.loads((tmp_path / "r" / "domain.json").read_text()))
    validate_doc("construction-certificate",
                 json.loads((tmp_path / "r" / "certificate.json").read_text()))
    (tmp_path / "r" / ".lock").unlink(missing_ok=True)
    assert cmd_certify_smoothed(cfg) == EXIT_OK
    validate_doc("levi-report",
                 json.loads((tmp_path / "r" / "levi_report.json").read_text()))
    validate_doc("construction-certificate",
                 json.loads((tmp_path / "r" / "smoothed_certificate.json").read_text()))


def test_lock_file(tmp_path):
    out = tmp_path / "r"
    out.mkdir()
    (out / ".lock").touch()
    cfg = RunConfig(out=str(out))
    assert main(["build", "--out", str(out)]) == EXIT_CONFIG
