"""Harness and CLI tests: config validation, CSV/manifest output, replay."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

import spectop
from spectop import cli, harness, spectral
from spectop.complexes import window_density
from spectop.graphs import (
    GraphParams,
    components,
    erdos_renyi,
    from_edges,
    induced_subgraph,
    write_edge_list,
)
from spectop.harness import (
    KINDS,
    ExperimentConfig,
    resolve_p,
    run,
    run_trial,
    validate,
)
from spectop.seeding import derive_seed
from spectop.spectral import full_spectrum, normalized_laplacian


def cfg(**kw):
    return ExperimentConfig(**kw)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            validate(cfg(kind="bogus", n=10))

    @pytest.mark.parametrize(
        "bad,field",
        [
            (dict(trials=0), "trials"),
            (dict(master_seed=-1), "seed"),
            (dict(workers=0), "workers"),
            (dict(p=0.1, coeff=1.0), "mutually exclusive"),
            (dict(p=1.5), "p must lie"),
            (dict(coeff=-2.0), "coeff"),
        ],
    )
    def test_generic_fields_named(self, bad, field):
        base = dict(kind="graph-gap", n=50, p=0.2)
        base.update(bad)
        if "coeff" in bad and "p" not in bad:
            base.pop("p")
        with pytest.raises(ValueError, match=field):
            validate(cfg(**base))

    def test_needs_n(self):
        with pytest.raises(ValueError, match="n"):
            validate(cfg(kind="graph-gap", p=0.2))
        with pytest.raises(ValueError, match="n"):
            validate(cfg(kind="connectivity-gap", n=1))

    def test_needs_probability(self):
        for kind in ("graph-gap", "below-threshold", "link-audit"):
            with pytest.raises(ValueError, match="p or coeff"):
                validate(cfg(kind=kind, n=20, d=2))

    def test_needs_dimension(self):
        for kind in ("link-audit", "poisson-betti", "cohomology-hit"):
            with pytest.raises(ValueError, match="d >= 2"):
                validate(cfg(kind=kind, n=20, p=0.5, c=0.0))
            with pytest.raises(ValueError, match="d >= 2"):
                validate(cfg(kind=kind, n=20, d=1, p=0.5, c=0.0))

    def test_n_vs_d(self):
        with pytest.raises(ValueError, match="d \\+ 1"):
            validate(cfg(kind="link-audit", n=3, d=3, p=0.5))

    def test_poisson_betti_needs_window(self):
        with pytest.raises(ValueError, match="c .*or literal p"):
            validate(cfg(kind="poisson-betti", n=20, d=2))
        validate(cfg(kind="poisson-betti", n=20, d=2, c=0.0))
        validate(cfg(kind="poisson-betti", n=20, d=2, p=0.4))

    def test_t_hit_dimension_fixed(self):
        validate(cfg(kind="t-hit", n=10))
        validate(cfg(kind="t-hit", n=10, d=2))
        with pytest.raises(ValueError, match="dimension 2"):
            validate(cfg(kind="t-hit", n=10, d=3))
        with pytest.raises(ValueError, match="grid"):
            validate(cfg(kind="t-hit", n=10, grid_points=0))

    def test_certify_shapes(self):
        with pytest.raises(ValueError, match="p or coeff"):
            validate(cfg(kind="certify", n=50))
        with pytest.raises(ValueError, match="trials"):
            validate(cfg(kind="certify", import_path="x.edges", trials=2))
        with pytest.raises(ValueError, match="M"):
            validate(cfg(kind="certify", n=50, p=0.3, M=0.5))
        validate(cfg(kind="certify", import_path="x.edges"))
        validate(cfg(kind="certify", n=50, coeff=2.0, trials=4))

    def test_import_restricted_to_certify(self):
        with pytest.raises(ValueError, match="import"):
            validate(cfg(kind="graph-gap", n=50, p=0.2, import_path="x.edges"))

    def test_tail_check_needs_nothing(self):
        validate(cfg(kind="tail-check"))


class TestResolveP:
    def test_literal(self):
        assert resolve_p(cfg(kind="graph-gap", n=100, p=0.25)) == 0.25

    def test_coefficient_form(self):
        c = cfg(kind="graph-gap", n=100, coeff=1.2)
        assert resolve_p(c) == pytest.approx(1.2 * math.log(100) / 100, rel=1e-15)

    def test_coefficient_overflow(self):
        with pytest.raises(ValueError, match="> 1"):
            resolve_p(cfg(kind="graph-gap", n=5, coeff=20.0))

    def test_poisson_window(self):
        c = cfg(kind="poisson-betti", n=40, d=2, c=0.0)
        assert resolve_p(c) == window_density(40, 2, 0.0)

    def test_no_probability_kind(self):
        assert resolve_p(cfg(kind="connectivity-gap", n=40)) is None


EXPECTED_COLUMNS = {
    "graph-gap": ["giant_size", "gap", "lambda2", "lambda_max", "gap_sqrt_d"],
    "below-threshold": ["giant_size", "gap", "lambda2", "lambda_max",
                        "witness_m", "witness_found"],
    "connectivity-gap": ["tau_c", "m1_no_isolated", "gap", "lambda2",
                         "lambda_max", "gap_sqrt_log_n"],
    "link-audit": ["min_link_lambda2", "pure", "certified", "worst_face"],
    "poisson-betti": ["isolated", "betti", "identity_holds"],
    "cohomology-hit": ["m1", "m2", "coincide"],
    "t-hit": ["m1", "m2t", "found"],
    "certify": ["n", "d", "M", "C1", "C2", "C3", "fuzz_size",
                "fuzz_independent", "fuzz_small", "fuzz_neighbor_ok",
                "certified_bound", "measured_gap", "sound"],
    "tail-check": ["n", "p", "lower_ok", "upper_ok",
                   "lower_margin", "upper_margin"],
}

SMALL_CONFIGS = {
    "graph-gap": dict(n=60, coeff=1.5, trials=3),
    "below-threshold": dict(n=60, coeff=0.5, trials=3),
    "connectivity-gap": dict(n=40, trials=3),
    "link-audit": dict(n=9, d=2, p=0.85, trials=3),
    "poisson-betti": dict(n=16, d=2, c=0.0, trials=3),
    "cohomology-hit": dict(n=12, d=2, trials=3),
    "t-hit": dict(n=12, trials=2, grid_points=6),
    "certify": dict(n=80, coeff=2.0, trials=2),
    "tail-check": dict(),
}


class TestRunOutputs:
    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_and_rows(self, kind, tmp_path):
        c = cfg(kind=kind, out=str(tmp_path), master_seed=5, **SMALL_CONFIGS[kind])
        result = run(c)
        assert result.columns == EXPECTED_COLUMNS[kind]
        rows = read_csv(result.csv_path)
        expected_rows = 9 if kind == "tail-check" else c.trials
        assert len(rows) == expected_rows
        header = ["trial", "seed"] + EXPECTED_COLUMNS[kind] + ["wall_ms"]
        assert list(rows[0].keys()) == header
        if kind != "tail-check":
            for t, row in enumerate(rows):
                assert int(row["trial"]) == t
                assert int(row["seed"]) == derive_seed(5, t)

    @pytest.mark.parametrize("kind", KINDS)
    def test_manifest(self, kind, tmp_path):
        c = cfg(kind=kind, out=str(tmp_path), master_seed=5, **SMALL_CONFIGS[kind])
        result = run(c)
        with open(result.manifest_path) as fh:
            manifest = json.load(fh)
        assert manifest == result.manifest
        assert manifest["kind"] == kind
        assert manifest["config"]["master_seed"] == 5
        assert manifest["version"]
        assert manifest["rows"] == len(result.records)
        assert manifest["columns"][0] == "trial"
        assert manifest["columns"][-1] == "wall_ms"
        if kind not in ("tail-check", "connectivity-gap", "cohomology-hit", "t-hit"):
            assert manifest["resolved"]["p"] == resolve_p(c)
        for col, stats in manifest["summaries"].items():
            assert set(stats) == {"q1", "median", "q3"}
            assert stats["q1"] <= stats["median"] <= stats["q3"]

    def test_graph_gap_values_sane(self, tmp_path):
        result = run(cfg(kind="graph-gap", n=120, coeff=1.5, trials=4,
                         master_seed=2, out=str(tmp_path)))
        for r in result.records:
            assert 0.0 < r.values["gap"] < 1.0
            assert 1 <= r.values["giant_size"] <= 120
            assert r.values["lambda2"] <= r.values["lambda_max"]

    @pytest.mark.parametrize("kind,n,coeff", [
        ("graph-gap", 2000, 1.5),
        ("graph-gap", 300, 0.6),  # disconnected
        ("certify", 2000, 1.5),
    ])
    def test_two_component_passes_per_trial(self, kind, n, coeff, monkeypatch):
        # graph-gap: one to extract the giant, one for gap's kernel dimension;
        # certify: giant_gap hands the giant it extracted straight to the solver
        passes = 1 if kind == "certify" else 2
        calls = []

        def spy(g):
            calls.append(g.n)
            return components(g)

        monkeypatch.setattr(harness, "components", spy)
        monkeypatch.setattr(spectral, "components", spy)
        run_trial(cfg(kind=kind, n=n, coeff=coeff, master_seed=5), 0)
        assert len(calls) == passes

    def test_connectivity_gap_values_sane(self, tmp_path):
        result = run(cfg(kind="connectivity-gap", n=50, trials=3,
                         master_seed=3, out=str(tmp_path)))
        for r in result.records:
            assert r.values["m1_no_isolated"] <= r.values["tau_c"]
            assert 0.0 < r.values["gap"] < 1.0

    def test_poisson_betti_identity_column(self, tmp_path):
        result = run(cfg(kind="poisson-betti", n=16, d=2, c=0.0, trials=5,
                         master_seed=8, out=str(tmp_path)))
        for r in result.records:
            assert r.values["identity_holds"] == (
                r.values["betti"] == r.values["isolated"]
            )

    def test_tail_check_result_ok(self, tmp_path):
        result = run(cfg(kind="tail-check", out=str(tmp_path)))
        assert result.ok
        assert len(result.records) == 9


class TestReplay:
    def test_rows_reproduce_without_wall_ms(self, tmp_path):
        base = cfg(kind="graph-gap", n=80, coeff=1.4, trials=4,
                   master_seed=11, out=str(tmp_path / "a"))
        again = replace(base, out=str(tmp_path / "b"), workers=2)
        r1, r2 = run(base), run(again)
        strip = lambda path: [
            line.rsplit(",", 1)[0] for line in open(path).read().splitlines()
        ]
        assert strip(r1.csv_path) == strip(r2.csv_path)

    def test_single_trial_matches_batch(self, tmp_path):
        c = cfg(kind="connectivity-gap", n=45, trials=3, master_seed=6,
                out=str(tmp_path))
        result = run(c)
        lone = run_trial(c, 2)
        assert lone.seed == result.records[2].seed
        assert lone.values == result.records[2].values

    @pytest.mark.parametrize("kind,extra", [
        ("certify", dict(coeff=1.5)),
        ("graph-gap", dict(coeff=1.2)),
    ])
    def test_lanczos_rows_reproduce_without_wall_ms(self, kind, extra, tmp_path):
        # n above the dense cut-off, so gap and the seminorm run Lanczos
        base = cfg(kind=kind, n=300, trials=3, master_seed=5,
                   out=str(tmp_path / "a"), **extra)
        again = replace(base, out=str(tmp_path / "b"), workers=2)
        r1, r2 = run(base), run(again)
        strip = lambda path: [
            line.rsplit(",", 1)[0] for line in open(path).read().splitlines()
        ]
        assert strip(r1.csv_path) == strip(r2.csv_path)

    def test_float_round_trip_exact(self, tmp_path):
        c = cfg(kind="graph-gap", n=70, coeff=1.3, trials=3, master_seed=4,
                out=str(tmp_path))
        result = run(c)
        rows = read_csv(result.csv_path)
        for rec, row in zip(result.records, rows):
            assert float(row["gap"]) == rec.values["gap"]
            assert float(row["lambda_max"]) == rec.values["lambda_max"]


def _write_failing_graph(path):
    """Clique plus a detached edge: both endpoints sit in the low-degree
    fuzz and are adjacent, so the independence condition fails."""
    edges = list(combinations(range(30), 2)) + [(30, 31)]
    write_edge_list(from_edges(32, edges), path)


class TestCertify:
    def test_import_single_row(self, tmp_path):
        target = tmp_path / "g.edges"
        edges = list(combinations(range(24), 2))
        write_edge_list(from_edges(24, edges), str(target))
        result = run(cfg(kind="certify", import_path=str(target),
                         out=str(tmp_path / "run")))
        assert len(result.records) == 1
        row = result.records[0].values
        assert row["n"] == 24
        assert row["d"] == pytest.approx(23.0)
        assert row["sound"]
        assert result.ok

    def test_failing_graph_not_ok(self, tmp_path):
        target = tmp_path / "bad.edges"
        _write_failing_graph(str(target))
        result = run(cfg(kind="certify", import_path=str(target),
                         out=str(tmp_path / "run")))
        row = result.records[0].values
        assert not row["fuzz_independent"]
        assert row["certified_bound"] is None
        assert not result.ok

    def test_sampled_certify_sound(self, tmp_path):
        result = run(cfg(kind="certify", n=150, coeff=2.0, trials=3,
                         master_seed=9, out=str(tmp_path)))
        assert result.ok
        for r in result.records:
            assert r.values["measured_gap"] <= r.values["certified_bound"] + 1e-7

    def test_sound_below_one_matches_dense_oracle(self, tmp_path, monkeypatch):
        # certified bound ~0.5 < 1, so `sound` rests on the inertia count
        config = cfg(kind="certify", n=400, p=0.5, M=1.5, trials=2,
                     master_seed=3, out=str(tmp_path))
        result = run(config)
        for rec in result.records:
            row = rec.values
            assert row["certified_bound"] < 1.0
            g = erdos_renyi(GraphParams(400, 0.5, rec.seed))
            comp = components(g)
            sub = induced_subgraph(g, np.flatnonzero(comp.component_id == comp.giant))
            vals = full_spectrum(normalized_laplacian(sub)).eigenvalues
            true_gap = float(np.abs(1.0 - vals[1:]).max())
            assert row["measured_gap"] == pytest.approx(true_gap, abs=1e-10)
            assert row["sound"] == (true_gap <= row["certified_bound"] + 1e-7)
        monkeypatch.setattr(harness, "gap_at_most", lambda g, bound: False)
        assert not any(r.values["sound"] for r in run(config).records)


class TestCli:
    def test_exit_zero(self, tmp_path, capsys):
        code = cli.main(["graph-gap", "--n", "60", "--coeff", "1.5",
                         "--trials", "2", "--seed", "3",
                         "--out", str(tmp_path)])
        assert code == 0
        assert "records.csv" in capsys.readouterr().out

    def test_exit_one_on_bad_config(self, tmp_path, capsys):
        code = cli.main(["graph-gap", "--n", "60", "--out", str(tmp_path)])
        assert code == 1
        assert "p or coeff" in capsys.readouterr().err

    def test_exit_one_on_missing_file(self, tmp_path, capsys):
        code = cli.main(["certify", "--import", str(tmp_path / "nope.edges"),
                         "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize("header", ["0 0", "3 0"])
    def test_exit_one_on_edgeless_import(self, header, tmp_path):
        # run as the installed entry point would, so a traceback would show
        target = tmp_path / "empty.edges"
        target.write_text(header + "\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(spectop.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "spectop.cli", "certify", "--import", str(target),
             "--out", str(tmp_path / "run")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("spectop: error: ")
        assert str(target) in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_exit_two_on_failed_certify(self, tmp_path, capsys):
        target = tmp_path / "bad.edges"
        _write_failing_graph(str(target))
        code = cli.main(["certify", "--import", str(target),
                         "--out", str(tmp_path / "run")])
        assert code == 2
        assert "FAILED" in capsys.readouterr().err

    def test_exit_zero_on_tail_check(self, tmp_path):
        assert cli.main(["tail-check", "--out", str(tmp_path)]) == 0

    def test_unknown_kind_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            cli.main(["warp-drive", "--n", "5"])

    def test_seed_flag_feeds_derivation(self, tmp_path):
        cli.main(["connectivity-gap", "--n", "30", "--trials", "2",
                  "--seed", "17", "--out", str(tmp_path)])
        rows = read_csv(str(tmp_path / "records.csv"))
        assert int(rows[0]["seed"]) == derive_seed(17, 0)
        assert int(rows[1]["seed"]) == derive_seed(17, 1)
