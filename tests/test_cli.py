"""Tests for the ``opaq`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.storage import DiskDataset


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "keys.opaq"
    assert (
        main(
            [
                "generate",
                "--dist",
                "uniform",
                "--n",
                "20000",
                "--seed",
                "3",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    return path


class TestGenerateAndInfo:
    def test_generate_writes_dataset(self, dataset):
        ds = DiskDataset.open(dataset)
        assert ds.count == 20_000

    def test_zipf_parameters(self, tmp_path, capsys):
        out = tmp_path / "z.opaq"
        rc = main(
            [
                "generate",
                "--dist",
                "zipf",
                "--zipf-parameter",
                "0.5",
                "--n",
                "5000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        assert "zipf" in capsys.readouterr().out

    def test_info(self, dataset, capsys):
        assert main(["info", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "20,000" in out

    def test_info_missing_file(self, tmp_path, capsys):
        rc = main(["info", str(tmp_path / "nope.opaq")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSummarizeQueryRank:
    def test_pipeline(self, dataset, tmp_path, capsys):
        summary_path = tmp_path / "s.npz"
        rc = main(
            [
                "summarize",
                str(dataset),
                "--out",
                str(summary_path),
                "--sample-size",
                "200",
                "--run-size",
                "5000",
            ]
        )
        assert rc == 0
        assert "one pass" in capsys.readouterr().out

        assert main(["query", str(summary_path), "--dectiles"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 10  # header + 9 dectiles

        assert main(["query", str(summary_path), "--phi", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "0.500" in out

        # The printed bounds enclose the true median.
        data = np.sort(DiskDataset.open(dataset).read_all())
        lower, upper = out.splitlines()[1].split()[1:3]
        assert float(lower) <= data[9999] <= float(upper)

        assert main(["rank", str(summary_path), "1.0"]) == 0
        assert "rank(1.0)" in capsys.readouterr().out

    def test_memory_flag_derives_run_size(self, dataset, tmp_path):
        rc = main(
            [
                "summarize",
                str(dataset),
                "--out",
                str(tmp_path / "s.npz"),
                "--sample-size",
                "100",
                "--memory",
                "8000",
            ]
        )
        assert rc == 0

    def test_infeasible_memory_reports_error(self, dataset, tmp_path, capsys):
        rc = main(
            [
                "summarize",
                str(dataset),
                "--out",
                str(tmp_path / "s.npz"),
                "--sample-size",
                "1000",
                "--memory",
                "1500",
            ]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestExactAndSort:
    def test_exact(self, dataset, capsys):
        rc = main(
            [
                "exact",
                str(dataset),
                "--phi",
                "0.5",
                "--sample-size",
                "200",
                "--run-size",
                "5000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        value = float(out.splitlines()[1].split()[1])
        data = np.sort(DiskDataset.open(dataset).read_all())
        assert value == data[9999]

    def test_sort(self, dataset, tmp_path, capsys):
        out_path = tmp_path / "sorted.opaq"
        rc = main(["sort", str(dataset), str(out_path), "--memory", "6000"])
        assert rc == 0
        result = DiskDataset.open(out_path).read_all()
        assert np.all(np.diff(result) >= 0)


class TestParser:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestInfoAndCompactSummary:
    def test_info_on_summary(self, dataset, tmp_path, capsys):
        summary_path = tmp_path / "s.npz"
        main([
            "summarize", str(dataset), "--out", str(summary_path),
            "--sample-size", "200", "--run-size", "5000",
        ])
        capsys.readouterr()
        assert main(["info", str(summary_path)]) == 0
        out = capsys.readouterr().out
        assert "describes:  20,000 keys" in out
        assert "guarantee:" in out

    def test_compact_roundtrip(self, dataset, tmp_path, capsys):
        summary_path = tmp_path / "s.npz"
        small_path = tmp_path / "small.npz"
        main([
            "summarize", str(dataset), "--out", str(summary_path),
            "--sample-size", "200", "--run-size", "5000",
        ])
        rc = main([
            "compact", str(summary_path),
            "--max-samples", "100", "--out", str(small_path),
        ])
        assert rc == 0
        capsys.readouterr()
        assert main(["query", str(small_path), "--phi", "0.5"]) == 0
        out = capsys.readouterr().out
        data = np.sort(DiskDataset.open(dataset).read_all())
        lower, upper = out.splitlines()[1].split()[1:3]
        assert float(lower) <= data[9999] <= float(upper)


class TestAnalyzeExplain:
    @pytest.fixture
    def catalog(self, tmp_path):
        from repro.storage import TableDataset

        rng = np.random.default_rng(5)
        TableDataset.create(
            tmp_path / "orders",
            {"amount": rng.lognormal(4, 1, 20_000), "qty": rng.uniform(1, 9, 20_000)},
        )
        rc = main([
            "analyze", str(tmp_path / "orders"),
            "--out", str(tmp_path / "catalog"),
            "--sample-size", "200", "--run-size", "5000",
        ])
        assert rc == 0
        return tmp_path / "catalog"

    def test_explain_single_predicate(self, catalog, capsys):
        capsys.readouterr()
        rc = main([
            "explain", str(catalog), "--predicate", "amount:50:200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "guaranteed in" in out

    def test_explain_conjunction(self, catalog, capsys):
        capsys.readouterr()
        rc = main([
            "explain", str(catalog),
            "--predicate", "amount:50:200",
            "--predicate", "qty:1:3",
        ])
        assert rc == 0
        assert "conjunction" in capsys.readouterr().out

    def test_explain_bad_predicate(self, catalog, capsys):
        rc = main(["explain", str(catalog), "--predicate", "amount=5"])
        assert rc == 2
        assert "column:lo:hi" in capsys.readouterr().err


class TestRunCommand:
    def test_run_prints_bounds(self, dataset, capsys):
        rc = main(["run", str(dataset), "--phi", "0.5", "--sample-size", "100"])
        assert rc == 0
        assert "0.500" in capsys.readouterr().out

    def test_run_metrics_out_emits_all_counter_families(
        self, dataset, tmp_path, capsys
    ):
        """The acceptance check: a parallel traced run writes per-phase
        spans plus I/O, comparison, and SPMD message counters, and the
        deterministic counters match the analytic cost model exactly."""
        import json

        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "run",
                str(dataset),
                "--phi",
                "0.5",
                "--run-size",
                "2000",
                "--sample-size",
                "200",
                "--procs",
                "4",
                "--merge",
                "bitonic",
                "--trace",
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "repro.obs/v1"
        counters = doc["counters"]
        # I/O: one pass over all 20k keys of the generated dataset.
        assert counters["io.elements"] == 20_000
        assert counters["io.bytes"] == 20_000 * 8
        # Comparisons: the modelled O(m log s) figure over every run.
        assert counters["selection.comparisons"] > 0
        # SPMD: bitonic p=4 -> S=3 supersteps -> p*S message endpoints.
        # Each processor holds 5000 keys in runs of 2000 -> local lists of
        # rs = 200+200+100 = 500 samples, so p*rs*S keys move in total.
        assert counters["spmd.messages"] == 4 * 3
        assert counters["spmd.keys"] == 4 * 500 * 3
        assert "phase.multiselect" in doc["spans"]
        assert doc["spmd_phases"]["io"] > 0
        err = capsys.readouterr().err
        assert "metrics" in err and "trace:" in err

    def test_run_without_flags_writes_nothing(self, dataset, tmp_path):
        rc = main(["run", str(dataset), "--phi", "0.5"])
        assert rc == 0
        assert list(tmp_path.glob("*.json")) == []

    @pytest.mark.parametrize("engine", ["kll", "gk", "as95"])
    def test_run_alternative_engines(self, dataset, engine, capsys):
        rc = main(
            [
                "run", str(dataset), "--phi", "0.5",
                "--sample-size", "200", "--engine", engine,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.500" in out
        assert f"engine {engine}" in out
        assert "equal-memory" in out

    def test_run_engine_policy_alias(self, dataset, capsys):
        rc = main(
            [
                "run", str(dataset), "--phi", "0.5",
                "--sample-size", "200", "--engine", "smallest-memory",
            ]
        )
        assert rc == 0
        assert "engine gk" in capsys.readouterr().out

    def test_run_default_engine_output_is_unchanged(self, dataset, capsys):
        rc = main(["run", str(dataset), "--phi", "0.5", "--engine", "opaq"])
        assert rc == 0
        assert "engine" not in capsys.readouterr().out

    def test_non_opaq_engine_refuses_parallel_flags(self, dataset, capsys):
        rc = main(
            [
                "run", str(dataset), "--phi", "0.5",
                "--engine", "kll", "--procs", "4",
            ]
        )
        assert rc == 2
        assert "OPAQ-only" in capsys.readouterr().err

    def test_unknown_engine_is_a_config_error(self, dataset, capsys):
        rc = main(["run", str(dataset), "--phi", "0.5", "--engine", "nope"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["opaq", "kll", "gk", "as95"])
    def test_run_refuses_nan_on_every_engine(self, tmp_path, engine, capsys):
        """NaN has no rank: one among 20,000 normal values is a data
        error on every engine, never bounds printed over it."""
        from repro.storage import DatasetWriter

        data = np.random.default_rng(5).normal(size=20_001)
        data[12_345] = np.nan
        path = tmp_path / "nan.opaq"
        with DatasetWriter(path) as writer:
            writer.append(data)
        rc = main(
            [
                "run", str(path), "--phi", "0.01", "--phi", "0.5",
                "--sample-size", "100", "--engine", engine,
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "NaN" in captured.err
        assert "0.500" not in captured.out


class TestServeEngineFlags:
    """Engine selection fails fast — before any socket is bound."""

    def test_malformed_tenant_engine_pair(self, capsys):
        rc = main(["serve", "--tenant-engine", "acme:kll"])
        assert rc == 2
        assert "TENANT=ENGINE" in capsys.readouterr().err

    def test_unknown_tenancy_engine(self, capsys):
        rc = main(["serve", "--tenancy-engine", "quantum"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unknown_per_tenant_engine(self, capsys):
        rc = main(["serve", "--tenant-engine", "acme=quantum"])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_retired_snapshot_dir_layout_is_refused(self, tmp_path):
        """A snapshot dir of the retired layout (a manifest plus one
        ``.npz`` per epoch) stops the server before it binds."""
        import subprocess
        import sys

        (tmp_path / "LATEST.json").write_text("{}")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--snapshot-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "LATEST.json" in line
        assert "serving on" not in result.stdout


class TestQueryServer:
    def test_http_address_is_a_typed_error(self):
        """The service speaks one wire: an ``http://`` address against a
        live server is a usage error naming ``opaq://host:port``, not a
        traceback out of an HTTP parser."""
        import subprocess
        import sys

        from repro.service import (
            QuantileService,
            ServiceConfig,
            ThreadedBinaryServer,
        )

        config = ServiceConfig(num_shards=1, run_size=500, sample_size=25)
        with QuantileService(config) as service:
            with ThreadedBinaryServer(service, port=0) as server:
                address = server.url.replace("opaq://", "http://")
                result = subprocess.run(
                    [sys.executable, "-m", "repro.cli", "query",
                     "--server", address],
                    capture_output=True,
                    text=True,
                    timeout=60,
                )
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("error: ") and "opaq://host:port" in line


class TestExperimentCommand:
    def test_unknown_experiment(self, capsys):
        rc = main(["experiment", "table99"])
        assert rc == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.strip() == "1.0.0"
