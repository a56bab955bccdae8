import fcntl
import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bicomet
from bicomet.cli import main


def write_config(tmp_path, **overrides):
    pipeline = {
        "manifest": "data/manifest.csv",
        "output_dir": "out",
        "runs": "4",
        "restarts_per_run": "6",
        "p_t": "0.01",
        "master_seed": "11",
        "attributes": "data/attributes.csv",
    }
    synth = {
        "output_dir": "data",
        "seed": "11",
        "periods": "3",
        "churn": "0.0",
        "p_in": "0.85",
        "p_out": "0.01",
        "communities": "6x14,6x14,6x14",
        "categories": "sector:blue:AA|BB|CC ; bank_type:red:X|Y",
        "plants": "sector:EE:0:0.8",
    }
    pipeline.update({k: v for k, v in overrides.items() if k in pipeline})
    path = tmp_path / "config.ini"
    lines = ["[pipeline]"]
    lines += [f"{k} = {v}" for k, v in pipeline.items()]
    lines += ["", "[synth]"]
    lines += [f"{k} = {v}" for k, v in synth.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


# the bicomet command in a fresh interpreter
RUN_MAIN = "import sys; from bicomet.cli import main; sys.exit(main(sys.argv[1:]))"


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path)
    assert main(["synth", "--config", str(config)]) == 0
    return tmp_path, config


class TestSynthCommand:
    def test_writes_dataset(self, workspace):
        tmp_path, _ = workspace
        data = tmp_path / "data"
        assert (data / "manifest.csv").exists()
        assert (data / "attributes.csv").exists()
        assert (data / "lineage.csv").exists()
        edges = sorted(data.glob("edges_*.csv"))
        assert len(edges) == 3

    def test_deterministic(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert main(["synth", "--config", str(config)]) == 0
        first = tree_bytes(tmp_path / "data")
        assert main(["synth", "--config", str(config)]) == 0
        assert tree_bytes(tmp_path / "data") == first

    def test_rerun_without_categories_removes_the_catalog(self, tmp_path, monkeypatch):
        # a pipeline whose attributes key names the old catalog would enrich
        # against another model's plants
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "synth.ini"
        config.write_text("[synth]\noutput_dir = data\ncategories = sector:blue:A|B\n")
        assert main(["synth", "--config", str(config)]) == 0
        assert (tmp_path / "data" / "attributes.csv").exists()
        config.write_text("[synth]\noutput_dir = data\n")
        assert main(["synth", "--config", str(config)]) == 0
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == [
            "edges_p00.csv", "ground_truth.csv", "lineage.csv", "manifest.csv", "nodes_p00.csv"
        ]


class TestDetectCommand:
    def test_outputs(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "run_summary.json").exists()
        counts = (out / "community_counts.csv").read_text().splitlines()
        assert counts[0] == "period,mean_communities,std_communities,best_communities"
        assert len(counts) == 4
        p00 = out / "partitions" / "p00"
        assert sorted(p.name for p in p00.iterdir()) == ["best.csv", "runs.csv"]
        header = (p00 / "runs.csv").read_text().splitlines()[0]
        assert header == "node_id,side,run_000,run_001,run_002,run_003"
        summary = json.loads((out / "run_summary.json").read_text())
        assert set(summary) == {"p00", "p01", "p02"}
        assert len(summary["p00"]["runs"]) == 4

    def test_single_run_reports_zero_std(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config), "--runs", "1"]) == 0
        counts = (tmp_path / "out" / "community_counts.csv").read_text().splitlines()
        assert all(line.split(",")[2] == "0.0" for line in counts[1:])

    @pytest.mark.parametrize("failing", ["community_counts.csv", "run_summary.json"])
    def test_failed_summary_write_leaves_no_stale_summary(
        self, workspace, monkeypatch, capsys, failing
    ):
        import bicomet.cli as cli_mod

        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0

        def fail(*args, **kwargs):
            raise OSError("disk full")

        if failing == "run_summary.json":
            monkeypatch.setattr(cli_mod.json, "dumps", fail)
        else:
            write_rows = cli_mod.table.write_rows

            def write_rows_failing_counts(path, *args, **kwargs):
                if "community_counts" in Path(path).name:
                    fail()
                return write_rows(path, *args, **kwargs)

            monkeypatch.setattr(cli_mod.table, "write_rows", write_rows_failing_counts)
        assert main(["detect", "--config", str(config), "--seed", "12"]) == 1
        monkeypatch.undo()
        out = tmp_path / "out"
        # the summary is written last: a failed counts write leaves neither
        assert not (out / "run_summary.json").exists()
        assert (out / "community_counts.csv").exists() == (failing == "run_summary.json")
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        capsys.readouterr()
        assert main(["ari", "--config", str(config)]) == 1
        assert "run detect first" in capsys.readouterr().err

    def test_rerun_with_identical_partitions_keeps_downstream_outputs(self, workspace):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        first = tree_bytes(tmp_path / "out")
        assert main(["detect", "--config", str(config)]) == 0
        assert tree_bytes(tmp_path / "out") == first
        assert main(["detect", "--config", str(config), "--runs", "3"]) == 0
        assert not (tmp_path / "out" / "ari.csv").exists()
        assert not (tmp_path / "out" / "links.csv").exists()

    def test_bad_period_label_fails_before_any_optimizer_run(
        self, tmp_path, monkeypatch, capsys
    ):
        import bicomet.cli as cli_mod

        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\nb2,f2\n")
        (tmp_path / "manifest.csv").write_text("period,edges\np00,e.csv\np01/x,e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text(
            "[pipeline]\nmanifest = manifest.csv\noutput_dir = out\nruns = 2\n"
            "restarts_per_run = 1\n"
        )
        calls = []
        multirun = cli_mod.brim.brim_multirun

        def counted(*args, **kwargs):
            calls.append(args)
            return multirun(*args, **kwargs)

        monkeypatch.setattr(cli_mod.brim, "brim_multirun", counted)
        assert main(["detect", "--config", str(config)]) == 1
        assert "'p01/x' is not usable as a directory name" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_label_too_long_for_a_directory_fails_before_any_optimizer_run(
        self, tmp_path, monkeypatch, capsys
    ):
        import bicomet.cli as cli_mod

        monkeypatch.chdir(tmp_path)
        label = "p01" + "x" * 297
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\nb2,f2\n")
        (tmp_path / "manifest.csv").write_text(f"period,edges\np00,e.csv\n{label},e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text(
            "[pipeline]\nmanifest = manifest.csv\noutput_dir = out\nruns = 2\n"
            "restarts_per_run = 1\n"
        )
        calls = []
        monkeypatch.setattr(cli_mod.brim, "brim_multirun", lambda *a, **k: calls.append(a))
        assert main(["detect", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(Path("out", ".partitions.tmp", label)) in err
        assert calls == []
        assert list((tmp_path / "out").iterdir()) == []

    def test_missing_manifest_is_input_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, manifest="missing/nowhere.csv")
        assert main(["detect", "--config", str(config)]) == 1


class TestAriCommand:
    def test_report(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["ari", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "ari.csv").read_text().splitlines()
        assert lines[0] == "period,mean_ari,std_ari,pairs"
        for line in lines[1:]:
            period, mean, std, pairs = line.split(",")
            assert pairs == "6"  # C(4,2) pairs from 4 runs
            assert -1.0 <= float(mean) <= 1.0

    def test_requires_detect_first(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path)
        assert main(["ari", "--config", str(config)]) == 1

    def test_single_run_rejected(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config), "--runs", "1"]) == 0
        assert main(["ari", "--config", str(config)]) == 1

    def test_runs_left_by_an_earlier_detect_are_ignored(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config), "--runs", "6"]) == 0
        assert main(["detect", "--config", str(config), "--runs", "3"]) == 0
        runs = tmp_path / "out" / "partitions" / "p00" / "runs.csv"
        assert runs.read_text().splitlines()[0] == "node_id,side,run_000,run_001,run_002"
        assert main(["ari", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "ari.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[3] == "3" for line in lines[1:])

    def test_detect_replaces_partitions_of_an_earlier_detect(self, workspace):
        tmp_path, config = workspace
        manifest = tmp_path / "data" / "manifest.csv"
        two_periods = tmp_path / "data" / "manifest_2.csv"
        two_periods.write_text("".join(manifest.read_text().splitlines(True)[:3]))
        assert main(["detect", "--config", str(config), "--runs", "6"]) == 0
        second = ["--manifest", str(two_periods), "--runs", "3"]
        assert main(["detect", "--config", str(config), *second]) == 0
        partitions = tmp_path / "out" / "partitions"
        listed = sorted(p.relative_to(partitions).as_posix() for p in partitions.rglob("*"))
        assert listed == [
            f"{period}{name}"
            for period in ("p00", "p01")
            for name in ("", "/best.csv", "/runs.csv")
        ]
        fresh = ["--output-dir", str(tmp_path / "fresh")]
        assert main(["detect", "--config", str(config), *second, *fresh]) == 0
        assert tree_bytes(tmp_path / "out") == tree_bytes(tmp_path / "fresh")

    def test_run_named_in_summary_but_missing_rejected(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        runs = tmp_path / "out" / "partitions" / "p01" / "runs.csv"
        # the table without its last column, run_003
        lines = runs.read_text().splitlines()
        runs.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
        capsys.readouterr()
        assert main(["ari", "--config", str(config)]) == 1
        assert "p01/runs.csv:2: expected 6 fields, got 5" in capsys.readouterr().err

    def test_malformed_summary_rejected(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        (tmp_path / "out" / "run_summary.json").write_text('{"p00": {"best_run_id": 0}}')
        assert main(["ari", "--config", str(config)]) == 1
        assert "run_summary.json" in capsys.readouterr().err


class TestTrackCommand:
    def test_outputs(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["track", "--config", str(config)]) == 0
        out = tmp_path / "out"
        links = (out / "links.csv").read_text().splitlines()
        assert links[0] == "period_t,comm_i,period_t1,comm_j,overlap,p_value,validated"
        assert (out / "evolution.dot").read_text().startswith("digraph")
        payload = json.loads((out / "evolution.json").read_text())
        assert payload["edges"]

    def test_dot_escapes_quotes_in_period_labels(self, workspace):
        tmp_path, config = workspace
        manifest = tmp_path / "data" / "manifest.csv"
        # labels p"00, p"01, ... as the csv module quotes them
        manifest.write_text(re.sub(r"(?m)^p(\d+),", r'"p""\1",', manifest.read_text()))
        assert main(["pipeline", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "evolution.dot").read_text().splitlines()
        string = r'"(?:[^"\\]|\\.)*"'
        declared, ends = set(), []
        for line in lines:
            assert len(re.findall(r'(?<!\\)"', line)) % 2 == 0, line
            if node := re.fullmatch(rf"  ({string}) \[label=\1, .*\];", line):
                declared.add(node[1])
            elif edge := re.fullmatch(rf"  ({string}) -> ({string}) \[.*\];", line):
                ends += edge.groups()
        assert '"0_p\\"00"' in declared
        assert ends and set(ends) <= declared

    def test_roots_flag(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main([
            "track", "--config", str(config),
            "--roots", "p00:0", "--direction-filter", "forward_only",
        ]) == 0
        payload = json.loads((tmp_path / "out" / "evolution.json").read_text())
        assert all(n["period"].startswith("p") for n in payload["nodes"])

    def test_undetected_root_fails_before_any_write(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        before = tree_bytes(tmp_path / "out")
        assert main(["track", "--config", str(config), "--roots", "p01:99"]) == 1
        err = capsys.readouterr().err
        assert "bad roots 'p01:99': root community 99 not present in period 'p01'" in err
        assert tree_bytes(tmp_path / "out") == before

    def test_links_are_tested_once(self, workspace, monkeypatch):
        import bicomet.tracker as tracker_mod

        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        calls = []
        track_sequence = tracker_mod.track_sequence

        def counted(*args, **kwargs):
            calls.append(args)
            return track_sequence(*args, **kwargs)

        monkeypatch.setattr(tracker_mod, "track_sequence", counted)
        assert main(["track", "--config", str(config)]) == 0
        assert len(calls) == 1

    def test_period_directory_left_by_an_earlier_detect_is_ignored(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        partitions = tmp_path / "out" / "partitions"
        (partitions / "p99").mkdir()
        (partitions / "p99" / "best.csv").write_bytes(
            (partitions / "p02" / "best.csv").read_bytes()
        )
        assert main(["track", "--config", str(config)]) == 0
        assert "p99" not in (tmp_path / "out" / "links.csv").read_text()


class TestEnrichCommand:
    def test_planted_value_reported(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["enrich", "--config", str(config)]) == 0
        report = (tmp_path / "out" / "enrichment_report.csv").read_text()
        assert report.splitlines()[0] == "period,community,n_red,n_blue,bank_type,sector"
        assert "EE" in report
        assert "--" in report

    def test_missing_catalog_is_input_error(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["enrich", "--config", str(config), "--attributes", "nope.csv"]) == 1

    def test_report_column_as_category_exits_one_and_writes_nothing(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        before = tree_bytes(tmp_path / "out")
        catalog = tmp_path / "community.csv"
        catalog.write_text("f0,sector,AA\nf1,community,BB\n")
        assert main(["enrich", "--config", str(config), "--attributes", str(catalog)]) == 1
        err = capsys.readouterr().err
        assert f"{catalog}:2: category 'community' names a column of the report" in err
        assert tree_bytes(tmp_path / "out") == before


class TestPipeline:
    def test_end_to_end_and_determinism(self, workspace):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for name in [
            "run_summary.json",
            "community_counts.csv",
            "ari.csv",
            "links.csv",
            "evolution.dot",
            "evolution.json",
            "enrichment_records.csv",
            "enrichment_report.csv",
        ]:
            assert (out / name).exists(), name
        first = tree_bytes(out)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert tree_bytes(out) == first

    def test_best_partitions_are_read_once(self, workspace, monkeypatch):
        import bicomet.cli as cli_mod

        tmp_path, config = workspace
        reads = []
        read_partition_csv = cli_mod.brim.read_partition_csv

        def counted(path, width):
            reads.append(Path(path).name)
            return read_partition_csv(path, width)

        monkeypatch.setattr(cli_mod.brim, "read_partition_csv", counted)
        assert main(["pipeline", "--config", str(config)]) == 0
        assert reads == []

    def test_pipeline_equals_separate_commands(self, workspace):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        separate = ["--config", str(config), "--output-dir", str(tmp_path / "separate")]
        for command in ("detect", "ari", "track", "enrich"):
            assert main([command, *separate]) == 0
        piped = tree_bytes(tmp_path / "out")
        assert {"ari.csv", "links.csv", "enrichment_records.csv"} <= set(piped)
        assert tree_bytes(tmp_path / "separate") == piped

    @pytest.mark.parametrize("periods", [3, 1])
    def test_rerun_removes_stale_downstream_outputs(self, workspace, periods):
        tmp_path, config = workspace
        manifest = tmp_path / "data" / "manifest.csv"
        second_manifest = tmp_path / "data" / "manifest_second.csv"
        second_manifest.write_text(
            "".join(manifest.read_text().splitlines(True)[: periods + 1])
        )
        assert main(["pipeline", "--config", str(config), "--runs", "3"]) == 0
        out = tmp_path / "out"
        stale = [
            "ari.csv",
            "links.csv",
            "evolution.dot",
            "evolution.json",
            "enrichment_records.csv",
            "enrichment_report.csv",
        ]
        assert all((out / name).exists() for name in stale)
        second = [
            "--manifest", str(second_manifest), "--runs", "1", "--seed", "9",
            "--attributes", "",
        ]
        assert main(["pipeline", "--config", str(config), *second]) == 0
        absent = ["ari.csv", "enrichment_records.csv", "enrichment_report.csv"]
        if periods == 1:
            absent = stale
        for name in absent:
            assert not (out / name).exists(), name
        fresh = ["--output-dir", str(tmp_path / "fresh")]
        assert main(["pipeline", "--config", str(config), *second, *fresh]) == 0
        assert tree_bytes(out) == tree_bytes(tmp_path / "fresh")

    def test_ari_and_enrich_log_one_summary_line(self, workspace, caplog):
        tmp_path, config = workspace
        caplog.set_level(logging.INFO, logger="bicomet.cli")
        assert main(["pipeline", "--config", str(config)]) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "bicomet.cli"]
        out = tmp_path / "out"

        ari_rows = (out / "ari.csv").read_text().splitlines()[1:]
        expected = [
            f"ari {period}: mean ARI={float(mean):.6f} over {pairs} pairs"
            for period, mean, _, pairs in (row.split(",") for row in ari_rows)
        ]
        assert [m for m in messages if m.startswith("ari ")] == expected

        records = [
            row.split(",")
            for row in (out / "enrichment_records.csv").read_text().splitlines()[1:]
        ]
        per_period = {}
        for row in records:
            per_period[row[0]] = per_period.get(row[0], 0) + 1
        thresholds = [0.01 / count for count in per_period.values()]
        validated = sum(1 for row in records if row[-1] == "true")
        assert [m for m in messages if m.startswith("enrich:")] == [
            f"enrich: {validated} of {len(records)} tests validated "
            f"(p_B from {min(thresholds):.3e} to {max(thresholds):.3e} over 3 periods)"
        ]

        logged = tree_bytes(out)
        caplog.clear()
        caplog.set_level(logging.WARNING, logger="bicomet.cli")
        quiet = ["--output-dir", str(tmp_path / "quiet")]
        assert main(["pipeline", "--config", str(config), *quiet]) == 0
        assert not caplog.records
        assert tree_bytes(tmp_path / "quiet") == logged

    def test_summary_lines_go_to_stderr_only(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        before = tree_bytes(tmp_path / "out")
        src = Path(bicomet.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        for command, prefix in (("ari", "ari p00:"), ("enrich", "enrich:")):
            done = subprocess.run(
                [sys.executable, "-c", RUN_MAIN, command, "--config", str(config)],
                capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
            )
            assert done.stdout == ""
            assert f"INFO bicomet.cli: {prefix}" in done.stderr
        assert main(["ari", "--config", str(config)]) == 0
        assert main(["enrich", "--config", str(config)]) == 0
        after = tree_bytes(tmp_path / "out")
        assert set(after) - set(before) == {
            "ari.csv", "enrichment_records.csv", "enrichment_report.csv"
        }

    def test_parallel_workers_identical(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        serial = tree_bytes(tmp_path / "out")
        assert main(["detect", "--config", str(config), "--workers", "3"]) == 0
        assert tree_bytes(tmp_path / "out") == serial


class TestOneWriterPerDirectory:
    """A command run while another process holds its output directory's
    lock exits 1 and leaves the directory as it was."""

    @staticmethod
    def hold(path: Path) -> int:
        # an flock on another descriptor conflicts even within one process
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fd

    def test_second_writer_exits_1_and_writes_nothing(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        commands = ("detect", "ari", "track", "enrich", "pipeline")
        runs = [(tmp_path / "out", command) for command in commands]
        runs.append((tmp_path / "data", "synth"))
        for directory, command in runs:
            before = tree_bytes(directory), sorted(os.listdir(directory))
            capsys.readouterr()
            fd = self.hold(directory)
            try:
                assert main([command, "--config", str(config)]) == 1, command
            finally:
                os.close(fd)
            err = capsys.readouterr().err
            assert f"output directory {directory.name} is in use by another bicomet process" in err
            assert (tree_bytes(directory), sorted(os.listdir(directory))) == before, command
        # pipeline's stages run under the lock its detect took, and main
        # releases it on return
        assert main(["pipeline", "--config", str(config)]) == 0
        os.close(self.hold(tmp_path / "out"))


class TestStandaloneWrites:
    """ari, track and enrich replace their outputs whole: a write that fails
    partway leaves every output as it was, and no temporary file."""

    @pytest.mark.parametrize(
        "command, module, name, path_arg",
        [
            ("ari", "table", "write_rows", 0),
            ("track", "tracker", "write_link_table", 1),
            ("track", "pathlib", "write_text", 0),  # evolution.dot, after links.csv
            ("enrich", "enrichment", "write_enrichment_records", 1),
            ("enrich", "enrichment", "write_enrichment_report", 1),
        ],
    )
    def test_failed_write_leaves_the_previous_outputs(
        self, workspace, monkeypatch, capsys, command, module, name, path_arg
    ):
        import importlib

        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        before = tree_bytes(tmp_path / "out")
        owner = importlib.import_module(f"bicomet.{module}") if module != "pathlib" else Path
        real = getattr(owner, name)

        def partway(*args, **kwargs):
            real(*args, **kwargs)
            path = Path(args[path_arg])
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(owner, name, partway)
        # another threshold, so that a replaced output would differ
        extra = [] if command == "ari" else ["--p-t", "0.5"]
        capsys.readouterr()
        assert main([command, "--config", str(config), *extra]) == 1
        assert "disk full" in capsys.readouterr().err
        assert tree_bytes(tmp_path / "out") == before
        monkeypatch.setattr(owner, name, real)
        assert main([command, "--config", str(config), *extra]) == 0
        if command != "ari":
            assert tree_bytes(tmp_path / "out") != before

    @pytest.mark.parametrize(
        "command, names",
        [
            ("enrich", ["enrichment_records.csv", "enrichment_report.csv"]),
            ("track", ["links.csv", "evolution.dot", "evolution.json"]),
        ],
    )
    def test_failed_rename_after_the_first_leaves_none_of_the_set(
        self, workspace, monkeypatch, capsys, command, names
    ):
        # one output renamed into place beside the others of the last run
        # would describe two runs at once
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        before = tree_bytes(out)
        assert set(names) <= set(before)
        real, renamed = os.replace, []

        def second_fails(src, dst):
            if renamed:
                raise OSError("disk full")
            real(src, dst)
            renamed.append(dst)

        monkeypatch.setattr(os, "replace", second_fails)
        capsys.readouterr()
        assert main([command, "--config", str(config), "--p-t", "0.5"]) == 1
        assert "disk full" in capsys.readouterr().err
        after = tree_bytes(out)
        assert after == {path: data for path, data in before.items() if path not in names}


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative path and the SHA-256 of every file under root."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


class TestBytePin:
    # DATA and OUT were recorded when synth came to draw each period's edges
    # by geometric skips; any writer, reader or sampler change that alters
    # a byte of the dataset or the outputs fails
    DATA = "462176f646d93aaa3ff3e12d24402e428bae02914e90148a9eef0468b7e159b5"
    OUT = "f99c8034f2a5f26a0ae8bf81d0a7194707e6f14e8662f76cc1ed65055bed8da7"

    def test_synth_and_pipeline_bytes_are_pinned(self, workspace):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        assert tree_digest(tmp_path / "data") == self.DATA
        assert tree_digest(tmp_path / "out") == self.OUT


class TestLineageRecovery:
    def test_detect_then_track_recovers_planted_lineage(self, tmp_path, monkeypatch):
        # well-separated model: detected communities match the planted ones
        # exactly, so validated links must equal the true lineage
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.ini"
        config.write_text(
            "\n".join(
                [
                    "[pipeline]",
                    "manifest = data/manifest.csv",
                    "output_dir = out",
                    "runs = 4",
                    "restarts_per_run = 8",
                    "master_seed = 5",
                    "",
                    "[synth]",
                    "output_dir = data",
                    "seed = 5",
                    "periods = 3",
                    "p_in = 0.8",
                    "p_out = 0.005",
                    "communities = 10x20,10x20,10x20",
                    "",
                ]
            )
        )
        assert main(["synth", "--config", str(config)]) == 0
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["track", "--config", str(config)]) == 0

        import bicomet as bc
        from bicomet.brim import read_partition_csv
        from bicomet.tracker import read_link_table

        model = bc.PlantedModel(
            communities=((10, 20),) * 3, p_in=0.8, p_out=0.005, seed=5
        )
        series, truths, lineage = bc.generate_sequence(
            model, bc.TemporalScript(periods=3)
        )
        label_maps = {}
        for (period, _), truth in zip(series, truths):
            found, = read_partition_csv(tmp_path / "out" / "partitions" / period / "best.csv", 1)
            assert bc.adjusted_rand_index(found, truth) == 1.0
            # each truth community maps to the found community holding most of it
            truth_labels, found_labels = truth.shared_labels(found)
            c = found.n_communities
            cells = np.bincount(
                truth_labels * c + found_labels, minlength=truth.n_communities * c
            )
            label_maps[period] = dict(enumerate(cells.reshape(-1, c).argmax(axis=1).tolist()))

        expected = {
            (
                e.period_from,
                label_maps[e.period_from][e.community_from],
                e.period_to,
                label_maps[e.period_to][e.community_to],
            )
            for e in lineage
        }
        links = read_link_table(tmp_path / "out" / "links.csv")
        validated = {
            (l.period_from, l.community_from, l.period_to, l.community_to)
            for l in links
            if l.validated
        }
        assert validated == expected


class TestProtocolDefaults:
    def test_config_defaults_match_standard_protocol(self):
        from bicomet.cli import PipelineConfig
        from bicomet.enrichment import EnrichmentConfig
        from bicomet.tracker import TrackerConfig

        cfg = PipelineConfig()
        assert cfg.runs == 20
        assert cfg.restarts_per_run == 100
        assert cfg.p_t == 0.01
        assert cfg.population_rule == "union"
        assert TrackerConfig().p_univariate == 0.01
        assert EnrichmentConfig().p_univariate == 0.01


class TestErrorHandling:
    def test_unknown_config_key_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "bad.ini"
        config.write_text("[pipeline]\nmanifest = x.csv\nbogus_key = 1\n")
        assert main(["detect", "--config", str(config)]) == 1

    def test_missing_config_file_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["detect", "--config", "does_not_exist.ini"]) == 1

    def test_bad_roots_rejected(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main(["track", "--config", str(config), "--roots", "banana"]) == 1

    def test_usage_errors_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["detect", "--bogus-flag"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_path_escaping_period_label_rejected(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("period,edges\n../evil,e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text(
            f"[pipeline]\nmanifest = {manifest}\noutput_dir = out\nruns = 1\n"
            "restarts_per_run = 1\n"
        )
        assert main(["detect", "--config", str(config)]) == 1
        assert not (tmp_path / "evil").exists()

    def test_internal_failure_exits_two(self, workspace, monkeypatch):
        tmp_path, config = workspace
        import bicomet.cli as cli_mod

        def explode(*args, **kwargs):
            raise RuntimeError("invariant violated")

        monkeypatch.setattr(cli_mod.brim, "brim_multirun", explode)
        assert main(["detect", "--config", str(config)]) == 2

    def test_readers_leave_a_missing_output_dir_uncreated(self, workspace, capsys):
        tmp_path, config = workspace
        for command in ("ari", "track", "enrich"):
            assert main([command, "--config", str(config), "--output-dir", "typo_dir"]) == 1
            assert "cannot read typo_dir/run_summary.json" in capsys.readouterr().err
            assert not (tmp_path / "typo_dir").exists()

    def test_invalid_utf8_edge_file_exits_one_at_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_bytes(b"a,b\nc,\xff\n")
        (tmp_path / "manifest.csv").write_text("period,edges\np0,e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text("[pipeline]\nmanifest = manifest.csv\noutput_dir = out\n")
        assert main(["detect", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "e.csv:2: not utf-8" in err

    def test_oversized_quoted_cell_exits_one_at_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text('a,b\nc,d\n"' + "x" * 140_000 + '",e\n')
        (tmp_path / "manifest.csv").write_text("period,edges\np0,e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text("[pipeline]\nmanifest = manifest.csv\noutput_dir = out\n")
        assert main(["detect", "--config", str(config)]) == 1
        assert "e.csv:3: field larger than field limit" in capsys.readouterr().err

    def test_oversized_plain_cell_exits_one_at_its_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("a,b\nc,d\n" + "x" * 140_000 + ",e\n")
        (tmp_path / "manifest.csv").write_text("period,edges\np0,e.csv\n")
        config = tmp_path / "cfg.ini"
        config.write_text("[pipeline]\nmanifest = manifest.csv\noutput_dir = out\n")
        assert main(["detect", "--config", str(config)]) == 1
        assert "e.csv:3: field larger than field limit" in capsys.readouterr().err

    def test_invalid_utf8_partition_file_exits_one_at_its_line(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        run = tmp_path / "out" / "partitions" / "p01" / "runs.csv"
        lines = run.read_bytes().split(b"\n")
        lines[4] = lines[4].replace(b"red", b"r\xe9d")
        run.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["ari", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "p01/runs.csv:5: not utf-8" in err

    def test_nul_in_a_manifest_file_name_exits_one_at_its_line(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\n")
        for row in ("p01,e\0.csv", "p01,e.csv,n\0.csv"):
            (tmp_path / "manifest.csv").write_text(f"period,edges\np00,e.csv\n{row}\n")
            argv = ["detect", "--manifest", "manifest.csv", "--output-dir", "out"]
            assert main(argv) == 1
            assert "manifest.csv:3: file name holds a NUL byte" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("p01,missing.csv", "manifest.csv:3: no file 'missing.csv'"),
            ("p01,", "manifest.csv:3: no file '.'"),
            ("p01,e.csv,missing.csv", "manifest.csv:3: no file 'missing.csv'"),
            ("p01,empty.csv,n.csv", "manifest.csv:3: empty.csv holds no edge"),
        ],
    )
    def test_manifest_row_without_a_usable_edge_file_names_its_line(
        self, tmp_path, monkeypatch, capsys, row, message
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\n")
        (tmp_path / "empty.csv").write_text("")
        (tmp_path / "n.csv").write_text("b1,red\nf1,blue\n")
        (tmp_path / "manifest.csv").write_text(f"period,edges\np00,e.csv\n{row}\n")
        assert main(["detect", "--manifest", "manifest.csv", "--output-dir", "out"]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_manifest_names_the_key(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config), "--manifest", "nowhere.csv"]) == 1
        assert "bad manifest 'nowhere.csv': no such file" in capsys.readouterr().err

    def test_unknown_key_names_the_config_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.ini").write_text("[pipeline]\nrusn = 3\n")
        assert main(["detect", "--config", "c.ini"]) == 1
        assert "unknown key(s) in [pipeline] of c.ini: rusn" in capsys.readouterr().err

    def test_analysis_faults_name_the_partition_table(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        partitions = tmp_path / "out" / "partitions"
        # one node per run: agreement needs two
        (partitions / "p01" / "runs.csv").write_text("r0,red,0,0,0,0\n")
        capsys.readouterr()
        assert main(["ari", "--config", str(config)]) == 1
        assert (
            "p01/runs.csv: adjusted Rand index needs at least 2 shared nodes"
            in capsys.readouterr().err
        )
        # no node of the catalog in the best partition
        (partitions / "p02" / "best.csv").write_text("x0,red,0\n")
        assert main(["enrich", "--config", str(config)]) == 1
        assert (
            "p02/best.csv against catalog data/attributes.csv: category 'bank_type' "
            "applies to no node of the partition" in capsys.readouterr().err
        )

    def test_nul_in_a_period_label_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "e.csv").write_text("b1,f1\nb2,f1\n")
        (tmp_path / "manifest.csv").write_text("period,edges\np\0,e.csv\n")
        assert main(["detect", "--manifest", "manifest.csv", "--output-dir", "out"]) == 1
        assert "period label 'p\\x00' is not usable" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, key, flag",
        [
            ("detect", "output_dir", "--output-dir"),
            ("detect", "manifest", "--manifest"),
            ("enrich", "attributes", "--attributes"),
            ("pipeline", "attributes", "--attributes"),
            ("synth", "output_dir", "--output-dir"),
        ],
    )
    def test_nul_in_a_path_key_exits_one_naming_the_key(
        self, workspace, capsys, command, key, flag
    ):
        tmp_path, config = workspace
        assert main(["pipeline", "--config", str(config)]) == 0
        before = tree_bytes(tmp_path)
        capsys.readouterr()
        assert main([command, "--config", str(config), flag, "x\0y"]) == 1
        assert f"bad {key} 'x\\x00y': holds a NUL byte" in capsys.readouterr().err
        # the same value read from the config file
        lines = config.read_text().splitlines(True)
        start = lines.index("[synth]\n" if command == "synth" else "[pipeline]\n")
        at = next(i for i in range(start, len(lines)) if lines[i].startswith(f"{key} = "))
        lines[at] = f"{key} = x\0y\n"
        nul = tmp_path / "nul.ini"
        nul.write_text("".join(lines))
        assert main([command, "--config", str(nul)]) == 1
        assert f"bad {key} 'x\\x00y'" in capsys.readouterr().err
        nul.unlink()
        assert tree_bytes(tmp_path) == before

    def test_nul_in_the_config_path_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["detect", "--config", "c\0.ini"]) == 1
        assert "config file 'c\\x00.ini' holds a NUL byte" in capsys.readouterr().err

    def test_output_io_failure_exits_one(self, workspace, capsys):
        tmp_path, config = workspace
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert main(["detect", "--config", str(config), "--output-dir", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not_a_dir" in err


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small synthetic dataset, with a catalog, for configs that point at it."""
    root = tmp_path_factory.mktemp("dataset")
    config = root / "synth.ini"
    config.write_text(
        f"[synth]\noutput_dir = {root / 'data'}\nseed = 3\nperiods = 3\n"
        "communities = 4x8,4x8\ncategories = sector:blue:AA|BB\n"
    )
    assert main(["synth", "--config", str(config)]) == 0
    return root / "data"


def write_section(tmp_path, dataset, command, **values):
    """config.ini with one valid section for ``command``, updated by ``values``."""
    if command == "synth":
        section = {"output_dir": "ds", "periods": "3", "communities": "4x8,4x8"}
    else:
        section = {
            "manifest": dataset / "manifest.csv",
            "output_dir": "out",
            "runs": "2",
            "restarts_per_run": "1",
            "attributes": dataset / "attributes.csv",
        }
    section.update(values)
    path = tmp_path / "config.ini"
    name = "synth" if command == "synth" else "pipeline"
    path.write_text(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in section.items()))
    return path


class TestMalformedConfig:
    """A malformed value exits 1 when the config is loaded, with a message
    naming its key and entry, before any file is written."""

    def assert_rejected(self, tmp_path, capsys, argv, *named):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        for text in named:
            assert text in err
        # no output_dir, no .partitions.tmp and no dataset directory
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]

    @pytest.mark.parametrize("command", ["synth", "detect", "pipeline"])
    def test_the_valid_sections_write(self, tmp_path, monkeypatch, dataset, command):
        monkeypatch.chdir(tmp_path)
        config = write_section(tmp_path, dataset, command)
        assert main([command, "--config", str(config)]) == 0
        assert (tmp_path / ("ds" if command == "synth" else "out")).is_dir()

    @pytest.mark.parametrize(
        "command, key, value, entry",
        [
            ("detect", "module_count_schedule", "0", "'0'"),
            ("detect", "module_count_schedule", "3,-1", "'-1'"),
            ("detect", "module_count_schedule", "4,x", "'x'"),
            # above a period's node count: refused before its counts array is made
            ("detect", "module_count_schedule", "3,1000000000000",
             "count 1000000000000: above the 24 nodes of period 'p00'"),
            ("pipeline", "module_count_schedule", "4,x", "'x'"),
            ("pipeline", "roots", "p00", "'p00'"),
            ("pipeline", "roots", "p00:x", "'p00:x'"),
            ("pipeline", "master_seed", "-1", "-1"),
            ("pipeline", "p_t", "2", "2.0"),
            ("pipeline", "population_rule", "x", "'x'"),
            ("pipeline", "population_rule", "Union", "'Union'"),
            ("pipeline", "direction_filter", "x", "'x'"),
            ("pipeline", "direction_filter", "FORWARD_ONLY", "'FORWARD_ONLY'"),
            ("pipeline", "population_scope", "x", "'x'"),
            ("pipeline", "attributes", "missing.csv", "'missing.csv'"),
            ("synth", "splits", "x:1", "'x:1'"),
            ("synth", "merges", "a:1:2", "'a:1:2'"),
            ("synth", "plants", "a:b:c:0.5", "'a:b:c:0.5'"),
            ("synth", "plants", "a:b:0:zz", "'a:b:0:zz'"),
            ("synth", "communities", "5x", "'5x'"),
            ("synth", "communities", ",", "bad communities ',': no entries, expected REDxBLUE"),
            ("synth", "splits", "1:0:1.5",
             "bad splits entry '1:0:1.5': split fraction must be in (0, 1), got 1.5"),
            ("synth", "categories", "region:red:R0|R1;region:blue:B0|B1",
             "category 'region' planned twice"),
            ("synth", "categories", "sector:blue:A|B;n_blue:blue:C",
             "category 'n_blue' names a column of the report"),
            ("synth", "seed", "-1", "-1"),
        ],
    )
    def test_value(
        self, tmp_path, monkeypatch, capsys, dataset, command, key, value, entry
    ):
        monkeypatch.chdir(tmp_path)
        config = write_section(tmp_path, dataset, command, **{key: value})
        self.assert_rejected(tmp_path, capsys, [command, "--config", str(config)], key, entry)

    @pytest.mark.parametrize(
        "command, flag, value, key, entry",
        [
            ("detect", "--module-counts", "0", "module_count_schedule", "'0'"),
            ("detect", "--module-counts", "1000000000000", "module_count_schedule",
             "count 1000000000000: above the 24 nodes of period 'p00'"),
            ("detect", "--restarts", "0", "restarts_per_run", "0"),
            ("detect", "--seed", "-1", "master_seed", "-1"),
            ("pipeline", "--roots", "p00", "roots", "'p00'"),
            ("track", "--p-t", "2", "p_t", "2.0"),
            ("synth", "--seed", "-1", "seed", "-1"),
            ("synth", "--periods", "0", "periods", "0"),
        ],
    )
    def test_flag_overrides_its_key(
        self, tmp_path, monkeypatch, capsys, dataset, command, flag, value, key, entry
    ):
        monkeypatch.chdir(tmp_path)
        config = write_section(tmp_path, dataset, command)
        argv = [command, "--config", str(config), flag, value]
        self.assert_rejected(tmp_path, capsys, argv, key, entry)

    def test_config_file_that_is_not_utf8(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.ini"
        config.write_bytes(b"[pipeline]\nmanifest = m\xff.csv\n")
        argv = ["detect", "--config", str(config)]
        self.assert_rejected(tmp_path, capsys, argv, str(config), "not utf-8")

    def test_plant_without_categories(self, tmp_path, monkeypatch, capsys, dataset):
        monkeypatch.chdir(tmp_path)
        config = write_section(tmp_path, dataset, "synth", plants="sector:SX:0:0.5")
        argv = ["synth", "--config", str(config)]
        self.assert_rejected(tmp_path, capsys, argv, "unknown category 'sector'")


class TestCheckedBeforeWork:
    """Values that can be checked against what is already known are checked
    before the costly step or the first write they would waste."""

    @pytest.mark.parametrize(
        "plants, message",
        [
            ("industry:SX:0:0.5", "plant references unknown category 'industry'"),
            ("sector:AA:2:0.5", "plant references missing community 2"),
        ],
    )
    def test_plants_are_checked_before_the_edge_draw(
        self, tmp_path, monkeypatch, capsys, dataset, plants, message
    ):
        import bicomet.synth as synth_mod

        def no_draw(*args, **kwargs):
            raise AssertionError("generate_sequence ran before the plants were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(synth_mod, "generate_sequence", no_draw)
        config = write_section(
            tmp_path, dataset, "synth", categories="sector:blue:AA|BB", plants=plants
        )
        assert main(["synth", "--config", str(config)]) == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]

    def test_a_plant_on_the_last_community_is_drawn(self, tmp_path, monkeypatch, dataset):
        monkeypatch.chdir(tmp_path)
        config = write_section(
            tmp_path, dataset, "synth", categories="sector:blue:AA|BB", plants="sector:EE:1:1.0"
        )
        assert main(["synth", "--config", str(config)]) == 0
        assert "EE" in (tmp_path / "ds" / "attributes.csv").read_text()

    @pytest.mark.parametrize("split, fraction", [("1:0:0.4", "0.4"), ("1:0", "0.5")])
    def test_a_split_that_moves_no_node_is_named(
        self, tmp_path, monkeypatch, capsys, dataset, split, fraction
    ):
        # round(fraction * 1) is 0 on both sides of a live community
        monkeypatch.chdir(tmp_path)
        config = write_section(
            tmp_path, dataset, "synth", communities="1x1,3x3", periods="2", splits=split
        )
        assert main(["synth", "--config", str(config)]) == 1
        assert (
            f"split at period 1: fraction {fraction} of community 0 (1 red, 1 blue members) "
            "moves no node" in capsys.readouterr().err
        )
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]

    def test_pipeline_checks_roots_before_ari_writes(
        self, tmp_path, monkeypatch, capsys, dataset
    ):
        monkeypatch.chdir(tmp_path)
        config = write_section(tmp_path, dataset, "pipeline", roots="p00:99")
        assert main(["pipeline", "--config", str(config)]) == 1
        assert "root community 99 not present in period 'p00'" in capsys.readouterr().err
        out = tmp_path / "out"
        assert (out / "partitions").is_dir()
        assert not (out / "ari.csv").exists()
        assert not (out / "links.csv").exists()

    def test_pipeline_reads_the_catalog_before_detect(
        self, tmp_path, monkeypatch, capsys, dataset
    ):
        monkeypatch.chdir(tmp_path)
        catalog = tmp_path / "bad.csv"
        catalog.write_text("f0,community,A\n")
        config = write_section(tmp_path, dataset, "pipeline", attributes=catalog)
        assert main(["pipeline", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{catalog}:1: category 'community' names a column of the report" in err
        assert not (tmp_path / "out").exists()
