import json
from pathlib import Path

import pytest

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


class TestDetectCommand:
    def test_outputs(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        out = tmp_path / "out"
        assert (out / "run_summary.json").exists()
        counts = (out / "community_counts.csv").read_text().splitlines()
        assert counts[0] == "period,mean_communities,std_communities,best_communities"
        assert len(counts) == 4
        runs = sorted((out / "partitions" / "p00").glob("run_*.csv"))
        assert len(runs) == 4
        assert (out / "partitions" / "p00" / "best.csv").exists()
        summary = json.loads((out / "run_summary.json").read_text())
        assert set(summary) == {"p00", "p01", "p02"}
        assert len(summary["p00"]["runs"]) == 4

    def test_single_run_reports_zero_std(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config), "--runs", "1"]) == 0
        counts = (tmp_path / "out" / "community_counts.csv").read_text().splitlines()
        assert all(line.split(",")[2] == "0.0" for line in counts[1:])

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
        assert (tmp_path / "out" / "partitions" / "p00" / "run_005.csv").exists()
        assert main(["ari", "--config", str(config)]) == 0
        lines = (tmp_path / "out" / "ari.csv").read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[3] == "3" for line in lines[1:])

    def test_run_named_in_summary_but_missing_rejected(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        (tmp_path / "out" / "partitions" / "p01" / "run_002.csv").unlink()
        assert main(["ari", "--config", str(config)]) == 1
        assert "run_002.csv" in capsys.readouterr().err

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

    def test_roots_flag(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        assert main([
            "track", "--config", str(config),
            "--roots", "p00:0", "--direction-filter", "forward_only",
        ]) == 0
        payload = json.loads((tmp_path / "out" / "evolution.json").read_text())
        assert all(n["period"].startswith("p") for n in payload["nodes"])

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

    def test_parallel_workers_identical(self, workspace):
        tmp_path, config = workspace
        assert main(["detect", "--config", str(config)]) == 0
        serial = tree_bytes(tmp_path / "out")
        assert main(["detect", "--config", str(config), "--workers", "3"]) == 0
        assert tree_bytes(tmp_path / "out") == serial


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
            found = read_partition_csv(tmp_path / "out" / "partitions" / period / "best.csv")
            assert bc.adjusted_rand_index(found, truth) == 1.0
            table = bc.contingency(truth, found)
            mapping = {}
            for i, row in enumerate(table.counts):
                j = max(range(len(row)), key=row.__getitem__)
                mapping[table.row_labels[i]] = table.col_labels[j]
            label_maps[period] = mapping

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

    def test_output_io_failure_exits_one(self, workspace, capsys):
        tmp_path, config = workspace
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("")
        assert main(["detect", "--config", str(config), "--output-dir", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "not_a_dir" in err
