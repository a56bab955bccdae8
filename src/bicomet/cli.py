"""Command-line pipeline: synth, detect, ari, track, enrich, pipeline.

Configuration is a small INI file ([pipeline] and [synth] sections) whose
keys can be overridden by flags.  Defaults reproduce the standard protocol:
20 independent runs of 100 restarts per period, univariate threshold 0.01,
union population rule.  Every command is deterministic given the
configuration and master seed, byte for byte, serial or parallel.

Exit codes: 0 success, 1 input or I/O error, 2 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import json
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import brim, enrichment, metrics, synth, table, tracker
from .errors import InputError
from .graph import load_period_series
from .seeding import STREAM_DETECT_PERIOD, derive_seed

logger = logging.getLogger(__name__)


@dataclass
class PipelineConfig:
    manifest: str = ""
    output_dir: str = "out"
    runs: int = 20
    restarts_per_run: int = 100
    module_count_schedule: str = ""
    p_t: float = 0.01
    population_rule: str = tracker.POPULATION_UNION
    direction_filter: str = tracker.DIRECTION_ALL
    roots: str = ""
    master_seed: int = 0
    workers: int = 1
    attributes: str = ""
    population_scope: str = enrichment.SCOPE_CARRIERS

    def parsed_schedule(self):
        if not self.module_count_schedule.strip():
            return None
        try:
            return [int(tok) for tok in self.module_count_schedule.split(",") if tok.strip()]
        except ValueError:
            raise InputError(
                f"bad module_count_schedule {self.module_count_schedule!r}"
            ) from None

    def parsed_roots(self):
        text = self.roots.strip()
        if not text:
            return None
        roots = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            period, _, community = token.partition(":")
            if not community:
                raise InputError(f"bad root {token!r}, expected period:community")
            try:
                roots.append((period.strip(), int(community)))
            except ValueError:
                raise InputError(f"bad root community in {token!r}") from None
        if not roots:
            raise InputError(f"no roots parsed from {text!r}")
        return roots


def _load_config(path, section: str, cls):
    values = {}
    if path:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise InputError(f"malformed config file {path}: {exc}") from exc
        if not read:
            raise InputError(f"cannot read config file {path}")
        if parser.has_section(section):
            values = dict(parser.items(section))
    known = {f.name for f in fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise InputError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
        )
    cfg = cls()
    for key, raw in values.items():
        current = getattr(cfg, key)
        try:
            if isinstance(current, bool):
                value = raw.strip().lower() in ("1", "true", "yes", "on")
            elif isinstance(current, int):
                value = int(raw)
            elif isinstance(current, float):
                value = float(raw)
            else:
                value = raw
        except ValueError:
            raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}") from None
        setattr(cfg, key, value)
    return cfg


def _apply_overrides(cfg, args, mapping):
    for attr, flag in mapping.items():
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    return cfg


def _resolve_pipeline_config(args) -> PipelineConfig:
    cfg = _load_config(args.config, "pipeline", PipelineConfig)
    _apply_overrides(
        cfg,
        args,
        {
            "manifest": "manifest",
            "output_dir": "output_dir",
            "runs": "runs",
            "restarts_per_run": "restarts",
            "module_count_schedule": "module_counts",
            "p_t": "p_t",
            "population_rule": "population_rule",
            "direction_filter": "direction_filter",
            "roots": "roots",
            "master_seed": "seed",
            "workers": "workers",
            "attributes": "attributes",
            "population_scope": "population_scope",
        },
    )
    if cfg.runs < 1 or cfg.restarts_per_run < 1:
        raise InputError("runs and restarts_per_run must be >= 1")
    if cfg.workers < 1:
        raise InputError("workers must be >= 1")
    return cfg


def _out_dir(cfg) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _partition_dir(out: Path, period: str) -> Path:
    # period labels become directory names; refuse anything that could
    # escape or nest under the output tree
    if not period or period in (".", "..") or "/" in period or "\\" in period:
        raise InputError(f"period label {period!r} is not usable as a directory name")
    return out / "partitions" / period


def cmd_detect(cfg: PipelineConfig) -> dict:
    """Run the multirun optimizer per period; write partitions and summaries."""
    if not cfg.manifest:
        raise InputError("detect requires a manifest (config key or --manifest)")
    series = load_period_series(cfg.manifest)
    out = _out_dir(cfg)
    schedule = cfg.parsed_schedule()
    summary = {}
    count_rows = []
    for index, (period, graph) in enumerate(series):
        period_seed = derive_seed(cfg.master_seed, STREAM_DETECT_PERIOD, index)
        results = brim.brim_multirun(
            graph,
            runs=cfg.runs,
            restarts_per_run=cfg.restarts_per_run,
            module_count_schedule=schedule,
            master_seed=period_seed,
            workers=cfg.workers if cfg.workers > 1 else None,
        )
        pdir = _partition_dir(out, period)
        pdir.mkdir(parents=True, exist_ok=True)
        for result in results:
            brim.write_partition_csv(
                result.partition, pdir / f"run_{result.run_id:03d}.csv"
            )
        best = brim.best_result(results)
        brim.write_partition_csv(best.partition, pdir / "best.csv")
        summary[period] = {
            "runs": brim.run_summary(results),
            "best_run_id": best.run_id,
            "best_modularity": best.modularity,
        }
        counts = [r.partition.n_communities for r in results]
        mean = float(np.mean(counts))
        std = float(np.std(counts, ddof=1)) if len(counts) > 1 else 0.0
        count_rows.append((period, mean, std, best.partition.n_communities))
        logger.info(
            "detect %s: best Q=%.6f over %d runs", period, best.modularity, len(results)
        )
    with (out / "run_summary.json").open("w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    table.write_rows(
        out / "community_counts.csv",
        ["period", "mean_communities", "std_communities", "best_communities"],
        (
            [period, repr(mean), repr(std), best_count]
            for period, mean, std, best_count in count_rows
        ),
    )
    return summary


def _detected_runs(out: Path) -> dict[str, list[str]]:
    """Run file names per period of the last detect, from run_summary.json.

    Downstream commands read only what this lists, so partitions left over
    from an earlier detect with more runs or other periods are ignored.
    """
    path = out / "run_summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        runs = {
            period: [f"run_{run['run_id']:03d}.csv" for run in entry["runs"]]
            for period, entry in summary.items()
        }
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}; run detect first") from exc
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InputError(f"malformed {path}: {exc!r}") from exc
    if not runs:
        raise InputError(f"{path} lists no periods; run detect first")
    return dict(sorted(runs.items()))


def _load_best_sequence(out: Path):
    return [
        (period, brim.read_partition_csv(_partition_dir(out, period) / "best.csv"))
        for period in _detected_runs(out)
    ]


def cmd_ari(cfg: PipelineConfig) -> list[tuple]:
    """Agreement among the detection runs of each period, over all pairs."""
    out = _out_dir(cfg)
    rows = []
    for period, names in _detected_runs(out).items():
        if len(names) < 2:
            raise InputError(
                f"period {period}: need at least 2 runs for agreement statistics"
            )
        pdir = _partition_dir(out, period)
        partitions = [brim.read_partition_csv(pdir / name) for name in names]
        mean, std, pairs = metrics.all_pairs_ari(partitions)
        rows.append((period, mean, std, pairs))
    table.write_rows(
        out / "ari.csv",
        ["period", "mean_ari", "std_ari", "pairs"],
        ([period, repr(mean), repr(std), pairs] for period, mean, std, pairs in rows),
    )
    return rows


def cmd_track(cfg: PipelineConfig) -> tracker.EvolutionGraph:
    """Validate temporal links between best partitions; export the DAG."""
    out = _out_dir(cfg)
    sequence = _load_best_sequence(out)
    if len(sequence) < 2:
        raise InputError("tracking needs best partitions for at least 2 periods")
    config = tracker.TrackerConfig(
        p_univariate=cfg.p_t,
        population_rule=cfg.population_rule,
        direction_filter=cfg.direction_filter,
    )
    links, threshold = tracker.track_sequence(sequence, config)
    tracker.write_link_table(links, out / "links.csv")
    graph = tracker.build_evolution_graph(sequence, config, roots=cfg.parsed_roots())
    (out / "evolution.dot").write_text(
        tracker.export_evolution(graph, "dot"), encoding="utf-8"
    )
    (out / "evolution.json").write_text(
        tracker.export_evolution(graph, "json"), encoding="utf-8"
    )
    n_validated = sum(1 for link in links if link.validated)
    logger.info(
        "track: %d of %d tested links validated (p_B=%.3e); %d edges in the DAG",
        n_validated,
        len(links),
        threshold,
        len(graph.edges),
    )
    return graph


def cmd_enrich(cfg: PipelineConfig) -> list[dict]:
    """Over-expression tests for every period's best partition."""
    out = _out_dir(cfg)
    if not cfg.attributes:
        raise InputError("enrich requires an attribute catalog (key 'attributes')")
    catalog = enrichment.load_attribute_catalog(cfg.attributes)
    config = enrichment.EnrichmentConfig(
        p_univariate=cfg.p_t, population_scope=cfg.population_scope
    )
    sequence = _load_best_sequence(out)
    all_records = []
    all_rows = []
    for period, partition in sequence:
        records = enrichment.test_overexpression(
            partition, catalog, config, period=period
        )
        all_records.extend(records)
        all_rows.extend(enrichment.community_report(partition, records, period))
    enrichment.write_enrichment_records(all_records, out / "enrichment_records.csv")
    enrichment.write_enrichment_report(all_rows, out / "enrichment_report.csv")
    return all_rows


@dataclass
class SynthConfig:
    output_dir: str = "synth_data"
    seed: int = 0
    periods: int = 1
    churn: float = 0.0
    p_in: float = 0.9
    p_out: float = 0.02
    communities: str = "5x15,5x15,5x15,5x15"
    splits: str = ""
    merges: str = ""
    categories: str = ""
    plants: str = ""


def _parse_communities(text: str):
    sizes = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        red, _, blue = token.partition("x")
        try:
            sizes.append((int(red), int(blue)))
        except ValueError:
            raise InputError(f"bad community size {token!r}, expected REDxBLUE") from None
    if not sizes:
        raise InputError(f"no community sizes parsed from {text!r}")
    return tuple(sizes)


def _parse_events(splits: str, merges: str):
    events = []
    for token in splits.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) not in (2, 3):
            raise InputError(f"bad split {token!r}, expected period:community[:fraction]")
        period, community = int(parts[0]), int(parts[1])
        fraction = float(parts[2]) if len(parts) == 3 else 0.5
        events.append(synth.SplitEvent(period=period, community=community, fraction=fraction))
    for token in merges.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 3:
            raise InputError(f"bad merge {token!r}, expected period:source:target")
        events.append(
            synth.MergeEvent(period=int(parts[0]), source=int(parts[1]), target=int(parts[2]))
        )
    return tuple(events)


def _parse_categories(text: str):
    plans = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 3:
            raise InputError(f"bad category {token!r}, expected name:side:v1|v2|...")
        name, side, pool = parts
        values = tuple(v.strip() for v in pool.split("|") if v.strip())
        plans.append(synth.CategoryPlan(name=name.strip(), side=side.strip(), values=values))
    return tuple(plans)


def _parse_plants(text: str):
    plants = []
    for token in text.split(";"):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        if len(parts) != 4:
            raise InputError(
                f"bad plant {token!r}, expected category:value:community:penetration"
            )
        plants.append(
            synth.AttributePlant(
                category=parts[0].strip(),
                value=parts[1].strip(),
                community=int(parts[2]),
                penetration=float(parts[3]),
            )
        )
    return tuple(plants)


def cmd_synth(args) -> Path:
    """Generate a synthetic dataset (graphs, truth, lineage, attributes)."""
    cfg = _load_config(args.config, "synth", SynthConfig)
    _apply_overrides(
        cfg,
        args,
        {"output_dir": "output_dir", "seed": "seed", "periods": "periods"},
    )
    model = synth.PlantedModel(
        communities=_parse_communities(cfg.communities),
        p_in=cfg.p_in,
        p_out=cfg.p_out,
        seed=cfg.seed,
    )
    plants = _parse_plants(cfg.plants)
    script = synth.TemporalScript(
        periods=cfg.periods,
        churn=cfg.churn,
        events=_parse_events(cfg.splits, cfg.merges),
        plants=plants,
    )
    series, truths, lineage = synth.generate_sequence(model, script)
    plans = _parse_categories(cfg.categories)
    catalog = None
    if plans:
        catalog = synth.generate_catalog(truths[0], plans, seed=cfg.seed, plants=plants)
    manifest = synth.write_synthetic_dataset(
        cfg.output_dir, series, truths, lineage, catalog=catalog
    )
    print(manifest)
    return manifest


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """detect -> ari -> track -> enrich, as configured."""
    cmd_detect(cfg)
    if cfg.runs >= 2:
        cmd_ari(cfg)
    sequence = _load_best_sequence(_out_dir(cfg))
    if len(sequence) >= 2:
        cmd_track(cfg)
    if cfg.attributes:
        cmd_enrich(cfg)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomet",
        description=(
            "Community detection on bipartite period networks, statistical "
            "temporal tracking, and attribute over-expression analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", default="", help="INI config file")
        p.add_argument("--output-dir", dest="output_dir", help="output directory")
        p.add_argument("--seed", type=int, dest="seed", help="master seed")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--periods", type=int, help="number of periods")

    p = sub.add_parser("detect", help="detect communities per period")
    add_common(p)
    p.add_argument("--manifest", help="period manifest CSV")
    p.add_argument("--runs", type=int, help="independent runs per period")
    p.add_argument("--restarts", type=int, help="restarts per run")
    p.add_argument("--module-counts", dest="module_counts", help="initial community counts")
    p.add_argument("--workers", type=int, help="parallel workers for runs")

    p = sub.add_parser("ari", help="pairwise run agreement per period")
    add_common(p)

    p = sub.add_parser("track", help="validate temporal links and export the DAG")
    add_common(p)
    p.add_argument("--p-t", dest="p_t", type=float, help="univariate threshold")
    p.add_argument("--population-rule", dest="population_rule",
                   choices=["union", "intersection"])
    p.add_argument("--direction-filter", dest="direction_filter",
                   choices=["all", "forward_only"])
    p.add_argument("--roots", help="root communities, e.g. 'p00:0,p00:2'")

    p = sub.add_parser("enrich", help="attribute over-expression per community")
    add_common(p)
    p.add_argument("--attributes", help="attribute catalog CSV")
    p.add_argument("--p-t", dest="p_t", type=float, help="univariate threshold")
    p.add_argument("--population-scope", dest="population_scope",
                   choices=["carriers", "side"])

    p = sub.add_parser("pipeline", help="detect, ari, track, enrich in sequence")
    add_common(p)
    p.add_argument("--manifest", help="period manifest CSV")
    p.add_argument("--runs", type=int, help="independent runs per period")
    p.add_argument("--restarts", type=int, help="restarts per run")
    p.add_argument("--workers", type=int, help="parallel workers for runs")
    p.add_argument("--attributes", help="attribute catalog CSV")
    p.add_argument("--roots", help="root communities")

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are input errors here
        return 0 if exc.code == 0 else 1
    try:
        if args.command == "synth":
            cmd_synth(args)
        else:
            cfg = _resolve_pipeline_config(args)
            if args.command == "detect":
                cmd_detect(cfg)
            elif args.command == "ari":
                cmd_ari(cfg)
            elif args.command == "track":
                cmd_track(cfg)
            elif args.command == "enrich":
                cmd_enrich(cfg)
            elif args.command == "pipeline":
                cmd_pipeline(cfg)
        return 0
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary: invariant violations
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
