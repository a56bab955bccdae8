"""Command-line pipeline: synth, detect, ari, track, enrich, pipeline.

Configuration is a small INI file ([pipeline] and [synth] sections) whose
keys can be overridden by flags.  Defaults reproduce the standard protocol:
20 independent runs of 100 restarts per period, univariate threshold 0.01,
union population rule.  Every command is deterministic given the
configuration and master seed, byte for byte, serial or parallel.

Exit codes: 0 success, 1 input or I/O error, 2 internal invariant violation.

One process at a time writes an output directory: each command holds an
exclusive ``flock`` on the directory it writes, taken where it makes the
directory, or before it reads one it does not make, and released when
``main`` returns.  A second writer exits 1 and writes nothing.
"""

from __future__ import annotations

import argparse
import configparser
import fcntl
import json
import logging
import os
import shutil
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import brim, enrichment, metrics, stats, synth, table, tracker
from .errors import InputError
from .graph import load_period_series
from .seeding import STREAM_DETECT_PERIOD, derive_seed

logger = logging.getLogger(__name__)

# what ari, track and enrich write from the partitions of the last detect
_DOWNSTREAM_OUTPUTS = ("ari.csv", "links.csv", "evolution.dot", "evolution.json",
                       "enrichment_records.csv", "enrichment_report.csv")


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
        counts = _entries(
            "module_count_schedule", self.module_count_schedule, "count >= 1", _count
        )
        return [count for (count,) in counts] or None

    def parsed_roots(self):
        return _entries("roots", self.roots, "period:community", str, int) or None


def _count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise ValueError(f"count {count} < 1")
    return count


def _entries(key, text, form, *types, sep=",", field_sep=":", optional=0, build=None):
    """The entries of the list-valued config value ``text`` of ``key``.

    Entries are separated by ``sep`` (blank ones are skipped) and the fields
    of an entry by ``field_sep``.  ``types`` convert the fields, of which the
    last ``optional`` may be left out.  An entry is the tuple of its
    converted fields, or ``build`` called on them.  A malformed entry, or a
    value that is not blank but has no entries, raises InputError naming
    ``key``, the entry and its ``form``.
    """
    entries = []
    for entry in text.split(sep):
        entry = entry.strip()
        if not entry:
            continue
        cells = [cell.strip() for cell in entry.split(field_sep)]
        try:
            if not len(types) - optional <= len(cells) <= len(types):
                raise ValueError(f"{len(cells)} fields")
            values = tuple(convert(cell) for convert, cell in zip(types, cells))
            entries.append(build(*values) if build else values)
        except InputError as exc:
            raise InputError(f"bad {key} entry {entry!r}: {exc}") from None
        except ValueError:
            raise InputError(f"bad {key} entry {entry!r}, expected {form}") from None
    if text.strip() and not entries:
        raise InputError(f"bad {key} {text!r}: no entries, expected {form}")
    return entries


def _load_config(path, section: str, cls):
    values = {}
    if path:
        if "\0" in path:
            raise InputError(f"config file {path!r} holds a NUL byte")
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path, encoding="utf-8")
        except configparser.Error as exc:
            raise InputError(f"malformed config file {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"config file {path} is not utf-8: {exc}") from None
        if not read:
            raise InputError(f"cannot read config file {path}")
        if parser.has_section(section):
            values = dict(parser.items(section))
    known = {f.name for f in fields(cls)}
    unknown = set(values) - known
    if unknown:
        raise InputError(
            f"unknown key(s) in [{section}] of {path}: {', '.join(sorted(unknown))}"
        )
    cfg = cls()
    for key, raw in values.items():
        # every field is a str, an int or a float, as its default shows
        try:
            setattr(cfg, key, type(getattr(cfg, key))(raw))
        except ValueError:
            raise InputError(f"bad value for {key!r} in [{section}]: {raw!r}") from None
    return cfg


# the config keys that name a file or directory
_PATH_KEYS = ("manifest", "attributes", "output_dir")


def _configured(args, section: str, cls):
    """The ``section`` config of ``args.config`` with every flag given set
    over its key (the flag's dest names it).  A path-valued key that holds a
    NUL byte, which no file name can, is rejected by name."""
    cfg = _load_config(args.config, section, cls)
    for f in fields(cfg):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    for key in _PATH_KEYS:
        if "\0" in getattr(cfg, key, ""):
            raise InputError(f"bad {key} {getattr(cfg, key)!r}: holds a NUL byte")
    return cfg


def _resolve_pipeline_config(args) -> PipelineConfig:
    """The [pipeline] config with its flags applied and every value checked,
    so that no command fails on a config value after it has started writing."""
    cfg = _configured(args, "pipeline", PipelineConfig)
    for key, low in (("runs", 1), ("restarts_per_run", 1), ("workers", 1), ("master_seed", 0)):
        value = getattr(cfg, key)
        if value < low:
            raise InputError(f"{key} must be >= {low}, got {value}")
    cfg.parsed_schedule()
    cfg.parsed_roots()
    # one key at a time, so that the message names the key at fault; the
    # commands build these configs from the same keys
    for key, check in (
        ("p_t", lambda p: tracker.TrackerConfig(p_univariate=p)),
        ("population_rule", lambda rule: tracker.TrackerConfig(population_rule=rule)),
        ("direction_filter", lambda d: tracker.TrackerConfig(direction_filter=d)),
        ("population_scope", lambda s: enrichment.EnrichmentConfig(population_scope=s)),
    ):
        value = getattr(cfg, key)
        try:
            check(value)
        except InputError as exc:
            raise InputError(f"bad {key} {value!r}: {exc}") from None
    return cfg


# the output directories this process holds the writer lock of, as the open
# descriptor that holds it, by (device, inode): one registry per process,
# since flocks on two descriptors of one directory conflict even within it
_held_dirs: dict[tuple[int, int], int] = {}


def _lock_output_dir(out: Path) -> None:
    """Take the writer lock of the directory ``out``, a non-blocking
    exclusive ``flock`` on its descriptor, unless this process holds it.
    InputError when another process holds it; nothing when ``out`` is no
    directory, since no command writes into one it has not made."""
    try:
        fd = os.open(out, os.O_RDONLY | os.O_DIRECTORY)
    except (FileNotFoundError, NotADirectoryError):
        return
    stat = os.fstat(fd)
    key = stat.st_dev, stat.st_ino
    if key in _held_dirs:
        os.close(fd)
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(fd)
        raise InputError(
            f"output directory {out} is in use by another bicomet process"
        ) from None
    _held_dirs[key] = fd


def _release_output_dirs() -> None:
    while _held_dirs:
        os.close(_held_dirs.popitem()[1])


def _partition_dir(partitions: Path, period: str, listed_in) -> Path:
    # period labels become directory names; refuse anything that could
    # escape or nest under the output tree, or that no file name can hold,
    # naming the file that lists the label
    if not period or period in (".", "..") or any(c in period for c in "/\\\0"):
        raise InputError(
            f"{listed_in}: period label {period!r} is not usable as a directory name"
        )
    return partitions / period


def cmd_detect(cfg: PipelineConfig) -> tuple[list, list]:
    """Run the multirun optimizer per period; write partitions and summaries.

    Returns the (period, run partitions) list and the (period, best
    partition) list, as ``cmd_ari`` and ``cmd_track``/``cmd_enrich`` take them.
    """
    if not cfg.manifest:
        raise InputError("detect requires a manifest (config key or --manifest)")
    if not Path(cfg.manifest).is_file():
        raise InputError(f"bad manifest {cfg.manifest!r}: no such file")
    series = load_period_series(cfg.manifest)
    schedule = cfg.parsed_schedule()
    # brim_multirun refuses such a count too, but only once earlier periods ran
    for period, graph in series:
        nodes = graph.n_red + graph.n_blue
        if schedule and max(schedule) > nodes:
            raise InputError(
                f"bad module_count_schedule count {max(schedule)}: above the "
                f"{nodes} nodes of period {period!r}"
            )
    out = Path(cfg.output_dir)
    # partitions/ is written aside and swapped in whole, so no run column or
    # period directory of an earlier detect survives
    staging = out / ".partitions.tmp"
    # a period label unusable as a directory fails before any optimizer run
    period_dirs = [_partition_dir(staging, period, cfg.manifest) for period in series.labels]
    summary_path = out / "run_summary.json"
    counts_path = out / "community_counts.csv"
    out.mkdir(parents=True, exist_ok=True)
    _lock_output_dir(out)
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    summary = {}
    count_rows = []
    runs = []
    sequence = []
    try:
        for pdir in period_dirs:
            pdir.mkdir()
        for index, ((period, graph), pdir) in enumerate(zip(series, period_dirs)):
            period_seed = derive_seed(cfg.master_seed, STREAM_DETECT_PERIOD, index)
            results = brim.brim_multirun(
                graph,
                runs=cfg.runs,
                restarts_per_run=cfg.restarts_per_run,
                module_count_schedule=schedule,
                master_seed=period_seed,
                workers=cfg.workers,
            )
            brim.write_partition_csv(
                [result.partition for result in results],
                [f"run_{result.run_id:03d}" for result in results],
                pdir / "runs.csv",
            )
            best = brim.best_result(results)
            brim.write_partition_csv([best.partition], ["community"], pdir / "best.csv")
            runs.append((period, [result.partition for result in results]))
            sequence.append((period, best.partition))
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
                "detect %s: best Q=%.6f over %d runs",
                period, best.modularity, len(results),
            )
        # the old summaries go first, and the ari, track and enrich outputs
        # unless the new partitions are byte for byte the old ones, so a
        # failure from here on leaves nothing that describes other partitions
        partitions = out / "partitions"
        stale = [summary_path, counts_path]
        if not partitions.exists() or _tree_bytes(partitions) != _tree_bytes(staging):
            stale += [out / name for name in _DOWNSTREAM_OUTPUTS]
        for path in stale:
            path.unlink(missing_ok=True)
        if partitions.exists():
            shutil.rmtree(partitions)
        staging.rename(partitions)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    _write_replacing({
        counts_path: lambda path: table.write_rows(
            path,
            ["period", "mean_communities", "std_communities", "best_communities"],
            count_rows,
        ),
    })
    # downstream commands read the summary, so it is written last
    _write_replacing({
        summary_path: lambda path: path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        ),
    })
    return runs, sequence


def _tree_bytes(root: Path) -> dict:
    """Bytes of every file under ``root``, by path relative to it."""
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _write_replacing(writes: dict) -> None:
    """Call each ``write`` of ``writes`` (path -> write) on a temporary file
    beside its path, then, once all have succeeded, rename each into place.

    A write that fails, or the first rename, leaves every path as it was; a
    later rename that fails removes every path, so that nothing is left that
    describes another run.  The temporary files are removed whatever happens.
    """
    tmps = {path: path.with_name(f".{path.name}.tmp") for path in writes}
    try:
        for path, write in writes.items():
            write(tmps[path])
        for renamed, (path, tmp) in enumerate(tmps.items()):
            try:
                os.replace(tmp, path)
            except OSError:
                for stale in tmps if renamed else ():
                    stale.unlink(missing_ok=True)
                raise
    finally:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)


def _detected_runs(out: Path) -> dict[str, int]:
    """Run count per period of the last detect, from run_summary.json: the
    number of label columns of the period's ``runs.csv``.

    Downstream commands read only the periods this lists, never whatever
    else lies under ``partitions/``.
    """
    path = out / "run_summary.json"
    try:
        summary = json.loads(path.read_text(encoding="utf-8"))
        runs = {period: entry["runs"] for period, entry in summary.items()}
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}; run detect first") from exc
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise InputError(f"malformed {path}: {exc!r}") from exc
    if not runs:
        raise InputError(f"{path} lists no periods; run detect first")
    for period, entries in runs.items():
        if not isinstance(entries, list) or not entries:
            raise InputError(f"malformed {path}: period {period!r} lists no runs")
    return {period: len(entries) for period, entries in sorted(runs.items())}


def _partition_file(out: Path, period: str, name: str) -> Path:
    """The partition table ``name`` (best.csv or runs.csv) of ``period``."""
    return _partition_dir(out / "partitions", period, out / "run_summary.json") / name


def _load_best_sequence(out: Path):
    return [
        (period, brim.read_partition_csv(_partition_file(out, period, "best.csv"), 1)[0])
        for period in _detected_runs(out)
    ]


def _load_runs(out: Path):
    return [
        (period, brim.read_partition_csv(_partition_file(out, period, "runs.csv"), count))
        for period, count in _detected_runs(out).items()
    ]


def cmd_ari(cfg: PipelineConfig, runs=None) -> list[tuple]:
    """Agreement among the detection runs of each period, over all pairs.

    ``runs`` is the (period, run partitions) list of the last detect; it is
    read from ``partitions/`` when not given.
    """
    out = Path(cfg.output_dir)
    _lock_output_dir(out)
    if runs is None:
        runs = _load_runs(out)
    rows = []
    for period, partitions in runs:
        try:
            if len(partitions) < 2:
                raise InputError("need at least 2 runs for agreement statistics")
            mean, std, pairs = metrics.all_pairs_ari(partitions)
        except InputError as exc:
            # the runs are those detect wrote to the period's run table
            raise InputError(f"{_partition_file(out, period, 'runs.csv')}: {exc}") from None
        rows.append((period, mean, std, pairs))
        logger.info("ari %s: mean ARI=%.6f over %d pairs", period, mean, pairs)
    _write_replacing({
        out / "ari.csv": lambda path: table.write_rows(
            path, ["period", "mean_ari", "std_ari", "pairs"], rows
        ),
    })
    return rows


def _detected_roots(cfg: PipelineConfig, sequence):
    """The configured roots, or None; InputError naming the roots key unless
    each is a community of ``sequence``."""
    roots = cfg.parsed_roots()
    if roots:
        try:
            tracker.check_roots(sequence, roots)
        except InputError as exc:
            raise InputError(f"bad roots {cfg.roots!r}: {exc}") from None
    return roots


def cmd_track(cfg: PipelineConfig, sequence=None) -> tracker.EvolutionGraph:
    """Validate temporal links between best partitions; export the DAG.

    ``sequence`` is the (period, best partition) list of the last detect;
    it is read from ``partitions/`` when not given.
    """
    out = Path(cfg.output_dir)
    _lock_output_dir(out)
    if sequence is None:
        sequence = _load_best_sequence(out)
    if len(sequence) < 2:
        raise InputError(
            "tracking needs best partitions for at least 2 periods; "
            f"{out / 'run_summary.json'} lists {len(sequence)}"
        )
    roots = _detected_roots(cfg, sequence)
    config = tracker.TrackerConfig(
        p_univariate=cfg.p_t,
        population_rule=cfg.population_rule,
        direction_filter=cfg.direction_filter,
    )
    links, threshold = tracker.track_sequence(sequence, config)
    graph = tracker.build_evolution_graph(
        sequence, config, roots=roots, tracked=(links, threshold)
    )
    exports = {fmt: tracker.export_evolution(graph, fmt) for fmt in ("dot", "json")}
    _write_replacing({
        out / "links.csv": lambda path: tracker.write_link_table(links, path),
        out / "evolution.dot": lambda path: path.write_text(exports["dot"], encoding="utf-8"),
        out / "evolution.json": lambda path: path.write_text(exports["json"], encoding="utf-8"),
    })
    n_validated = sum(1 for link in links if link.validated)
    logger.info(
        "track: %d of %d tested links validated (p_B=%.3e); %d edges in the DAG",
        n_validated,
        len(links),
        threshold,
        len(graph.edges),
    )
    return graph


def _load_catalog(cfg: PipelineConfig) -> enrichment.AttributeCatalog:
    """The attribute catalog that ``attributes`` names; InputError naming the key."""
    try:
        return enrichment.load_attribute_catalog(cfg.attributes)
    except InputError as exc:
        raise InputError(f"bad attributes {cfg.attributes!r}: {exc}") from None


def cmd_enrich(cfg: PipelineConfig, sequence=None, catalog=None) -> list[dict]:
    """Over-expression tests for every period's best partition.

    ``sequence`` is as for :func:`cmd_track`; ``catalog`` is the attribute
    catalog, read from ``cfg.attributes`` when not given.
    """
    out = Path(cfg.output_dir)
    _lock_output_dir(out)
    if catalog is None:
        if not cfg.attributes:
            raise InputError("enrich requires an attribute catalog (key 'attributes')")
        catalog = _load_catalog(cfg)
    config = enrichment.EnrichmentConfig(
        p_univariate=cfg.p_t, population_scope=cfg.population_scope
    )
    if sequence is None:
        sequence = _load_best_sequence(out)
    all_records = []
    all_rows = []
    thresholds = []
    for period, partition in sequence:
        try:
            records = enrichment.test_overexpression(partition, catalog, config, period=period)
        except InputError as exc:
            best = _partition_file(out, period, "best.csv")
            raise InputError(f"{best} against catalog {cfg.attributes}: {exc}") from None
        all_records.extend(records)
        all_rows.extend(enrichment.community_report(partition, records, period))
        # one test per value and community: the record count is the
        # Bonferroni divisor of the period
        thresholds.append(stats.bonferroni_threshold(config.p_univariate, len(records)))
    _write_replacing({
        out / "enrichment_records.csv":
            lambda path: enrichment.write_enrichment_records(all_records, path),
        out / "enrichment_report.csv":
            lambda path: enrichment.write_enrichment_report(all_rows, path),
    })
    validated = sum(1 for record in all_records if record.validated)
    logger.info(
        "enrich: %d of %d tests validated (p_B from %.3e to %.3e over %d periods)",
        validated, len(all_records), min(thresholds), max(thresholds), len(thresholds),
    )
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


def cmd_synth(args) -> Path:
    """Generate a synthetic dataset (graphs, truth, lineage, attributes)."""
    cfg = _configured(args, "synth", SynthConfig)
    if cfg.seed < 0:
        raise InputError(f"seed must be >= 0, got {cfg.seed}")
    communities = _entries("communities", cfg.communities, "REDxBLUE", int, int, field_sep="x")
    model = synth.PlantedModel(communities, cfg.p_in, cfg.p_out, seed=cfg.seed)
    plants = _entries("plants", cfg.plants, "category:value:community:penetration",
                      str, str, int, float, sep=";", build=synth.AttributePlant)
    splits = _entries("splits", cfg.splits, "period:community[:fraction]",
                      int, int, float, sep=";", optional=1, build=synth.SplitEvent)
    merges = _entries("merges", cfg.merges, "period:source:target",
                      int, int, int, sep=";", build=synth.MergeEvent)
    plans = _entries("categories", cfg.categories, "name:side:v1|v2|...",
                     str, str, _category_values, sep=";", build=synth.CategoryPlan)
    script = synth.TemporalScript(cfg.periods, cfg.churn, tuple(splits + merges), tuple(plants))
    # period 0 holds every planted community, so the plans and plants are
    # checked before the edges of any period are drawn
    try:
        synth.check_plans(plans)
    except InputError as exc:
        raise InputError(f"bad categories {cfg.categories!r}: {exc}") from None
    try:
        synth.check_plants(plants, plans, len(model.communities))
    except InputError as exc:
        raise InputError(f"bad plants {cfg.plants!r}: {exc}") from None
    series, truths, lineage = synth.generate_sequence(model, script)
    catalog = None
    if plans:
        catalog = synth.generate_catalog(truths[0], plans, seed=cfg.seed, plants=plants)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _lock_output_dir(out)
    manifest = synth.write_synthetic_dataset(
        cfg.output_dir, series, truths, lineage, catalog=catalog
    )
    print(manifest)
    return manifest


def _category_values(pool: str) -> tuple[str, ...]:
    return tuple(value for (value,) in _entries("categories", pool, "v1|v2|...", str, sep="|"))


def cmd_pipeline(cfg: PipelineConfig) -> None:
    """detect -> ari -> track -> enrich, as configured."""
    # the catalog is read before detect, so a faulty one fails before any write
    catalog = _load_catalog(cfg) if cfg.attributes else None
    runs, sequence = cmd_detect(cfg)
    if len(sequence) >= 2:
        # track would reject an undetected root; ari must not write before it
        _detected_roots(cfg, sequence)
    if cfg.runs >= 2:
        cmd_ari(cfg, runs)
    if len(sequence) >= 2:
        cmd_track(cfg, sequence)
    if catalog is not None:
        cmd_enrich(cfg, sequence, catalog)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicomet",
        description=(
            "Community detection on bipartite period networks, statistical "
            "temporal tracking, and attribute over-expression analysis."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag's dest is the name of the config field it overrides
    def add_common(p, seed="master_seed"):
        p.add_argument("--config", default="", help="INI config file")
        p.add_argument("--output-dir", dest="output_dir", help="output directory")
        p.add_argument("--seed", type=int, dest=seed, help="master seed")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p, seed="seed")
    p.add_argument("--periods", type=int, help="number of periods")

    p = sub.add_parser("detect", help="detect communities per period")
    add_common(p)
    p.add_argument("--manifest", help="period manifest CSV")
    p.add_argument("--runs", type=int, help="independent runs per period")
    p.add_argument("--restarts", type=int, dest="restarts_per_run", help="restarts per run")
    p.add_argument("--module-counts", dest="module_count_schedule",
                   help="initial community counts")
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
    p.add_argument("--restarts", type=int, dest="restarts_per_run", help="restarts per run")
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
    finally:
        _release_output_dirs()


if __name__ == "__main__":
    sys.exit(main())
