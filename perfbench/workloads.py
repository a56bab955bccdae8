"""Workload definitions: synthetic dataset and pipeline settings per workload.

Every workload is serial (``workers = 1``) and driven as a closed loop with
one caller: the next ``bicomet pipeline`` starts only after the previous one
has exited, as when a user waits for each command.  The workload seed is the
synthetic generator's seed and the pipeline's master seed, so one seed fixes
every input and every output byte.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # [synth] keys of the bicomet INI config (seed and output_dir are added)
    synth: dict
    # [pipeline] keys (manifest, output_dir, attributes, master_seed are added)
    pipeline: dict

    @property
    def periods(self) -> int:
        return int(self.synth["periods"])

    @property
    def runs(self) -> int:
        return int(self.pipeline["runs"])

    def params(self, seed: int) -> dict:
        """Every parameter of one run; its config file is written from these."""
        return {
            "workload": self.name,
            "seed": seed,
            "synth": dict(self.synth, seed=seed),
            "pipeline": dict(self.pipeline, master_seed=seed, workers=1),
        }


def _blocks(count: int, red: int, blue: int) -> str:
    return ", ".join([f"{red}x{blue}"] * count)


def _values(prefix: str, count: int) -> str:
    return "|".join(f"{prefix}{i}" for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-detect",
            why=(
                "BRIM at ROADMAP's M scale with the default module count, so "
                "brim_step's dense n x c counts matrix dominates time and memory."
            ),
            synth={
                "periods": "3",
                "churn": "0.02",
                "p_in": "0.3",
                "p_out": "0.003",
                "communities": _blocks(10, 100, 400),
                "categories": f"region:red:{_values('R', 3)}",
                "plants": "region:RX:0:0.8",
            },
            pipeline={
                "runs": "4",
                "restarts_per_run": "5",
                "module_count_schedule": "",
                "p_t": "0.01",
                "population_rule": "union",
                "direction_filter": "all",
                "roots": "",
                "population_scope": "carriers",
            },
        ),
        Workload(
            name="hypergeom-tests",
            why=(
                "Thousands of hypergeometric tail tests in tracking and "
                "enrichment over 10 period files, so the stats kernel and the "
                "loader dominate while BRIM stays small."
            ),
            synth={
                "periods": "10",
                "churn": "0.1",
                "p_in": "0.5",
                "p_out": "0.01",
                "communities": _blocks(30, 20, 80),
                "categories": (
                    f"sector:blue:{_values('S', 10)};region:red:{_values('R', 5)}"
                ),
                "plants": "sector:SX:0:0.8;region:RX:1:0.8",
            },
            pipeline={
                "runs": "2",
                "restarts_per_run": "1",
                "module_count_schedule": "48",
                "p_t": "0.01",
                "population_rule": "union",
                "direction_filter": "all",
                "roots": "",
                "population_scope": "carriers",
            },
        ),
        Workload(
            name="run-agreement",
            why=(
                "The paper's 20-run agreement protocol with cheap restarts, so "
                "all-pairs ARI and partition CSV writes and reads dominate, "
                "with the non-default tracker and enrichment paths."
            ),
            synth={
                "periods": "6",
                "churn": "0.02",
                "p_in": "0.25",
                "p_out": "0.005",
                "communities": _blocks(10, 40, 160),
                "splits": "2:1:0.5",
                "merges": "4:3:2",
                "categories": f"sector:blue:{_values('S', 4)}",
                "plants": "sector:SX:0:0.8",
            },
            pipeline={
                "runs": "20",
                "restarts_per_run": "1",
                "module_count_schedule": "16",
                "p_t": "0.01",
                "population_rule": "intersection",
                "direction_filter": "forward_only",
                "roots": "p00:0,p00:1",
                "population_scope": "side",
            },
        ),
    )
}
