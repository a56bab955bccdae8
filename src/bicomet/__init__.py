"""Community detection, temporal tracking and attribute enrichment for
time-sequenced bipartite networks."""

from .brim import (
    Partition,
    RunResult,
    best_result,
    bipartite_modularity,
    brim_converge,
    brim_multirun,
    brim_step,
    read_partition_csv,
    write_partition_csv,
)
from .enrichment import (
    AttributeCatalog,
    EnrichmentConfig,
    EnrichmentRecord,
    community_report,
    enrichment_threshold,
    load_attribute_catalog,
    test_overexpression,
)
from .errors import InputError
from .graph import (
    BipartiteGraph,
    PeriodGraphSeries,
    load_edge_list,
    load_period_series,
)
from .metrics import adjusted_rand_index, all_pairs_ari
from .stats import (
    HypergeomParams,
    bonferroni_threshold,
    hypergeom_pmf,
    log_binomial,
    overlap_pvalue,
)
from .synth import (
    AttributePlant,
    CategoryPlan,
    LineageEdge,
    MergeEvent,
    PlantedModel,
    SplitEvent,
    TemporalScript,
    exhaustive_modularity_oracle,
    generate_catalog,
    generate_graph,
    generate_sequence,
    write_synthetic_dataset,
)
from .tracker import (
    EvolutionGraph,
    TemporalLink,
    TrackerConfig,
    build_evolution_graph,
    export_evolution,
    read_link_table,
    sequence_bonferroni,
    track_pair,
    track_sequence,
    write_link_table,
)

__version__ = "0.1.0"
