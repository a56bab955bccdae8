import pytest

from bicomet import seeding
from bicomet.seeding import derive_seed

# Every stream-kind value is part of the reproducibility contract: changing
# one changes every seed derived from it, and so every output it feeds.
STREAMS = {
    "STREAM_BRIM_RUN": 1,
    "STREAM_SYNTH_EDGES": 3,
    "STREAM_SYNTH_CHURN": 4,
    "STREAM_SYNTH_EVENTS": 5,
    "STREAM_SYNTH_CATALOG": 6,
    "STREAM_DETECT_PERIOD": 7,
}


def test_stream_values_are_pinned_and_distinct():
    declared = {name: value for name, value in vars(seeding).items() if name.startswith("STREAM_")}
    assert declared == STREAMS
    assert len(set(declared.values())) == len(declared)
    assert 2 not in declared.values()  # retired


@pytest.mark.parametrize(
    "name, seed",
    [
        ("STREAM_BRIM_RUN", 6731619313212667637),
        ("STREAM_SYNTH_EDGES", 1290271217234616674),
        ("STREAM_SYNTH_CHURN", 7329416972399889857),
        ("STREAM_SYNTH_EVENTS", 17928108348782070686),
        ("STREAM_SYNTH_CATALOG", 10144317743356009784),
        ("STREAM_DETECT_PERIOD", 2999056532212548249),
    ],
)
def test_derived_seed_is_pinned(name, seed):
    assert derive_seed(11, getattr(seeding, name), 0) == seed
