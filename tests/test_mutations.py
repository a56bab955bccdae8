"""Seeded mutations of a tiny dataset, its config and its output tree.

Each mutation changes one file of a tree made by ``synth`` and ``pipeline``
and runs one command that reads it.  Whatever the bytes, the command exits
0 or 1, never 2 and never with an exception; on exit 1 its message names a
``file:line``, a file or a config key, and a standalone ``ari``, ``track``
or ``enrich`` leaves the output tree as it was.

Numbers written into the config stay small: a large ``runs`` or
``restarts_per_run`` is a valid value that only costs time.
"""

import contextlib
import io
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from bicomet.cli import PipelineConfig, SynthConfig, main

MUTATIONS = 300
SEED = 20_140_301

CONFIG = """\
[pipeline]
manifest = data/manifest.csv
output_dir = out
runs = 3
restarts_per_run = 1
master_seed = 2
attributes = data/attributes.csv
roots = p00:0,p01:1

[synth]
output_dir = data
seed = 2
periods = 3
p_in = 0.9
p_out = 0.05
communities = 3x4,3x4
categories = sector:blue:A|B;kind:red:X|Y
plants = sector:A:0:0.9
"""

STANDALONE = ("ari", "track", "enrich")

# the file each mutation changes, and the commands that read it
TARGETS = [
    ("config.ini", ("synth", "detect", "ari", "track", "enrich", "pipeline")),
    ("data/manifest.csv", ("detect", "pipeline")),
    ("data/edges_p01.csv", ("detect", "pipeline")),
    ("data/nodes_p02.csv", ("detect", "pipeline")),
    ("data/attributes.csv", ("enrich", "pipeline")),
    ("out/run_summary.json", STANDALONE),
    ("out/partitions/p00/runs.csv", ("ari",)),
    ("out/partitions/p02/runs.csv", ("ari",)),
    ("out/partitions/p01/best.csv", ("track", "enrich")),
    ("out/partitions/p02/best.csv", ("track", "enrich")),
]

BYTES = b'\x00\xff\xe9\t\n\r ,"-+.:;=|[]{}xE'
DIGITS = b"0123456789"
CELLS = ["", " ", "x", "-1", "0", "1.5", "nan", "red", "blue", "node_id", "period",
         "p00", "\x00", '"', "r,s", "\xe9", "{}", "[]"]
LARGE_CELLS = ["99", "+3", "1e3", "007", str(2**64)]

KEYS = sorted({f.name for cls in (PipelineConfig, SynthConfig) for f in fields(cls)})
# a file name, with or without a line, or a config key as a word
NAMED = re.compile(r"[\w.-]+\.(csv|json|ini)\b|\b(" + "|".join(KEYS) + r")\b")


def mutate(data: bytes, rng: random.Random, config: bool) -> bytes:
    """``data`` with one seeded change to its bytes, lines or cells."""
    pool = BYTES if config else BYTES + DIGITS
    cells = CELLS if config else CELLS + LARGE_CELLS
    lines = data.split(b"\n")
    at = rng.randrange(len(data) + 1)
    kind = rng.randrange(8)
    if kind == 0 and data:  # replace a byte
        at = min(at, len(data) - 1)
        return data[:at] + bytes([rng.choice(pool)]) + data[at + 1:]
    if kind == 1:  # insert a byte
        return data[:at] + bytes([rng.choice(pool)]) + data[at:]
    if kind == 2:  # delete a span
        return data[:at] + data[at + rng.randint(1, 8):]
    if kind == 3:  # truncate
        return data[:at]
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 4:  # repeat a line
        lines.insert(j, lines[i])
    elif kind == 5:  # drop a line
        del lines[i]
    elif kind == 6:  # swap two lines
        lines[i], lines[j] = lines[j], lines[i]
    else:  # rewrite a cell
        row = lines[i].split(b",")
        row[rng.randrange(len(row))] = rng.choice(cells).encode()
        lines[i] = b",".join(row)
    return b"\n".join(lines)


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """The bytes of every file of a workspace after ``synth`` and ``pipeline``."""
    root = tmp_path_factory.mktemp("base")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        (root / "config.ini").write_text(CONFIG)
        assert run(["synth", "--config", "config.ini"])[0] == 0
        assert run(["pipeline", "--config", "config.ini"])[0] == 0
    files = tree_bytes(root)
    assert {target for target, _ in TARGETS} <= set(files)
    return files


def test_every_mutation_exits_zero_or_one_with_a_named_fault(tmp_path, monkeypatch, base):
    rng = random.Random(SEED)
    faults = []
    exits = {0: 0, 1: 0}
    for i in range(MUTATIONS):
        target, commands = TARGETS[i % len(TARGETS)]
        command = rng.choice(commands)
        work = tmp_path / f"m{i:03d}"
        for name, data in base.items():
            (work / name).parent.mkdir(parents=True, exist_ok=True)
            (work / name).write_bytes(data)
        (work / target).write_bytes(mutate(base[target], rng, target == "config.ini"))
        monkeypatch.chdir(work)
        before = tree_bytes(work / "out")
        code, err = run([command, "--config", "config.ini"])
        where = f"mutation {i}: {command} on a changed {target}"
        if code not in (0, 1):
            faults.append(f"{where} exited {code}: {err.strip()}")
        elif code == 1:
            if not err.startswith("error: ") or not NAMED.search(err):
                faults.append(f"{where} names no file or key: {err!r}")
            if command in STANDALONE and tree_bytes(work / "out") != before:
                faults.append(f"{where} exited 1 and changed the output tree")
        exits[min(code, 1)] += 1
    assert not faults, "\n".join(faults[:20])
    # the mutations reach both outcomes
    assert exits[0] and exits[1], exits
