"""Byte identity of the CLI's output as a test: every command line of the
manifest (``golden.py``) gives the recorded exit code, stderr and, on the
recorded OpenBLAS core, the recorded digest of its ``--no-meta`` stdout."""

import json

import pytest

from golden import LINES, MANIFEST, SEEDS, blas_core, moves, run_line

RECORDED = json.loads(MANIFEST.read_text())


def test_manifest_covers_every_line_and_seed():
    assert list(RECORDED["lines"]) == list(LINES)
    assert all(list(seeds) == [str(s) for s in SEEDS] for seeds in RECORDED["lines"].values())


@pytest.mark.parametrize("line", LINES)
def test_output_matches_the_manifest(line):
    got = {str(s): run_line(line, s) for s in SEEDS}
    want = RECORDED["lines"][line]
    assert {s: (g["exit"], g["stderr"]) for s, g in got.items()} == \
        {s: (w["exit"], w["stderr"]) for s, w in want.items()}
    if blas_core() != RECORDED["blas_core"]:
        pytest.skip(f"digests recorded on OpenBLAS core {RECORDED['blas_core']}, "
                    f"running on {blas_core()}: exit codes and stderr compared only")
    assert {s: g["sha256"] for s, g in got.items()} == {s: w["sha256"] for s, w in want.items()}


def test_manifest_exercises_every_subcommand_and_exit_code():
    from levy_groups.cli import COMMANDS

    assert {line.split()[0] for line in LINES} == set(COMMANDS)
    assert {e["exit"] for seeds in RECORDED["lines"].values() for e in seeds.values()} == {0, 1, 2}


def test_another_core_compares_exits_and_skips_digests_naming_both(monkeypatch):
    monkeypatch.setitem(globals(), "blas_core", lambda: "OtherCore")
    with pytest.raises(pytest.skip.Exception, match=f"{RECORDED['blas_core']}.*OtherCore"):
        test_output_matches_the_manifest(LINES[-1])


def test_the_writer_names_each_line_and_seed_that_moved():
    new = json.loads(json.dumps(RECORDED))
    assert moves(RECORDED, new) == []
    seeds = new["lines"][LINES[0]]
    seeds["2"]["sha256"] = "0" * 64
    seeds["3"].update(exit=7, stderr="x\n")
    assert moves(RECORDED, new) == [f"{LINES[0]} --seed 2: sha256",
                                    f"{LINES[0]} --seed 3: exit, stderr"]
    assert len(moves({}, new)) == len(LINES) * len(SEEDS)
