"""The audit block pipeline and the one --out writer: bytes, crash safety,
bounded memory and pool teardown."""

import hashlib
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import betachow.audits
import betachow.cli
from betachow.audits import BLOCK
from betachow.cli import main
from betachow.reporting import write_output, write_stream

SRC = Path(__file__).resolve().parent.parent / "src"
LINES = "x0\nx1\nx2\nx0+x1+x2\n"
_REAL_LEVIN_DUKE_ROW = betachow.audits._levin_duke_row


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# bytes
# ---------------------------------------------------------------------------

# sha256 of the report written before audits streamed in blocks, for
# `audit KIND --forms lines.txt --samples N --seed 5 --height-bound 10**6
# --s inf,2 --format FORMAT`
AUDIT_PINS = {
    ("subspace", "json", 0): "81cee18cbe7704963be6b24d3bfbc252b8473d0ecba591e18465e0b4afa1d982",
    ("subspace", "json", 512): "7fb68f8843842fa0382dd0d730a54184b80d653ba2159d70adc9382cda38ac1a",
    ("subspace", "json", 700): "bf97b8fe96a8cc9c12a2759cca72f1e22ba739cf9aca5a730e9423a39dd84c61",
    ("subspace", "csv", 0): "14dbff63eeff5b3740f3f2d6055013af316ade84b830acebfa6a09e6b0ee84af",
    ("subspace", "csv", 512): "93ce280a85c39f84b8348081adc5f435c40989118d6c2f83964b92945feb4b0e",
    ("subspace", "csv", 700): "6a9b6317158a8d5cc4e3e307ed92c143b0e4289b979f68fea194e479106c056c",
    ("levinduke", "json", 0): "8ee336b9e488480f9f3a0f0424a7dbbe47174de0794ab6a8871676fc56a86d4b",
    ("levinduke", "json", 512): "5e2ee8dba7c9a29d22d258f9e7f82f0485efe9ba69b5188565650a7778bbf496",
    ("levinduke", "json", 700): "165610636181de210fefa95b67683548ad72f67ff57adadcc791e1ede58dc21e",
    ("levinduke", "csv", 0): "1dfead4306b266f063a1497db971842951ef24c4e321e4a9696cdbca161874f4",
    ("levinduke", "csv", 512): "b96ea104858b9878b2e6b53911904fc48bdb94f1a9bef4c9d7152035e8ebc615",
    ("levinduke", "csv", 700): "8e1c76c43b08e7eacac79619a9e549794c34c92ce38d79ffbf565353a0fbc49c",
}


@pytest.mark.parametrize("kind, fmt, samples", sorted(AUDIT_PINS))
def test_audit_bytes_match_their_pins_for_every_worker_count(tmp_path, capsys, monkeypatch,
                                                             kind, fmt, samples):
    # none, an exact multiple of the block, and several blocks and a part
    assert 512 % BLOCK == 0 and 700 > 2 * BLOCK and 700 % BLOCK
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.txt").write_text(LINES)
    argv = ["audit", kind, "--forms", "lines.txt", "--samples", str(samples), "--seed", "5",
            "--height-bound", str(10 ** 6), "--s", "inf,2", "--format", fmt]
    outputs = []
    for workers in ("1", "2", "3", "4"):
        code, printed, _ = run(capsys, *argv, "--workers", workers, "--out", "out.txt")
        assert (code, printed) == (0, "")
        outputs.append((tmp_path / "out.txt").read_bytes())
        code, printed, _ = run(capsys, *argv, "--workers", workers)
        assert code == 0
        outputs.append(printed.encode())
    assert len(set(outputs)) == 1
    assert hashlib.sha256(outputs[0]).hexdigest() == AUDIT_PINS[kind, fmt, samples]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lines.txt", "out.txt"]


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

def test_write_stream_replaces_the_file_only_after_the_last_chunk(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old\n")

    def chunks():
        yield "a\n"
        assert out.read_text() == "old\n"
        yield "b\n"
        raise ValueError("stop")

    with pytest.raises(ValueError, match="stop"):
        write_stream(str(out), chunks())
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    write_stream(str(out), iter(["a\n", "b\n"]))
    assert out.read_text() == "a\nb\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_output_follows_a_symlink(tmp_path):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target)
    write_output(str(link), "new\n")
    assert link.is_symlink() and target.read_text() == "new\n"


def test_write_output_names_the_path_when_its_directory_is_missing(tmp_path):
    path = str(tmp_path / "missing" / "out.txt")
    with pytest.raises(FileNotFoundError, match="missing/out.txt'"):
        write_output(path, "x\n")


def test_reporting_never_truncates_an_out_file(monkeypatch, tmp_path):
    import builtins
    import betachow.reporting
    opened = []

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((Path(file).name, mode))
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(betachow.reporting, "open", recording_open, raising=False)
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    write_output(str(out), "new\n")
    assert out.read_text() == "new\n"
    assert opened == [(f".out.txt.{os.getpid()}.tmp", "w")]


# ---------------------------------------------------------------------------
# crash safety
# ---------------------------------------------------------------------------

def _levin_duke_row_failing_past_one_block(evaluators, params, idx, p):
    if idx == BLOCK + 1:
        raise ValueError("row failed")
    return _REAL_LEVIN_DUKE_ROW(evaluators, params, idx, p)


CHILD = """
import os, sys
import betachow.audits
from betachow.cli import main
real = betachow.audits._levin_duke_row

def row(evaluators, params, idx, p):
    if idx == {die_at}:
        os._exit(7)
    return real(evaluators, params, idx, p)

betachow.audits._levin_duke_row = row
sys.exit(main({argv!r}))
"""


def test_a_killed_or_failing_audit_leaves_its_out_file_as_it_was(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coords.txt").write_text("x0\nx1\nx2\n")
    samples = 3 * BLOCK - 7
    argv = ["audit", "levinduke", "--forms", "coords.txt", "--samples", str(samples),
            "--height-bound", str(10 ** 12), "--s", "inf,2,3", "--format", "json"]
    assert run(capsys, *argv, "--out", "plain.jsonl")[0] == 0
    plain = (tmp_path / "plain.jsonl").read_bytes()
    old = b"old bytes\n"
    out = tmp_path / "F.jsonl"
    # killed before the first block is written, after one block, and in the
    # middle of the last block
    for die_at in (0, BLOCK, 2 * BLOCK + BLOCK // 2):
        out.write_bytes(old)
        child = CHILD.format(die_at=die_at, argv=[*argv, "--out", "F.jsonl"])
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == 7, proc.stderr
        assert out.read_bytes() == old
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".F.jsonl.")]
        assert len(leftovers) == 1 and leftovers[0].name.endswith(".tmp")
        leftovers[0].unlink()
        assert run(capsys, *argv, "--out", "F.jsonl")[0] == 0
        assert out.read_bytes() == plain

    # a row that raises, in this process and in a worker
    monkeypatch.setattr(betachow.audits, "_levin_duke_row",
                        _levin_duke_row_failing_past_one_block)
    for workers in ("1", "2"):
        out.write_bytes(old)
        code, printed, err = run(capsys, *argv, "--workers", workers, "--out", "F.jsonl")
        assert (code, printed) == (2, "")
        assert "row failed" in err
        assert out.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["F.jsonl", "coords.txt", "plain.jsonl"]
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------

def test_no_pool_child_outlives_a_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "lines.txt").write_text(LINES)
    (tmp_path / "g.txt").write_text("1\n")
    audit = ["audit", "subspace", "--forms", "lines.txt", "--samples", str(3 * BLOCK),
             "--height-bound", "50", "--workers", "2"]
    search = ["search", "cor12", "--forms", "g.txt", "--box", "9", "--workers", "2"]
    for argv in (audit, search, [*search, "--checkpoint", "ck.jsonl"]):
        assert run(capsys, *argv)[0] == 0
        assert multiprocessing.active_children() == []

    # the report stops after its first block, on stdout and into --out
    real = betachow.cli._audit_lines
    lines = []

    def failing(records, csv):
        lines.append(len(records))
        if len(lines) == 2:
            raise ValueError("rendering failed")
        return real(records, csv)

    monkeypatch.setattr(betachow.cli, "_audit_lines", failing)
    for more in ((), ("--out", "out.txt")):
        lines.clear()
        code, printed, err = run(capsys, *audit, *more)
        assert code == 2 and "rendering failed" in err
        assert lines == [BLOCK, BLOCK]
        assert multiprocessing.active_children() == []
    assert not (tmp_path / "out.txt").exists()


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_audit_memory_does_not_grow_with_the_sample_count(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "coords.txt").write_text("x0\nx1\nx2\n")

    def peak(samples: int) -> int:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main(["audit", "levinduke", "--forms", "coords.txt", "--samples",
                     str(samples), "--height-bound", str(10 ** 12), "--format", "json",
                     "--out", "out.jsonl"])
        assert code == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(BLOCK + 1)                 # warm the caches a first run fills
        small, large = peak(300), peak(3000)
    finally:
        tracemalloc.stop()
    assert abs(large - small) < 2 ** 20, (small, large)
    assert (tmp_path / "out.jsonl").read_text().count("\n") == 3002
