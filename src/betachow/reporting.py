"""Deterministic report rendering and run configuration.

Every output file begins with a header embedding the artifact version and
the full run configuration, and contains nothing time- or path-dependent:
re-running a command with the parameters echoed in a header reproduces the
file byte for byte.

Every report goes through one writer, write_stream, as a sequence of text
chunks.  To stdout the chunks are printed as they come.  An --out file is
written as a temp sibling in the same directory, which replaces the file
(os.replace) only after the last chunk: a command that fails or is killed
midway leaves the previous file, or no file, and no temp sibling unless it
was killed.  The audits hand over one block of rows per chunk, so their
memory does not grow with the sample count; the other commands render
their report in memory and hand it over as one chunk (write_output).
There is no fsync: the rename survives a crash of the program, not a loss
of power.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable

from ._records import Record

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

WORKERS_ENV = "BETACHOW_WORKERS"


class RunConfig(Record):
    """Command name plus every parameter that shaped the run."""

    __slots__ = ("command", "params")

    def __init__(self, command: str, params: dict[str, str] | None = None):
        self.command = command
        self.params = {} if params is None else params

    def sorted_params(self) -> list[tuple[str, str]]:
        return sorted(self.params.items())

    def header_comment_lines(self, version: str) -> list[str]:
        lines = [f"# betachow {version}", f"# command={self.command}"]
        lines += [f"# {k}={v}" for k, v in self.sorted_params()]
        return lines

    def header_json(self, version: str) -> str:
        return json.dumps({"artifact": "betachow", "version": version,
                           "command": self.command,
                           "params": dict(self.sorted_params())}, sort_keys=True)


def fmt(value) -> str:
    """Canonical text for report cells: exact rationals stay exact, verdicts
    read pass/FAIL.  Dispatches on type(value), which is cheaper than
    isinstance checks across the thousands of cells of a report."""
    kind = type(value)
    if kind is str:
        return value
    if kind is bool:
        return "pass" if value else "FAIL"
    if kind is float:
        return repr(value)
    return str(value)


def csv_head(fieldnames: list[str], config: RunConfig, version: str) -> str:
    """The header comment lines and the field-name line of a CSV report."""
    lines = [*config.header_comment_lines(version), ",".join(fieldnames)]
    return "".join(line + "\n" for line in lines)


def csv_lines(rows: list[dict], fieldnames: list[str]) -> str:
    return "".join(",".join(fmt(row.get(k, "")) for k in fieldnames) + "\n" for row in rows)


def jsonl_lines(records: list[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def render_csv(rows: list[dict], fieldnames: list[str], config: RunConfig,
               version: str) -> str:
    return csv_head(fieldnames, config, version) + csv_lines(rows, fieldnames)


def render_jsonl(records: list[dict], config: RunConfig, version: str) -> str:
    return config.header_json(version) + "\n" + jsonl_lines(records)


def write_output(path: str | None, content: str):
    """write_stream of one fully rendered report."""
    write_stream(path, (content,))


def write_stream(path: str | None, chunks: Iterable[str]):
    """Print the chunks to stdout in order, or write them to path through a
    temp sibling that replaces path after the last chunk (module
    docstring); a symlink is followed, and a path that is neither a file
    nor absent (a device, a pipe) is written in place.  Whatever the chunks
    raise propagates, after the temp sibling is removed."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        # a device or a pipe (/dev/null, a fifo) cannot be replaced
        with open(target, "w") as fh:
            fh.writelines(chunks)
        return
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def parse_config_file(path: str) -> dict[str, str]:
    """key=value lines mirroring the CLI flags; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def worker_count(cli_value: int | None) -> int:
    """--workers, else BETACHOW_WORKERS, else 1; a count below 1, or a
    variable that is not an int, is refused by name."""
    if cli_value is not None:
        if cli_value < 1:
            raise ValueError(f"--workers must be >= 1, got {cli_value}")
        return cli_value
    env = os.environ.get(WORKERS_ENV) or "1"
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"{WORKERS_ENV} must be an int >= 1, got {env!r}")
    return int(env)
