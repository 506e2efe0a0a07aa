"""Deterministic report rendering and artifact headers.

Every output file begins with a header embedding the artifact version and
the run's parameters, and contains nothing time-dependent.  Two gaps keep
a header from reproducing its file, and ROADMAP item 11 closes both:

- the search CSV head and both audit heads echo --forms as typed, so the
  same run through another path to the forms file writes other bytes;
- the search CSV head omits --assert-general-position, so re-running a
  run that needed it with the echoed parameters is refused.

Every report goes through one writer, write_stream, as a sequence of text
chunks.  To stdout the chunks are printed as they come.  An --out file is
written as a temp sibling in the same directory, which replaces the file
(os.replace) only after the last chunk: a command that fails or is killed
midway leaves the previous file, or no file, and no temp sibling unless it
was killed.  A report's chunks are its head, then its lines; the audits
hand over one block of rows per chunk, so their memory does not grow with
the sample count.
There is no fsync: the rename survives a crash of the program, not a loss
of power.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Iterable

from . import __version__

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141        # 128 + SIGPIPE

WORKERS_ENV = "BETACHOW_WORKERS"


def header_json(**fields) -> str:
    """The JSON header line of every artifact, without its newline: the
    artifact name and version, then fields (a report's command and params,
    a solution file's or checkpoint's kind and descriptor), keys sorted."""
    return json.dumps({"artifact": "betachow", "version": __version__, **fields},
                      sort_keys=True)


def report_head(command: str, params: dict[str, str], fields: list[str], csv: bool) -> str:
    """A report's head.  The parameters gain its format, csv or json.  A CSV
    head is comment lines echoing the version, the command and each
    parameter, sorted, then the field-name line; a JSON head is the header
    line."""
    params = {**params, "format": "csv" if csv else "json"}
    if not csv:
        return header_json(command=command, params=params) + "\n"
    lines = [f"# betachow {__version__}", f"# command={command}",
             *(f"# {k}={v}" for k, v in sorted(params.items())), ",".join(fields)]
    return "".join(line + "\n" for line in lines)


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


def csv_lines(rows: list[dict], fieldnames: list[str]) -> str:
    return "".join(",".join(fmt(row.get(k, "")) for k in fieldnames) + "\n" for row in rows)


def jsonl_lines(records: list[dict]) -> str:
    """One JSON line per record; a value JSON has no type for (a Fraction,
    a point) is written as its str."""
    return "".join(json.dumps(rec, sort_keys=True, default=str) + "\n" for rec in records)


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
