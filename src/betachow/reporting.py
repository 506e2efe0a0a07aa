"""Deterministic report rendering and run configuration.

Every output file begins with a header embedding the artifact version and
the full run configuration, and contains nothing time- or path-dependent:
re-running a command with the parameters echoed in a header reproduces the
file byte for byte.  Files are rendered fully in memory and written in one
shot, so a failing command never leaves a partial file behind.
"""

from __future__ import annotations

import io
import json
import os

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


def render_csv(rows: list[dict], fieldnames: list[str], config: RunConfig,
               version: str) -> str:
    out = io.StringIO()
    for line in config.header_comment_lines(version):
        out.write(line + "\n")
    out.write(",".join(fieldnames) + "\n")
    for row in rows:
        out.write(",".join(fmt(row.get(k, "")) for k in fieldnames) + "\n")
    return out.getvalue()


def render_jsonl(records: list[dict], config: RunConfig, version: str) -> str:
    lines = [config.header_json(version)]
    lines += [json.dumps(rec, sort_keys=True) for rec in records]
    return "\n".join(lines) + "\n"


def write_output(path: str | None, content: str):
    """Print to stdout or write the fully rendered content in one shot."""
    if path is None:
        print(content, end="")
    else:
        with open(path, "w") as fh:
            fh.write(content)


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
