"""In-process replay of one CLI invocation through ``gcoda.cli.main``, with a
span around each stage.

The replay runs the CLI's own dispatch.  While a traced replay runs, the
names ``main`` and the command functions look up in the ``gcoda.cli``
namespace are swapped for wrappers that open a span:

- parse: ``build_parser`` and the parser's ``parse_args``, ``_build_config``
  (which makes the geometry context) and ``_law_from_args``;
- ingest: ``_read_rows`` (which records the bytes it read) and the
  ``_ingest_*`` helpers;
- compute: every library function ``gcoda.cli`` imports, except
  ``make_context``, which belongs to parse; each is a call of its own layer;
- emit: ``_emit`` (which records the bytes it wrote).

A span named ``format`` covers all of ``main``.  Its self time, what is left
outside the spans above, is the format stage: formatting and dispatch,
whatever code the CLI runs there.  The wrappers rely on private
``gcoda.cli`` names because the CLI has no stage hooks of its own.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import re
from pathlib import Path

import numpy as np

import spans

PARSE = ("_build_config", "_law_from_args")
INGEST = ("_ingest_positive", "_ingest_compositions", "_ingest_free")
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")

_values: dict[tuple[str, ...], int] = {}  # numbers in each invocation's output


def _output(argv) -> str | None:
    argv = list(argv)
    return argv[argv.index("--output") + 1] if "--output" in argv else None


def _rows(args, result) -> int:
    """Leading dimension of the first array argument, or of an array result."""
    for a in (*args, result):
        if isinstance(a, np.ndarray):
            return np.atleast_2d(a).shape[0]
    return 0


def _stage(tracer, fn, stage, fields=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("cli", stage, call=False, **(fields(*args, **kwargs) if fields else {})):
            return fn(*args, **kwargs)
    return wrapper


def _library(tracer, fn):
    layer = fn.__module__.rsplit(".", 1)[-1]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = fn.__name__
        if name == "closure":
            name = f"closure.{args[0].fast_path}"
        with tracer.span(layer, name, stage="compute") as rec:
            out = fn(*args, **kwargs)
            rec["rows"] = _rows(args, out)
            return out
    return wrapper


def _traced_parser(tracer, build_parser):
    @functools.wraps(build_parser)
    def wrapper():
        with tracer.span("cli", "parse", call=False):
            parser = build_parser()
        parser.parse_args = _stage(tracer, parser.parse_args, "parse")
        return parser
    return wrapper


def _wrappers(cli, tracer) -> dict:
    ns = vars(cli)
    out = {"build_parser": _traced_parser(tracer, ns["build_parser"]),
           "_read_rows": _stage(tracer, ns["_read_rows"], "ingest",
                                fields=lambda path: {"bytes_in": os.path.getsize(path)}),
           # CLI output is ASCII, so its length in characters is its length in bytes.
           "_emit": _stage(tracer, ns["_emit"], "emit", fields=lambda text, output: {"bytes_out": len(text)})}
    out.update((name, _stage(tracer, ns[name], "parse")) for name in PARSE)
    out.update((name, _stage(tracer, ns[name], "ingest")) for name in INGEST)
    out.update((name, _library(tracer, fn)) for name, fn in ns.items()
               if inspect.isfunction(fn) and fn.__module__.startswith("gcoda.")
               and fn.__module__ != cli.__name__ and name != "make_context")
    return out


def replay(cli, argv, tracer, stdout_path: Path) -> Path:
    """Run ``gcoda.cli.main(argv)`` in this process; returns the file it wrote.

    Output the command would print goes to ``stdout_path`` instead.  With a
    :class:`spans.Tracer`, the stages are traced; with :class:`spans.NoTrace`,
    ``main`` runs unwrapped.
    """
    traced = isinstance(tracer, spans.Tracer)
    patches = _wrappers(cli, tracer) if traced else {}
    saved = {name: getattr(cli, name) for name in patches}
    vars(cli).update(patches)
    try:
        with open(stdout_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            with tracer.span("cli", "format", call=False) as rec:
                code = cli.main(list(argv))
    finally:
        vars(cli).update(saved)
    if code != 0:
        raise RuntimeError(f"gcoda {' '.join(argv)} exited with {code}")
    path = Path(_output(argv) or stdout_path)
    if traced:
        if argv not in _values:
            _values[argv] = len(NUMBER.findall(path.read_bytes()))
        rec["values"] = _values[argv]
    return path
