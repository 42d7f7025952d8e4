"""Structured, leveled run logs (the operational complement to traces).

Traces (:mod:`repro.obs.tracer`) answer *what the simulated hardware
did*; run logs answer *what the host process did*: which runs started
on which engine, which workers died, which jobs were admitted, leased,
or dropped.  Every record is an ``event`` name plus key=value fields,
carrying the emitting site's bound context — run/job/cell ids, engine,
config hash, seed — so a JSONL log from a crashed sweep can be joined
against journals and metrics without parsing prose.

Hot-path contract (the :mod:`repro.obs.tracer` pattern)
-------------------------------------------------------
Logging is off by default and instrumented components hold a bound
:class:`RunLogger`; emission costs one module-flag check when
disabled::

    from repro.obs import log as _log

    logger = _log.get_logger("simulator", engine="event")
    ...
    if _log.ENABLED:
        logger.info("run_start", workload="bfs", seed=7)

Levels are the standard four (``DEBUG`` < ``INFO`` < ``WARNING`` <
``ERROR``); records below the configured level are dropped at the
emission site.  Run logs never touch simulated state — results are
byte-identical with logging on or off.

Configuration
-------------
:func:`configure` installs sinks programmatically; CLI entry points
call :func:`configure_from_env`, which reads:

- ``REPRO_LOG_LEVEL`` — ``debug`` / ``info`` / ``warning`` / ``error``
  (presence enables text logging to stderr at that level);
- ``REPRO_LOG_JSONL`` — path; every record is appended as one JSON
  object per line (enables logging at INFO unless ``REPRO_LOG_LEVEL``
  says otherwise).
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO, Union

DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_LEVEL_NAMES = {DEBUG: "DEBUG", INFO: "INFO", WARNING: "WARNING", ERROR: "ERROR"}
_NAME_LEVELS = {name.lower(): level for level, name in _LEVEL_NAMES.items()}

#: Fast-path flag: True exactly while a sink is configured.  Emission
#: sites guard on this, so the disabled cost is one module-attribute
#: load and one branch.
ENABLED = False

#: Minimum level a record needs to be written.
LEVEL = INFO

_SINKS: List["LogSink"] = []


def level_name(level: int) -> str:
    return _LEVEL_NAMES.get(level, str(level))


def parse_level(name: Union[str, int]) -> int:
    """``"debug"``/``"INFO"``/numeric → numeric level (ValueError else)."""
    if isinstance(name, int):
        return name
    level = _NAME_LEVELS.get(str(name).strip().lower())
    if level is None:
        raise ValueError(
            f"unknown log level {name!r}; one of {sorted(_NAME_LEVELS)}"
        )
    return level


class TextLogSink:
    """Human-readable lines: ``HH:MM:SS LEVEL event key=value ...``."""

    def __init__(self, stream: Optional[TextIO] = None):
        self._stream = stream if stream is not None else sys.stderr

    def write(self, record: Dict[str, Any]) -> None:
        ts = time.strftime("%H:%M:%S", time.localtime(record["ts"]))
        parts = [
            ts,
            f"{level_name(record['level']):7s}",
            record["event"],
        ]
        for key, value in record.items():
            if key in ("ts", "level", "event"):
                continue
            parts.append(f"{key}={value}")
        try:
            self._stream.write(" ".join(parts) + "\n")
        except ValueError:  # closed stream (interpreter teardown)
            pass

    def close(self) -> None:
        try:
            self._stream.flush()
        except (ValueError, OSError):
            pass


class JsonlLogSink:
    """One JSON object per record, appended to ``path`` (crash-safe:
    each record is flushed, so a SIGKILL loses at most the line being
    written — the same durability story as the serve journal)."""

    def __init__(self, path_or_file: Union[str, io.TextIOBase]):
        if isinstance(path_or_file, (str, bytes)):
            self._file = open(path_or_file, "a", encoding="utf-8")
            self._owns_file = True
            self.path: Optional[str] = str(path_or_file)
        else:
            self._file = path_or_file
            self._owns_file = False
            self.path = getattr(path_or_file, "name", None)
        self.written = 0

    def write(self, record: Dict[str, Any]) -> None:
        out = dict(record)
        out["level"] = level_name(record["level"])
        try:
            self._file.write(json.dumps(out, sort_keys=True, default=str))
            self._file.write("\n")
            self._file.flush()
        except ValueError:
            return
        self.written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()


LogSink = Union[TextLogSink, JsonlLogSink]


class RunLogger:
    """A named logger carrying bound context fields.

    ``bind(**fields)`` derives a child whose records merge the parent's
    context — the idiom for threading run/job/cell identity through a
    subsystem without plumbing arguments::

        logger = get_logger("serve")
        job_log = logger.bind(job_id=job.id, engine=job.engine)
        job_log.info("lease_granted", worker=worker_id)

    Loggers are cheap, immutable, and safe to keep across
    ``configure``/``reset`` cycles: emission reads the module state at
    call time.
    """

    __slots__ = ("name", "context")

    def __init__(self, name: str, context: Optional[Dict[str, Any]] = None):
        self.name = name
        self.context = dict(context) if context else {}

    def bind(self, **fields: Any) -> "RunLogger":
        merged = dict(self.context)
        merged.update(fields)
        return RunLogger(self.name, merged)

    def log(self, level: int, event: str, **fields: Any) -> None:
        if not ENABLED or level < LEVEL:
            return
        record: Dict[str, Any] = {
            "ts": time.time(),
            "level": level,
            "event": event,
            "logger": self.name,
        }
        record.update(self.context)
        record.update(fields)
        for sink in _SINKS:
            sink.write(record)

    def debug(self, event: str, **fields: Any) -> None:
        self.log(DEBUG, event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log(INFO, event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log(WARNING, event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log(ERROR, event, **fields)


def get_logger(name: str, **context: Any) -> RunLogger:
    """A :class:`RunLogger` named ``name`` with ``context`` pre-bound."""
    return RunLogger(name, context)


def configure(
    level: Union[str, int] = INFO,
    stream: Optional[TextIO] = None,
    jsonl_path: Optional[Union[str, io.TextIOBase]] = None,
    text: bool = True,
) -> None:
    """Install log sinks and raise the fast-path flag.

    Replaces any previous configuration.  ``text=False`` suppresses
    the stderr text sink (JSONL-only logging).
    """
    global ENABLED, LEVEL
    reset()
    sinks: List[LogSink] = []
    if text:
        sinks.append(TextLogSink(stream))
    if jsonl_path is not None:
        sinks.append(JsonlLogSink(jsonl_path))
    if not sinks:
        return
    _SINKS.extend(sinks)
    LEVEL = parse_level(level)
    ENABLED = True


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Configure from ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_JSONL``.

    Returns True when either variable enabled logging.  CLI entry
    points call this once at startup; with neither variable set,
    logging stays off and costs one branch per site.
    """
    env = environ if environ is not None else os.environ
    level = env.get("REPRO_LOG_LEVEL")
    jsonl = env.get("REPRO_LOG_JSONL")
    if not level and not jsonl:
        return False
    configure(
        level=parse_level(level) if level else INFO,
        jsonl_path=jsonl or None,
        text=bool(level),
    )
    return True


def reset() -> None:
    """Close sinks and return to the disabled fast path."""
    global ENABLED, LEVEL
    ENABLED = False
    LEVEL = INFO
    for sink in _SINKS:
        try:
            sink.close()
        except OSError:  # pragma: no cover - best-effort teardown
            pass
    _SINKS.clear()


def sinks() -> List[LogSink]:
    """The configured sinks (tests introspect them)."""
    return list(_SINKS)
