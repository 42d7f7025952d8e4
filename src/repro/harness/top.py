"""``python -m repro.harness top`` — live ops view over the metrics.

The one ops view of a running daemon (curses full-screen when
available, plain text frames otherwise), rendered from the Prometheus
exposition the repo already publishes: scrape a running
``repro.serve`` daemon's ``/metrics`` endpoint with ``--url``, or
follow a textfile-collector scrape with ``--file``.  Shows queue
depth, live leases, cache reuse, per-engine simulated throughput
(scrape-to-scrape rate), and the in-flight sweep's projected remaining
seconds.

Usage::

    python -m repro.harness top --url http://127.0.0.1:8750
    python -m repro.harness top --file metrics.prom --interval 1
    python -m repro.harness top --url ... --once --plain   # one frame

Observation-only: nothing here feeds back into simulations or the
server.  ``q`` quits the curses view; Ctrl-C quits either view.

A vanished daemon does not kill the view: the last good frame stays on
screen under a ``DISCONNECTED`` banner while the scraper reconnects
through the shared decorrelated-jitter backoff — restart the daemon
and the view heals itself.  When the daemon publishes ``dist_*``
metrics (a coordinator is enabled), a fleet row appears: live workers,
cells by state, fenced pushes, expired leases — flagged ``DEGRADED``
when cells are pending but no worker is live.
"""

from __future__ import annotations

import argparse
import http.client
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.backoff import Backoff
from repro.prof.export import parse_prometheus

#: Failures that mean "the daemon is unreachable", not "bad data".
_SCRAPE_ERRORS = (
    OSError,
    ValueError,
    urllib.error.URLError,
    http.client.HTTPException,
)

Samples = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def scrape_url(url: str, timeout_s: float = 5.0) -> str:
    """Fetch ``<url>/metrics`` (or ``url`` verbatim if it already ends
    with ``/metrics``)."""
    target = url if url.rstrip("/").endswith("/metrics") else (
        url.rstrip("/") + "/metrics"
    )
    with urllib.request.urlopen(target, timeout=timeout_s) as response:
        return response.read().decode("utf-8")


def scrape_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _value(samples: Samples, name: str, **labels: str) -> Optional[float]:
    return samples.get((name, tuple(sorted(labels.items()))))


def _by_label(samples: Samples, name: str, label: str) -> Dict[str, float]:
    """Sum the family's series grouped by one label's value."""
    out: Dict[str, float] = {}
    for (sample_name, labels), value in samples.items():
        if sample_name != name:
            continue
        key = dict(labels).get(label, "(unlabeled)")
        out[key] = out.get(key, 0.0) + value
    return out


def _fmt(value: Optional[float], suffix: str = "") -> str:
    if value is None:
        return "-"
    if float(value).is_integer():
        return f"{int(value)}{suffix}"
    return f"{value:.1f}{suffix}"


class TopView:
    """Turns successive metric scrapes into rendered frames.

    Holds the previous scrape's per-engine cycle totals, so the
    throughput column is a true scrape-to-scrape rate rather than a
    since-start average.
    """

    def __init__(self, source: str):
        self.source = source
        self._prev: Dict[str, Tuple[float, float]] = {}
        self.frames = 0
        #: Last successfully rendered frame (shown while disconnected).
        self.last_good: Optional[str] = None
        #: Monotonic instant the current outage began (None = healthy).
        self.disconnected_since: Optional[float] = None

    # -- model ---------------------------------------------------------

    def build(self, samples: Samples, now: float) -> Dict[str, Any]:
        engines: List[Dict[str, Any]] = []
        cycles = _by_label(samples, "sim_cycles", "engine")
        instructions = _by_label(samples, "sim_instructions", "engine")
        for engine in sorted(cycles):
            total = cycles[engine]
            prev = self._prev.get(engine)
            rate: Optional[float] = None
            if prev is not None and now > prev[0]:
                rate = max(0.0, (total - prev[1]) / (now - prev[0]))
            self._prev[engine] = (now, total)
            engines.append(
                {
                    "engine": engine,
                    "cycles": int(total),
                    "instructions": int(instructions.get(engine, 0)),
                    "cycles_per_s": rate,
                }
            )
        cells = _by_label(samples, "sweep_cells_total", "source")
        cell_sum = _value(samples, "sweep_cell_seconds_sum")
        cell_count = _value(samples, "sweep_cell_seconds_count")
        mean_cell = (
            cell_sum / cell_count if cell_sum and cell_count else None
        )
        in_flight_cells = _value(samples, "sweep_in_flight")
        sweep_eta = (
            in_flight_cells * mean_cell
            if in_flight_cells and mean_cell is not None
            else None
        )
        view: Dict[str, Any] = {
            "engines": engines,
            "cells": {
                "simulated": int(cells.get("simulated", 0)),
                "cache": int(cells.get("cache", 0)),
                "failed": int(cells.get("failed", 0)),
            },
            "sweep": {
                "in_flight": (
                    int(in_flight_cells) if in_flight_cells is not None else 0
                ),
                "mean_cell_s": mean_cell,
                "eta_s": sweep_eta,
            },
            "serve": None,
        }
        queue_depth = _value(samples, "serve_queue_depth")
        if queue_depth is not None:
            terminal = _by_label(samples, "serve_jobs_terminal_total", "state")
            view["serve"] = {
                "queue_depth": int(queue_depth),
                "in_flight": int(_value(samples, "serve_in_flight") or 0),
                "slots": int(_value(samples, "serve_slots") or 0),
                "ready": (_value(samples, "serve_ready") or 0) >= 1,
                "done": int(terminal.get("done", 0)),
                "failed": int(terminal.get("failed", 0)),
                "rejections": sum(
                    _by_label(
                        samples, "serve_admission_rejections_total", "reason"
                    ).values()
                ),
                "expirations": _value(
                    samples, "serve_lease_expirations_total"
                )
                or 0,
            }
        view["dist"] = None
        dist_cells = _by_label(samples, "dist_cells", "state")
        workers_live = _value(samples, "dist_workers_live")
        if dist_cells or workers_live is not None:
            queued = int(dist_cells.get("queued", 0))
            running = int(dist_cells.get("running", 0))
            view["dist"] = {
                "workers_live": int(workers_live or 0),
                "queued": queued,
                "running": running,
                "done": int(dist_cells.get("done", 0)),
                "failed": int(dist_cells.get("failed", 0)),
                "stale": sum(
                    _by_label(
                        samples, "dist_stale_results_total", "reason"
                    ).values()
                ),
                "expirations": _value(
                    samples, "dist_lease_expirations_total"
                )
                or 0,
                "degraded": int(workers_live or 0) == 0
                and (queued + running) > 0,
            }
        return view

    # -- rendering -----------------------------------------------------

    def render(self, samples: Samples, now: Optional[float] = None) -> str:
        if now is None:
            now = time.monotonic()
        view = self.build(samples, now)
        self.frames += 1
        lines = [
            f"repro top — {self.source} — "
            f"{time.strftime('%H:%M:%S')} (frame {self.frames})",
            "",
        ]
        serve = view["serve"]
        if serve is not None:
            status = "ready" if serve["ready"] else "NOT READY"
            lines.append(
                f"serve    {status} · queue {serve['queue_depth']} · "
                f"in-flight {serve['in_flight']} · slots {serve['slots']}"
            )
            lines.append(
                f"jobs     done {serve['done']} · failed {serve['failed']}"
                f" · rejected {_fmt(serve['rejections'])}"
                f" · leases expired {_fmt(serve['expirations'])}"
            )
            lines.append("")
        dist = view["dist"]
        if dist is not None:
            fleet = (
                "DEGRADED (cells pending, no live workers)"
                if dist["degraded"]
                else f"{dist['workers_live']} worker(s) live"
            )
            lines.append(
                f"dist     {fleet} · cells queued {dist['queued']} · "
                f"running {dist['running']} · done {dist['done']} · "
                f"failed {dist['failed']}"
            )
            lines.append(
                f"         stale pushes {_fmt(dist['stale'])} · "
                f"leases expired {_fmt(dist['expirations'])}"
            )
            lines.append("")
        cells = view["cells"]
        lines.append(
            f"cells    simulated {cells['simulated']} · reused "
            f"{cells['cache']} · failed {cells['failed']}"
        )
        sweep = view["sweep"]
        lines.append(
            f"sweep    in-flight {sweep['in_flight']}"
            f" · mean cell {_fmt(sweep['mean_cell_s'], 's')}"
            f" · eta {_fmt(sweep['eta_s'], 's')}"
        )
        lines.append("")
        lines.append(
            f"{'engine':10s} {'sim cycles':>14s} {'instructions':>14s} "
            f"{'cycles/s':>12s}"
        )
        if view["engines"]:
            for row in view["engines"]:
                lines.append(
                    f"{row['engine']:10s} {row['cycles']:>14,d} "
                    f"{row['instructions']:>14,d} "
                    f"{_fmt(row['cycles_per_s']):>12s}"
                )
        else:
            lines.append("(no simulations recorded yet)")
        return "\n".join(lines)


def _render_disconnected(view: TopView, error: Exception) -> str:
    """The degraded frame: a banner over the last good data.

    The view never blanks on an outage — operators keep the most
    recent numbers, clearly labeled stale, while the scraper
    reconnects with backoff.
    """
    if view.disconnected_since is None:
        view.disconnected_since = time.monotonic()
    age = time.monotonic() - view.disconnected_since
    banner = (
        f"repro top — {view.source} — {time.strftime('%H:%M:%S')}\n"
        f"*** DISCONNECTED {age:.0f}s — {type(error).__name__}: {error}\n"
        f"*** reconnecting with backoff; frame below is the last "
        f"received"
    )
    if view.last_good is None:
        return banner + "\n\n(no frame ever received from this source)"
    return banner + "\n\n" + view.last_good


def _frame(view: TopView, scrape) -> Tuple[str, bool]:
    """One rendered frame; False when the scrape failed."""
    try:
        samples = parse_prometheus(scrape())
    except _SCRAPE_ERRORS as exc:
        return _render_disconnected(view, exc), False
    view.disconnected_since = None
    text = view.render(samples)
    view.last_good = text
    return text, True


def _retry_delay(interval_s: float, backoff: Backoff) -> float:
    """Reconnect cadence while disconnected: jittered, never slower
    than the healthy refresh (a restarted daemon shows up fast)."""
    return min(interval_s, max(0.1, backoff.next()))


def _run_plain(
    view: TopView,
    scrape,
    interval_s: float,
    once: bool,
    sleep=time.sleep,
) -> int:
    backoff = Backoff()
    while True:
        text, ok = _frame(view, scrape)
        print(text, flush=True)
        if once:
            return 0 if ok else 1
        print("-" * 72, flush=True)
        if ok:
            backoff.reset()
            delay = interval_s
        else:
            delay = _retry_delay(interval_s, backoff)
        try:
            sleep(delay)
        except KeyboardInterrupt:
            return 0


def _run_curses(view: TopView, scrape, interval_s: float) -> int:
    import curses

    def loop(screen) -> int:
        curses.use_default_colors()
        backoff = Backoff()
        while True:
            text, ok = _frame(view, scrape)
            if ok:
                backoff.reset()
                screen.timeout(int(interval_s * 1000))
            else:
                screen.timeout(
                    int(_retry_delay(interval_s, backoff) * 1000)
                )
            screen.erase()
            max_y, max_x = screen.getmaxyx()
            for y, line in enumerate(text.splitlines()):
                if y >= max_y - 1:
                    break
                screen.addnstr(y, 0, line, max_x - 1)
            footer = "q quits · refresh every " f"{interval_s:g}s"
            if max_y >= 2:
                screen.addnstr(max_y - 1, 0, footer, max_x - 1)
            screen.refresh()
            try:
                key = screen.getch()
            except KeyboardInterrupt:
                return 0
            if key in (ord("q"), ord("Q")):
                return 0

    try:
        return curses.wrapper(loop)
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness top",
        description="Live terminal view over the published metrics.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--url",
        help="repro.serve base URL (its /metrics endpoint is scraped)",
    )
    source.add_argument(
        "--file",
        help="Prometheus textfile scrape to read each frame",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="render a single frame to stdout and exit "
        "(exit 1 if the scrape failed)",
    )
    parser.add_argument(
        "--plain",
        action="store_true",
        help="plain text frames (no curses); implied by --once or a "
        "non-tty stdout",
    )
    args = parser.parse_args(argv)

    if args.url:
        source_label = args.url
        scrape = lambda: scrape_url(args.url)  # noqa: E731
    else:
        source_label = args.file
        scrape = lambda: scrape_file(args.file)  # noqa: E731
    view = TopView(source_label)
    interval = max(0.1, args.interval)
    if args.once:
        return _run_plain(view, scrape, interval, once=True)
    if args.plain or not sys.stdout.isatty():
        return _run_plain(view, scrape, interval, once=False)
    try:
        import curses  # noqa: F401
    except ImportError:  # pragma: no cover - curses is stdlib on linux
        return _run_plain(view, scrape, interval, once=False)
    return _run_curses(view, scrape, interval)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
