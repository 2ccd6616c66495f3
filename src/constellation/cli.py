"""Command-line entry point.

Machine-readable output goes to stdout as JSON lines; human-readable run
logs (Markdown) and full reports are written to files under ``--out``.
Every flag can also be supplied through an environment variable with the
``CONSTELLATION_`` prefix (e.g. ``CONSTELLATION_SEED=0``); a malformed value
is a usage error (exit 2) in the subcommand that has the flag.

Exit codes:
    validate  0 valid, 1 violations found, 2 unreadable/malformed input
    run       0 SUCCESS, 3 PARTIAL, 4 FAILED, 5 verdict mismatch
    explore   0 ok, 6 golden-stats mismatch, 7 bound exceeded
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .engine import EngineConfig, Orchestrator, ScriptedDispatcher
from .errors import BoundExceeded, ConstellationError, ValidationFailed
from .explorer import GOLDEN_STATS, explore, explore_extended
from .planner import NoopPlanner, ScriptedPlanner, load_script
from .serial import deserialize
from .simnet.mdlog import emit_markdown_log
from .simnet.scenarios import run_scenario

STATS_SCHEMA_VERSION = 1

_EXIT_BY_OUTCOME = {"SUCCESS": 0, "PARTIAL": 3, "FAILED": 4}


def _emit(record: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True) + "\n")


def _env(name: str) -> Optional[str]:
    return os.environ.get(f"CONSTELLATION_{name.upper()}")


def _write_outputs(out: Optional[str], name: str, report_doc: Dict[str, Any], markdown: str) -> None:
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(report_doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / f"{name}.md").write_text(markdown, encoding="utf-8")


# -- validate ------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        constellation = deserialize(Path(args.constellation).read_text(encoding="utf-8"))
    except ValidationFailed as exc:
        for violation in exc.violations:
            _emit({"event": "violation", "kind": violation.kind, "detail": violation.detail})
        _emit(
            {
                "event": "validated",
                "constellation": args.constellation,
                "violations": len(exc.violations),
            }
        )
        return 1
    except (OSError, ConstellationError) as exc:
        _emit({"event": "error", "error": str(exc)})
        return 2
    _emit(
        {
            "event": "validated",
            "constellation": args.constellation,
            "tasks": len(constellation.tasks),
            "edges": len(constellation.edges),
            "violations": 0,
        }
    )
    return 0


# -- run -----------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    if args.seed is None:
        _emit({"event": "error", "error": "--seed is required for run"})
        return 2
    if args.scenario is not None:
        return _run_scenario(args)
    if args.constellation is not None:
        return _run_adhoc(args)
    _emit({"event": "error", "error": "run needs --scenario or --constellation"})
    return 2


def _run_scenario(args: argparse.Namespace) -> int:
    try:
        result = run_scenario(args.scenario, seed=args.seed)
    except (OSError, ConstellationError) as exc:
        _emit({"event": "error", "error": str(exc)})
        return 2
    report = result.report
    outcome = report.outcome.value if report.outcome else "FAILED"
    _write_outputs(args.out, f"scenario{result.scenario_id}", report.as_dict(), result.markdown)
    _emit(
        {
            "event": "run",
            "scenario": result.scenario_id,
            "seed": args.seed,
            "outcome": outcome,
            "finished_at": report.finished_at,
            "result": report.result,
            "verdict_ok": result.verdict_ok,
            "diffs": result.diffs,
        }
    )
    if not result.verdict_ok:
        return 5
    return _EXIT_BY_OUTCOME[outcome]


def _run_adhoc(args: argparse.Namespace) -> int:
    from .clock import VirtualClock

    try:
        constellation = deserialize(Path(args.constellation).read_text(encoding="utf-8"))
        if args.planner_script is not None:
            planner = ScriptedPlanner(load_script(args.planner_script))
        else:
            planner = NoopPlanner()
    except (OSError, ConstellationError) as exc:
        _emit({"event": "error", "error": str(exc)})
        return 2
    clock = VirtualClock()
    engine = Orchestrator(
        clock,
        planner,
        ScriptedDispatcher(clock, default_duration=args.task_duration),
        constellation=constellation,
        config=EngineConfig(deadline=args.deadline),
    )
    report = engine.run()
    outcome = report.outcome.value if report.outcome else "FAILED"
    name = Path(args.constellation).stem
    _write_outputs(args.out, name, report.as_dict(), emit_markdown_log(report))
    _emit(
        {
            "event": "run",
            "constellation": args.constellation,
            "seed": args.seed,
            "outcome": outcome,
            "finished_at": report.finished_at,
            "result": report.result,
        }
    )
    return _EXIT_BY_OUTCOME[outcome]


# -- explore -------------------------------------------------------------


def cmd_explore(args: argparse.Namespace) -> int:
    try:
        if args.mode == "extended":
            stats = explore_extended(max_distinct=args.max_states)
        else:
            stats = explore(max_distinct=args.max_states)
    except BoundExceeded as exc:
        _emit({"event": "error", "error": str(exc)})
        return 7
    doc = {"schema_version": STATS_SCHEMA_VERSION, "mode": args.mode, **stats.as_dict()}
    if args.report is not None:
        Path(args.report).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _emit({"event": "explored", **doc})
    if args.check_golden:
        if args.mode != "tla-mirror":
            _emit({"event": "error", "error": "--check-golden applies to tla-mirror mode only"})
            return 6
        diffs = _golden_diffs(stats.as_dict(), GOLDEN_STATS.as_dict())
        for diff in diffs:
            _emit({"event": "golden-diff", "diff": diff})
        if diffs:
            return 6
    return 0


def _golden_diffs(got: Dict[str, Any], want: Dict[str, Any]) -> List[str]:
    return [
        f"{key}: expected {want[key]!r}, got {got.get(key)!r}"
        for key in want
        if got.get(key) != want[key]
    ]


# -- argument parsing ----------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="constellation", description="Task-constellation orchestration tools"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    validate = sub.add_parser("validate", help="validate a constellation file")
    validate.add_argument("--constellation", required=True)
    validate.set_defaults(handler=cmd_validate)

    run = sub.add_parser("run", help="run a scenario or an ad-hoc constellation")
    run.add_argument("--scenario", type=_scenario_ref, default=_env("SCENARIO"))
    run.add_argument("--constellation", default=_env("CONSTELLATION"))
    run.add_argument("--planner-script", default=_env("PLANNER_SCRIPT"))
    run.add_argument("--seed", type=int, default=_env("SEED"))
    run.add_argument("--out", default=_env("OUT"))
    run.add_argument("--deadline", type=_deadline, default=_env("DEADLINE"))
    run.add_argument("--task-duration", type=_task_duration, default=_env("TASK_DURATION") or "10.0")
    run.set_defaults(handler=cmd_run)

    explore_p = sub.add_parser("explore", help="bounded explicit-state exploration")
    explore_p.add_argument(
        "--mode", type=_mode, choices=_MODES, default=_env("MODE") or "tla-mirror"
    )
    explore_p.add_argument("--max-states", type=int, default=_env("MAX_STATES") or "1000000")
    explore_p.add_argument("--check-golden", action="store_true")
    explore_p.add_argument("--report", default=_env("REPORT"))
    explore_p.set_defaults(handler=cmd_explore)
    return parser


_MODES = ("tla-mirror", "extended")


def _mode(raw: str) -> str:
    """``--mode``'s type: argparse checks ``choices`` only on a value given
    on the command line, so a default from the environment is checked here."""
    if raw not in _MODES:
        choices = ", ".join(map(repr, _MODES))
        raise argparse.ArgumentTypeError(f"invalid choice: {raw!r} (choose from {choices})")
    return raw


def _deadline(raw: str) -> float:
    """``--deadline``'s type, held to ``EngineConfig``'s rule."""
    try:
        return EngineConfig(deadline=float(raw)).deadline
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _task_duration(raw: str) -> float:
    """``--task-duration``'s type: a finite number of seconds, 0 or more."""
    try:
        seconds = float(raw)
        if 0 <= seconds < math.inf:
            return seconds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a finite number of seconds from 0, not {raw!r}")


def _scenario_ref(raw: str) -> Any:
    """Scenario id (small integer) or a path to a scenario file."""
    return int(raw) if raw.isdigit() else raw


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
