"""Command-line entry point for the experiment harness.

Exit codes: 0 when the run's embedded assertions pass, 1 when they fail
(or the run raises), 2 for usage or configuration errors, which
``validate`` and ``run`` find alike: ``D <= 10 * gamma`` is one.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ConfigError, ExperimentConfig, list_experiments, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustlab",
        description="Seeded experiment harness for robust-classification constructions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the JSON config file")
    p_run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (params.* reaches into parameters)",
    )

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True)

    sub.add_parser("list-experiments", help="list registered experiments")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list-experiments":
        for name, description in list_experiments():
            print(f"{name:<20} {description}")
        return 0

    try:
        config = ExperimentConfig.from_file(args.config)
        if args.command == "run" and args.overrides:
            config = config.with_overrides(args.overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print(f"config ok: experiment={config.experiment} seed={config.seed}")
        return 0

    record = run(config)
    print(json.dumps(record.summary, sort_keys=True, default=str))
    if config.output_path:
        print(f"wrote {config.output_path} ({len(record.rows)} rows)")
    print(f"assertions: {'pass' if record.assertions_passed else 'FAIL'}")
    return 0 if record.assertions_passed else 1


if __name__ == "__main__":
    sys.exit(main())
