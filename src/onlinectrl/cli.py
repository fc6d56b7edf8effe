"""Command-line front end: run batches, print constants, certify gains.

Exit codes: 0 on success, 2 when the config or arguments fail
validation or the outputs cannot be written to --out, 3 when a batch
runs but fails (too many diverged episodes).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .harness import (build_experiment, compute_theory_constants, config_hash,
                      load_config, run_batch)
from .stability import CertificationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BATCH_FAILED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onlinectrl",
        description="online control of known linear systems under "
                    "unbounded stochastic noise")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a seeded regret-scaling batch")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--trace", action="store_true",
                       help="write per-step JSONL traces")
    p_run.add_argument("--out", default="run_out", help="output directory")
    p_run.add_argument("--workers", type=int, default=1,
                       help="process pool size (1 runs in-process)")

    p_const = sub.add_parser("constants",
                             help="print regret-bound constants as JSON")
    p_const.add_argument("--config", required=True)

    p_cert = sub.add_parser("certify",
                            help="check strong stability of the configured "
                                 "gain and comparator candidates")
    p_cert.add_argument("--config", required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run" and args.workers < 1:
        print("invalid arguments: --workers must be >= 1", file=sys.stderr)
        return EXIT_INVALID

    try:
        doc = load_config(args.config)
        exp = build_experiment(doc)
        if args.command == "constants":
            constants = compute_theory_constants(exp)
        elif args.command == "run":  # rejects overflowing constants before any episode
            report = run_batch(exp, out_dir=args.out, trace=args.trace,
                               workers=args.workers)
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        for v in exc.violations:
            print(f"  violated: {v}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MemoryError as exc:  # e.g. a grid count or horizon far past the address space
        print(f"invalid config: too large to allocate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:  # load_config raises ValueError and jobs open no file: --out failed
        print(f"cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "constants":
        print(json.dumps(constants.to_json_dict(), sort_keys=True, indent=2))
        return EXIT_OK

    if args.command == "certify":
        out = {
            "config_hash": config_hash(doc),
            "gain": exp.cert.summary(),
            "candidates_certified": len(exp.candidates),
        }
        print(json.dumps(out, sort_keys=True, indent=2))
        return EXIT_OK

    for row in report.rows:
        print(f"T={row['T']:>6d}  median_regret={_num(row['regret_median'])}"
              f"  q90={_num(row['regret_q90'])}  seeds={row['seed_count']}")
    slope = "n/a" if report.slope is None else f"{report.slope:.4f}"
    print(f"slope={slope}  divergences={len(report.divergences)}")
    print(f"outputs written to {args.out}")
    if report.failed:
        print("batch failed: more than 20% of episodes diverged",
              file=sys.stderr)
        return EXIT_BATCH_FAILED
    return EXIT_OK


def _num(x: float) -> str:
    return "nan" if x != x else f"{x:.6g}"


if __name__ == "__main__":
    sys.exit(main())
