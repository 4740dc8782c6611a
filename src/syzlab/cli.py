"""Command-line front end: construct, analyze, verify-theorem, export-ideal."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import SyzlabError
from .harness import (
    analyze_model,
    construct_model,
    load_model,
    render_betti,
    sweep_summary,
    theorem_sweep,
)
from .io import export_ideal_text, save_model, save_report
from .linalg import DEFAULT_PRIME
from .models import CURVE_FAMILIES


def _parse_frame(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"frame needs three comma-separated degrees, got {text!r}"
        )
    return parts[0], parts[1], parts[2]


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    if not hi:
        raise argparse.ArgumentTypeError(
            f"genus range must look like 6..12, got {text!r}"
        )
    return int(lo), int(hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syzlab",
        description=(
            "Exact syzygy analysis of canonical curves over a prime field: "
            "build curve models, count linear syzygies, and compare the "
            "syzygy-quadric span with the curve or a hosting surface."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a curve model and save it")
    c.add_argument("family", choices=sorted(CURVE_FAMILIES))
    c.add_argument("--genus", type=int, default=None)
    c.add_argument("--frame", type=_parse_frame, default=None,
                   help="scroll degrees k1,k2,k3 (4-gonal only)")
    c.add_argument("--a", type=int, default=None, help="first quadric twist (4-gonal only)")
    c.add_argument("--b", type=int, default=None, help="second quadric twist (4-gonal only)")
    c.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default="model.json")

    a = sub.add_parser("analyze", help="run the syzygy analysis on a saved model")
    a.add_argument("model_path")
    a.add_argument("--betti-max-p", type=int, default=None,
                   help="also compute the kappa grid up to this column")
    a.add_argument("--out", default="report.json")

    v = sub.add_parser("verify-theorem", help="sweep the classification over a genus range")
    v.add_argument("--genus-range", type=_parse_range, default=(5, 12),
                   help="inclusive range, e.g. 11..12")
    v.add_argument("--trials", type=int, default=1)
    v.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None, help="optional JSON record file")

    e = sub.add_parser("export-ideal", help="write generators as plain text")
    e.add_argument("model_path")
    e.add_argument("--out", default="ideal.txt")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SyzlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "construct":
        model = construct_model(
            args.family,
            genus=args.genus,
            prime=args.prime,
            seed=args.seed,
            frame=args.frame,
            a=args.a,
            b=args.b,
        )
        save_model(model, args.out)
        print(f"dim I2 = {model.quadrics.dim}")
        print(f"wrote {args.out}")
        return 0

    if args.command == "analyze":
        model = load_model(args.model_path)
        report = analyze_model(model, betti_max_p=args.betti_max_p)
        save_report(report, args.out)
        print(
            f"{'PASS' if report['passed'] else 'FAIL'} kappa21 = {report['kappa21']}  "
            f"dim_W = {report['dim_W']}  hilbert3 = {report['hilbert3']}  "
            f"verdict = {report['verdict']}  "
            f"expected = {report['expected_verdict']}"
        )
        if report["betti"] is not None:
            print(render_betti(report["betti"]))
        print(f"wrote {args.out}")
        return 0 if report["passed"] else 1

    if args.command == "verify-theorem":
        lo, hi = args.genus_range
        records, ok = theorem_sweep(
            genus_lo=lo, genus_hi=hi, trials=args.trials, prime=args.prime, seed=args.seed
        )
        print(sweep_summary(records))
        if args.out:
            save_report({"records": records, "all_passed": ok}, args.out)
            print(f"wrote {args.out}")
        return 0 if ok else 1

    if args.command == "export-ideal":
        model = load_model(args.model_path)
        text = export_ideal_text(model)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({model.quadrics.dim} generators)")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
