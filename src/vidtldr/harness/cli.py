"""Command-line entry point.

Subcommands:
    run <config>...       execute runs, write artifacts, print summaries
    flops <config>        print the analytical per-layer FLOPs table
    temporal-bias <config>   print/write the per-frame score-ratio table
    compare <dir> <dir>...   compare completed runs against the first
    dump-saliency <config>   dump per-layer masked saliency of a clean forward

Exit codes: 0 success, 1 I/O failure, 2 config parse error,
3 config or schedule invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from pathlib import Path

import numpy as np

from .. import costmodel, saliency
from .config import ConfigError, InvariantError, load_config
from .runner import RATIO_HEADER, clean_forward, compare, compute_frame_ratios, run
from .tensorio import dump_tensor

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _cmd_run(args) -> int:
    for path in args.config:
        res = run(load_config(path))
        print(
            f"run {res.run_id} mode={res.config.mode} "
            f"total_flops={res.cost.total_flops} out={res.out_dir}"
        )
    return EXIT_OK


def _cmd_flops(args) -> int:
    cfg = load_config(args.config)
    cost_cfg = cfg.cost_config()
    report = costmodel.schedule_flops(cost_cfg, cfg.schedule)
    w = csv.writer(sys.stdout)
    w.writerow(["layer", "tokens_in", "tokens_out", "flops"])
    n = cost_cfg.n0
    for l, (fl, n_out) in enumerate(zip(report.per_layer_flops, report.token_trajectory)):
        w.writerow([l, n, n_out, fl])
        n = n_out
    w.writerow(["total", "", "", report.total_flops])
    return EXIT_OK


def _cmd_temporal_bias(args) -> int:
    cfg = load_config(args.config)
    ratios = compute_frame_ratios(clean_forward(cfg)[2])

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(RATIO_HEADER)
    for g in range(ratios.shape[0]):
        w.writerow([g] + [repr(float(x)) for x in ratios[g]])
    text = buf.getvalue()

    out_dir = Path(cfg.out_dir) / cfg.run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "frame_ratio.csv").write_text(text)
    sys.stdout.write(text)
    for name, col in zip(RATIO_HEADER[1:], ratios.T):
        print(f"std {name} = {float(np.std(col)):.6f}", file=sys.stderr)
    return EXIT_OK


def _cmd_dump_saliency(args) -> int:
    cfg = load_config(args.config)
    clean = clean_forward(cfg)[2]
    per_layer = np.stack(
        [saliency.masked_saliency_from_map(m) for m in clean.head_mean_maps()]
    ).astype(np.float32)
    out_dir = Path(cfg.out_dir) / cfg.run_id
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "saliency.vtdr"
    dump_tensor(path, per_layer)
    for l in range(per_layer.shape[0]):
        row = per_layer[l]
        print(
            f"layer {l}: mean={row.mean():.4f} "
            f"foreground={int((row > 0).sum())}/{row.shape[0]}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    header, rows = compare(args.dirs)
    w = csv.writer(sys.stdout)
    w.writerow(header)
    w.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="vidtldr",
        description="Saliency-aware token merging experiments on a toy video transformer.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="execute one or more configured runs")
    sp.add_argument("config", nargs="+", help="path to a key = value config file")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("flops", help="print the analytical FLOPs table for a config")
    sp.add_argument("config")
    sp.set_defaults(fn=_cmd_flops)

    sp = sub.add_parser(
        "temporal-bias", help="per-frame score ratios of the three estimators"
    )
    sp.add_argument("config")
    sp.set_defaults(fn=_cmd_temporal_bias)

    sp = sub.add_parser("compare", help="compare completed run directories")
    sp.add_argument("dirs", nargs="+", help="run output directories (first is reference)")
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser(
        "dump-saliency", help="dump per-layer masked saliency of a no-reduction forward"
    )
    sp.add_argument("config")
    sp.set_defaults(fn=_cmd_dump_saliency)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (InvariantError, costmodel.InfeasibleScheduleError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
