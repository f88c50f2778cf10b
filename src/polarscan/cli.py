"""Command-line front-end.

Subcommands: construct, encode, decode, latency, census, schedule,
simulate, ppc-simulate. Everything prints to stdout unless --out is given.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .codes import _check_bits, build_code, encode as encode_op, extract_info, insert_info
from .fastscan import DecoderSpec
from .latency import latency_table, schedule_latency
from .product import PpcConfig, ProductPolarCode
from .schedule import build_schedule, census_csv, node_census, parse_node_types
from .sequences import load_reliability_sequence
from .simulate import ChannelConfig, parse_ebn0_range, run_ppc_sim, run_sim


def _add_code_args(p):
    p.add_argument("--n", type=int, required=True, help="block length N (power of two)")
    p.add_argument("--k", type=int, required=True, help="information length K")
    p.add_argument("--seq-file", default=None, help="custom reliability sequence file")
    p.add_argument("--method", default="5g", choices=["5g", "bhattacharyya"],
                   help="frozen-set construction")
    p.add_argument("--design-snr", type=float, default=0.0,
                   help="design SNR in dB (bhattacharyya only)")


def _add_decoder_args(p):
    p.add_argument("--decoder", default="scan", choices=["sc", "scan", "fast_scan"])
    p.add_argument("--iters", type=int, default=1, help="soft decoding iterations")
    p.add_argument("--arith", default="minsum", choices=["exact", "minsum"])
    p.add_argument("--node-types", default="default",
                   help="'default', 'all', or comma list, e.g. rep,spc,type1,type3")


def _add_sim_args(p):
    p.add_argument("--ebn0", required=True, help="Eb/N0 points: a:b:step or comma list (dB)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-frames", type=int, default=1_000_000)
    p.add_argument("--min-errors", type=int, default=100)
    p.add_argument("--workers", type=int, default=1)


def _build_code(args):
    seq = load_reliability_sequence(args.seq_file) if args.seq_file else None
    return build_code(args.n, args.k, method=args.method, seq=seq,
                      design_snr_db=args.design_snr)


def _decoder_spec(args) -> DecoderSpec:
    return DecoderSpec(kind=args.decoder, iterations=args.iters, arithmetic=args.arith,
                       node_types=parse_node_types(args.node_types))


def _parse_bits(text: str) -> np.ndarray:
    return _check_bits([int(tok) for tok in text.replace(",", " ").split()])


def _parse_floats(text: str) -> np.ndarray:
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_construct(args):
    _emit(_build_code(args).to_json() + "\n", args.out)


def _cmd_encode(args):
    code = _build_code(args)
    info = _parse_bits(args.info)
    x = encode_op(code, insert_info(code, info))
    _emit(",".join(str(int(b)) for b in x) + "\n", args.out)


def _cmd_decode(args):
    code = _build_code(args)
    if args.llrs is None and args.llr_file is None:
        raise ValueError("decode needs --llrs or --llr-file")
    llrs = _parse_floats(Path(args.llr_file).read_text() if args.llr_file else args.llrs)
    out = _decoder_spec(args).build(code)(llrs)
    u_hat = out.u_hat
    payload = {
        "u_hat": u_hat.astype(int).tolist(),
        "x_hat": out.x_hat.astype(int).tolist(),
        "info": extract_info(code, u_hat).astype(int).tolist(),
    }
    _emit(json.dumps(payload) + "\n", args.out)


def _parse_code_list(text: str):
    pairs = []
    for tok in text.split(","):
        n_str, k_str = tok.strip().split(":")
        pairs.append((int(n_str), int(k_str)))
    return pairs


def _cmd_latency(args):
    types = parse_node_types(args.node_types)
    if args.codes:
        pairs = _parse_code_list(args.codes)
    else:
        if args.n is None or args.k is None:
            raise ValueError("latency needs --codes or both --n and --k")
        pairs = [(args.n, args.k)]
    codes = [build_code(N, K) for N, K in pairs]
    rows = latency_table(codes, enabled_types=types)
    if args.format == "csv":
        lines = ["code,scan_cycles,fast_cycles,gain_pct"]
        lines += [f"{label},{scan},{fast},{g:.1f}" for label, scan, fast, g in rows]
    else:
        lines = [f"{'code':>14} {'SCAN':>8} {'fast-SCAN':>10} {'gain%':>7}"]
        lines += [f"{label:>14} {scan:>8} {fast:>10} {g:>7.1f}" for label, scan, fast, g in rows]
    _emit("\n".join(lines) + "\n", args.out)


def _cmd_census(args):
    code = _build_code(args)
    _emit(census_csv(node_census(code, parse_node_types(args.node_types))), args.out)


def _cmd_schedule(args):
    code = _build_code(args)
    sched = build_schedule(code, parse_node_types(args.node_types))
    report = schedule_latency(sched)
    payload = {
        "N": code.N,
        "K": code.K,
        "node_count": sched.node_count,
        "total_cycles": report.total_cycles,
        "nodes": json.loads(sched.to_json()),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)


def _cmd_simulate(args):
    code = _build_code(args)
    channel = ChannelConfig(ebn0_db=parse_ebn0_range(args.ebn0), seed=args.seed)
    result = run_sim(code, _decoder_spec(args), channel, max_frames=args.max_frames,
                     min_block_errors=args.min_errors, workers=args.workers)
    _emit(result.to_csv(), args.out)


def _cmd_ppc_simulate(args):
    component = _build_code(args)
    ppc = ProductPolarCode(row_code=component, col_code=component)
    cfg = PpcConfig(half_iteration_pairs=args.pairs, inner_scan_iterations=args.iters,
                    arithmetic=args.arith)
    channel = ChannelConfig(ebn0_db=parse_ebn0_range(args.ebn0), seed=args.seed)
    result = run_ppc_sim(ppc, cfg, channel, decoder=args.decoder,
                         max_frames=args.max_frames, min_block_errors=args.min_errors,
                         workers=args.workers)
    _emit(result.to_csv(), args.out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polarscan",
                                 description="Polar code soft decoding toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="print frozen set as JSON")
    _add_code_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode K info bits")
    _add_code_args(p)
    p.add_argument("--info", required=True, help="comma/space separated info bits")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode N channel LLRs")
    _add_code_args(p)
    _add_decoder_args(p)
    p.add_argument("--llrs", default=None, help="comma/space separated channel LLRs")
    p.add_argument("--llr-file", default=None, help="file with channel LLRs")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("latency", help="SCAN vs fast-SCAN cycle counts")
    p.add_argument("--codes", default=None, help="comma list of N:K pairs, e.g. 128:64,256:128")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--node-types", default="default")
    p.add_argument("--format", default="text", choices=["text", "csv"])
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_latency)

    p = sub.add_parser("census", help="special-node tally as CSV")
    _add_code_args(p)
    p.add_argument("--node-types", default="default")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("schedule", help="pruned decoding tree as JSON")
    _add_code_args(p)
    p.add_argument("--node-types", default="default")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("simulate", help="Monte-Carlo BLER/BER, CSV output")
    _add_code_args(p)
    _add_decoder_args(p)
    _add_sim_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ppc-simulate", help="square product code BLER/BER, CSV output")
    _add_code_args(p)
    p.add_argument("--decoder", default="fast_scan", choices=["scan", "fast_scan"])
    p.add_argument("--iters", type=int, default=1, help="inner SCAN iterations per half")
    p.add_argument("--arith", default="minsum", choices=["exact", "minsum"])
    p.add_argument("--pairs", type=int, default=8, help="row+column half-iteration pairs")
    _add_sim_args(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ppc_simulate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
