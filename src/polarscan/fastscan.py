"""Fast-SCAN: the SCAN executor (scan.py) over a pruned schedule.

build_schedule turns each maximal subtree whose frozen pattern matches an
enabled special node into a leaf, an F^j I^(s-j) node whose descriptor
carries j. FastScanDecoder hands each leaf's (stage, index, d.j) to
scan._compile, whose program maps a kernel leaf's demand through
kernels.stair straight to its feedback in one op that carries j; a Rate0
or Rate1 leaf reads its feedback from the prior (see scan.py). Output
contract and iteration semantics match scan_decode; both decoders run the
one decode body scan._decode, and in min-sum and exact arithmetic alike
their outputs are bit-identical.

A pruned subtree never computes its interior messages, so the leaf-level
extrinsic (the stage-0 demands) is filled in after the last iteration, in
closed form, over each kernel leaf's demand in the leaf region of
scan.MessageMemory.
A kernel leaf's subtree splits at each level into a Rate0 or Rate1 child
and a smaller such node, and inside Rate0 and Rate1 nodes every feedback
is a constant once visited. So SCAN's stage-0 demands inside the leaf
follow level by level from the leaf's final demand and, for the feedback
kept from the iteration before, its demand one iteration earlier
(kernels.stair_demands). Leaves of equal stage and frozen count are
filled together, stacked as frames, in the fill groups of the program
scan._compile emits.
"""

from dataclasses import dataclass

import numpy as np

from .codes import PolarCode
from .scan import ScanConfig, ScanDecoder, ScanOutput, _compile, _decode
from .sc import sc_decode
from .schedule import DEFAULT_TYPES, DecodingSchedule, _checked_types, build_schedule


class FastScanDecoder:
    """Schedule-driven SCAN decoder; its outputs equal ScanDecoder's bit
    for bit, in either arithmetic.

    schedule=None prunes DEFAULT_TYPES; a schedule prunes the types it was
    built with, and one built for another frozen mask raises.

    leaf_extrinsic=False skips the stage-0 fill inside pruned subtrees and
    returns None for leaf_extrinsic; useful when only the codeword-side
    outputs are consumed. For the (128,64) code in exact arithmetic, 2
    iterations and 16 frames per call, the fill is about a third of the
    decode time (0.34 in a traced run).
    """

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None,
                 schedule: DecodingSchedule | None = None, leaf_extrinsic: bool = True):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self.schedule = build_schedule(code) if schedule is None else schedule
        if self.schedule.code != code:
            raise ValueError(f"schedule was built for another frozen mask than the ({code.N},{code.K}) code's")
        self.leaf_extrinsic = leaf_extrinsic
        self._ops, self._fills, _ = _program(self.schedule)

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, self.leaf_extrinsic)


def _program(schedule: DecodingSchedule) -> tuple:
    """scan._compile's (ops, fills, cost) of the schedule's pruned tree."""
    return _compile(schedule.code.n, tuple((d.stage, d.index, d.j) for d in schedule.leaves()))


def fast_scan_decode(code: PolarCode, channel_llrs: np.ndarray,
                     cfg: ScanConfig | None = None) -> ScanOutput:
    """Functional wrapper around FastScanDecoder."""
    return FastScanDecoder(code, cfg).decode(channel_llrs)


@dataclass(frozen=True)
class DecoderSpec:
    """Picklable decoder description; build(code) makes its decode callable."""

    kind: str = "scan"               # 'sc' | 'scan' | 'fast_scan'
    iterations: int = 1
    arithmetic: str = "minsum"
    node_types: frozenset = DEFAULT_TYPES

    def __post_init__(self):
        if self.kind not in ("sc", "scan", "fast_scan"):
            raise ValueError(f"unknown decoder kind {self.kind!r}")
        # checked where the spec is made, so a bad one fails before any worker starts
        ScanConfig(iterations=self.iterations, arithmetic=self.arithmetic)
        _checked_types(self.node_types)

    def build(self, code: PolarCode):
        """(batch, N) LLRs -> ScanOutput. SC's soft fields are None, and so is
        fast-SCAN's leaf_extrinsic: callers read u_hat or root_extrinsic."""
        if self.kind == "sc":
            return lambda llrs: sc_decode(code, llrs)
        cfg = ScanConfig(iterations=self.iterations, arithmetic=self.arithmetic)
        if self.kind == "scan":
            dec = ScanDecoder(code, cfg)
        else:
            dec = FastScanDecoder(code, cfg, build_schedule(code, self.node_types), leaf_extrinsic=False)
        return lambda llrs: dec.decode(llrs)   # looked up per call, so a wrapper on decode sees it
