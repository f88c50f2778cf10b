"""Fast-SCAN: the SCAN executor (scan.py) over a pruned schedule.

build_schedule turns each maximal subtree whose frozen pattern matches an
enabled special node into a leaf. Each leaf compiles to one op that maps
the node's current demand vector through its closed-form kernel straight
to its feedback. Output contract and iteration semantics match
scan_decode; both decoders run the one decode body scan._decode, and in
min-sum and exact arithmetic alike their outputs are bit-identical.

A pruned subtree never computes its interior messages, so the leaf-level
extrinsic lam[0] is reconstructed afterwards: a subtree only ever sees the
demand vector its parent writes, so replaying a local SCAN on the logged
per-iteration demands reproduces the interior evolution exactly. The
replay is the same executor, run over the unpruned subtree once per stage
and iteration: the pruned leaves of one stage are stacked as extra frames.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .codes import PolarCode
from .scan import ScanConfig, ScanDecoder, ScanOutput, _compile, _decode
from .sc import sc_decode
from .schedule import DEFAULT_TYPES, DecodingSchedule, NodeType, _checked_types, build_schedule

# NodeType -> kernel(demand, arithmetic). Kernels are looked up in their
# module at call time, so a wrapper installed on polarscan.kernels sees them.
_KERNELS = {
    NodeType.RATE0: lambda lam, arithmetic: kernels.rate0_update(lam.shape),
    NodeType.RATE1: lambda lam, arithmetic: kernels.rate1_update(lam.shape),
    NodeType.REP: lambda lam, arithmetic: kernels.rep_update(lam),
    NodeType.SPC: lambda lam, arithmetic: kernels.spc_update(lam, arithmetic),
    NodeType.TYPE_I: lambda lam, arithmetic: kernels.type1_update(lam),
    NodeType.TYPE_III: lambda lam, arithmetic: kernels.type3_update(lam, arithmetic),
    NodeType.TYPE_II: lambda lam, arithmetic: kernels.type2_update(lam, arithmetic),
    NodeType.TYPE_IV: lambda lam, arithmetic: kernels.type4_update(lam, arithmetic),
}


class FastScanDecoder:
    """Schedule-driven SCAN decoder; its outputs equal ScanDecoder's bit
    for bit, in either arithmetic.

    schedule=None prunes DEFAULT_TYPES; a schedule prunes the types it was
    built with, and one built for another frozen mask raises.

    leaf_extrinsic=False skips the lam[0] reconstruction inside pruned
    subtrees and returns None for leaf_extrinsic; useful when only the
    codeword-side outputs are consumed. For the (128,64) code in exact
    arithmetic, 2 iterations and 16 frames per call, the reconstruction is
    about 60% of the decode time (0.62 in a traced run).
    """

    def __init__(self, code: PolarCode, cfg: ScanConfig | None = None,
                 schedule: DecodingSchedule | None = None, leaf_extrinsic: bool = True):
        self.code = code
        self.cfg = cfg or ScanConfig()
        self.schedule = build_schedule(code) if schedule is None else schedule
        if self.schedule.code != code:
            raise ValueError(f"schedule was built for another frozen mask than the ({code.N},{code.K}) code's")
        self.leaf_extrinsic = leaf_extrinsic
        # stage-0 leaves emit no op: their feedback is the constant beta[0]
        self._ops = _compile(code.n, {(d.stage, d.index): _KERNELS[d.kind]
                                      for d in self.schedule.leaves() if d.stage > 0})

    def decode(self, channel_llrs: np.ndarray) -> ScanOutput:
        return _decode(self, channel_llrs, self.leaf_extrinsic)


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
        # checked here, not first in a pool initializer, which would respawn forever
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
