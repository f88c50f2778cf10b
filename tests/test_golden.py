"""Pinned decoder outputs on the benchmark codes.

Every output of SC, SCAN, fast-SCAN and product decoding is hashed (SHA-256
over dtype, shape and bytes of each field) and compared with a digest
recorded from a known-good build. The oracle and equality tests compare
decoders with each other; these pins catch a change that moves them all
alike. Inputs are exact binary fractions from integer arithmetic, not a
random stream, and only min-sum is pinned (exact box-plus goes through exp
and log1p, whose last bit may differ between numpy builds), so the digests
hold on every platform. A change that alters outputs on purpose records new
digests and says why.
"""

import hashlib

import numpy as np
import pytest

from polarscan import (
    DEFAULT_TYPES,
    KERNEL_TYPES,
    FastScanDecoder,
    PpcConfig,
    ProductPolarCode,
    ScanConfig,
    ScanDecoder,
    build_code,
    build_schedule,
    ppc_decode,
    sc_decode,
)

SCAN_FIELDS = ("leaf_extrinsic", "root_extrinsic", "x_hat", "u_hat")
PPC_FIELDS = ("x_hat", "info_hat", "iterations_used")
FRAMES = {1024: 3, 128: 8}
TYPES = {"default": DEFAULT_TYPES, "all": KERNEL_TYPES}


def exact_llrs(shape, shift=0):
    """Eighths in [-1.5, 2.25] (zeros included) from the flat index, with
    +-2^21 (beyond the channel clamp) at every 97th position."""
    k = np.arange(int(np.prod(shape))).reshape(shape)
    llrs = ((k * 29 + 7) % 31 - 12 + shift) / 8.0
    llrs[k % 97 == 0] = 2.0 ** 21
    llrs[k % 97 == 50] = -(2.0 ** 21)
    return llrs


def digest(out, fields) -> str:
    h = hashlib.sha256()
    for name in fields:
        value = getattr(out, name)
        if value is None:
            h.update(f"{name}:None;".encode())
            continue
        value = np.ascontiguousarray(value)
        h.update(f"{name}:{value.dtype.str}:{value.shape};".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def decoder_cases():
    for N, K in ((1024, 512), (128, 64)):
        yield f"{N}-{K}-sc"
        for iters in (1, 2, 3):
            yield f"{N}-{K}-scan-{iters}"
            for types in TYPES:
                for leaf in ("leaf", "noleaf"):
                    yield f"{N}-{K}-fast_scan-{types}-{leaf}-{iters}"


def decode_case(case):
    N, K, kind, *rest = case.split("-")
    code = build_code(int(N), int(K))
    llrs = exact_llrs((FRAMES[code.N], code.N))
    if kind == "sc":
        return sc_decode(code, llrs)
    cfg = ScanConfig(iterations=int(rest[-1]), arithmetic="minsum")
    if kind == "scan":
        return ScanDecoder(code, cfg).decode(llrs)
    schedule = build_schedule(code, TYPES[rest[0]])
    return FastScanDecoder(code, cfg, schedule, leaf_extrinsic=rest[1] == "leaf").decode(llrs)


def ppc_case(kind):
    """Six (64,57)^2 frames of positive eighths in [0.5, 4.25], frame f with
    its signs flipped where (13k + f) % 512 < f; some stop early, some not."""
    code = build_code(64, 57)
    k = np.arange(64 * 64).reshape(64, 64)
    llrs = np.stack([np.where((k * 13 + f) % 512 < f, -1.0, 1.0) * ((k * 29 + 7) % 31 + 4) / 8.0
                     for f in range(1, 7)])
    return ppc_decode(ProductPolarCode(code, code), llrs, PpcConfig(half_iteration_pairs=4), decoder=kind)


GOLDEN = {
    "1024-512-sc": "5b44febfdb2267821a2c2111b9a64d11fb7035ca41495dca63a2368687d79dae",
    "1024-512-scan-1": "1e8cbeae4a1e12e8d12428f7af918900f03edfce0de579ba716575fac6b3fcd9",
    "1024-512-fast_scan-default-leaf-1": "1e8cbeae4a1e12e8d12428f7af918900f03edfce0de579ba716575fac6b3fcd9",
    "1024-512-fast_scan-default-noleaf-1": "7e0088b31fb409fda029ec1534aae712c670eaf2ac94489076ab7fd2e48d3995",
    "1024-512-fast_scan-all-leaf-1": "1e8cbeae4a1e12e8d12428f7af918900f03edfce0de579ba716575fac6b3fcd9",
    "1024-512-fast_scan-all-noleaf-1": "7e0088b31fb409fda029ec1534aae712c670eaf2ac94489076ab7fd2e48d3995",
    "1024-512-scan-2": "1861424abf7537e2cbe41d581eeafff38962ea8748d9599bb3c5453d2c465bce",
    "1024-512-fast_scan-default-leaf-2": "1861424abf7537e2cbe41d581eeafff38962ea8748d9599bb3c5453d2c465bce",
    "1024-512-fast_scan-default-noleaf-2": "8d90a218f8af4a10e53ed607fa2ca4e49b500911de5df2e58fe3356ebbd34ee8",
    "1024-512-fast_scan-all-leaf-2": "1861424abf7537e2cbe41d581eeafff38962ea8748d9599bb3c5453d2c465bce",
    "1024-512-fast_scan-all-noleaf-2": "8d90a218f8af4a10e53ed607fa2ca4e49b500911de5df2e58fe3356ebbd34ee8",
    "1024-512-scan-3": "4a9f4b9107c8e89e12bc91bd555b4f9a1e555fb5afb3557842aea90672bf7ced",
    "1024-512-fast_scan-default-leaf-3": "4a9f4b9107c8e89e12bc91bd555b4f9a1e555fb5afb3557842aea90672bf7ced",
    "1024-512-fast_scan-default-noleaf-3": "301811f6e039658517a1f139a9af2d7fc17eb8bf17cf229b8b8415682fa212e7",
    "1024-512-fast_scan-all-leaf-3": "4a9f4b9107c8e89e12bc91bd555b4f9a1e555fb5afb3557842aea90672bf7ced",
    "1024-512-fast_scan-all-noleaf-3": "301811f6e039658517a1f139a9af2d7fc17eb8bf17cf229b8b8415682fa212e7",
    "128-64-sc": "c855cefcc8733ff60a8f24d2106860cfa8dd1a70e8a7d87ab7cf65b388d90e7d",
    "128-64-scan-1": "9fe31a0f61b83b7f89e07f9e452ee8870a1b5fee94d4689ac6716e664d11c0ce",
    "128-64-fast_scan-default-leaf-1": "9fe31a0f61b83b7f89e07f9e452ee8870a1b5fee94d4689ac6716e664d11c0ce",
    "128-64-fast_scan-default-noleaf-1": "5ad7ce95567afff79ee4a6c26f098d4773117b057b1f00073fe76de75351704b",
    "128-64-fast_scan-all-leaf-1": "9fe31a0f61b83b7f89e07f9e452ee8870a1b5fee94d4689ac6716e664d11c0ce",
    "128-64-fast_scan-all-noleaf-1": "5ad7ce95567afff79ee4a6c26f098d4773117b057b1f00073fe76de75351704b",
    "128-64-scan-2": "def5e7fa71aa3151a23f289596a364be4c946ffcd701b60cf0824e10f5beeed3",
    "128-64-fast_scan-default-leaf-2": "def5e7fa71aa3151a23f289596a364be4c946ffcd701b60cf0824e10f5beeed3",
    "128-64-fast_scan-default-noleaf-2": "5d5adb4c1681940f7e274146bc0b246b13d161dabd2b21d78c9fdb9cd002671d",
    "128-64-fast_scan-all-leaf-2": "def5e7fa71aa3151a23f289596a364be4c946ffcd701b60cf0824e10f5beeed3",
    "128-64-fast_scan-all-noleaf-2": "5d5adb4c1681940f7e274146bc0b246b13d161dabd2b21d78c9fdb9cd002671d",
    "128-64-scan-3": "9fbfa1d9e0b9b544560c2bddb4a14b1a808ba8176ec829ddb4fbf65ef29f3ebb",
    "128-64-fast_scan-default-leaf-3": "9fbfa1d9e0b9b544560c2bddb4a14b1a808ba8176ec829ddb4fbf65ef29f3ebb",
    "128-64-fast_scan-default-noleaf-3": "52e97de418145e27c36fa5c052d762d309a3ea471ec0d1f80f92b779ce87c56a",
    "128-64-fast_scan-all-leaf-3": "9fbfa1d9e0b9b544560c2bddb4a14b1a808ba8176ec829ddb4fbf65ef29f3ebb",
    "128-64-fast_scan-all-noleaf-3": "52e97de418145e27c36fa5c052d762d309a3ea471ec0d1f80f92b779ce87c56a",
}

PPC_GOLDEN = {
    "scan": "e18ccd74eb181aada0f69181e2441bf19e17df303be10a227ca5e131585957a6",
    "fast_scan": "e18ccd74eb181aada0f69181e2441bf19e17df303be10a227ca5e131585957a6",
}


@pytest.mark.parametrize("case", list(decoder_cases()))
def test_decoder_outputs_match_their_pinned_digest(case):
    assert digest(decode_case(case), SCAN_FIELDS) == GOLDEN[case]


@pytest.mark.parametrize("kind", ("scan", "fast_scan"))
def test_product_outputs_match_their_pinned_digest(kind):
    assert digest(ppc_case(kind), PPC_FIELDS) == PPC_GOLDEN[kind]
