"""Polar code soft-decoding toolkit: SCAN, fast-SCAN, schedules, latency, simulation."""

from .arithmetic import DEFAULT_SAT, boxplus, boxplus_minsum, clamp, sat_add
from .channel import channel_llrs, modulate, noise_sigma
from .codes import (
    PolarCode,
    bhattacharyya_order,
    build_code,
    butterfly_transform,
    encode,
    extract_info,
    insert_info,
)
from .fastscan import DecoderSpec, FastScanDecoder, fast_scan_decode
from .latency import LatencyReport, gain, latency_table, ppc_latency, scan_latency, schedule_latency
from .product import PpcConfig, PpcOutput, ProductPolarCode, ppc_decode, ppc_encode
from .scan import MessageMemory, ScanConfig, ScanDecoder, ScanOutput, init_messages, scan_decode
from .sc import sc_decode, sc_latency
from .schedule import (
    DEFAULT_TYPES,
    KERNEL_TYPES,
    DecodingSchedule,
    NodeDescriptor,
    NodeType,
    build_schedule,
    census_csv,
    classify,
    node_census,
    parse_node_types,
)
from .sequences import default_sequence, load_reliability_sequence, subcode_order
from .simulate import (
    ChannelConfig,
    SimPoint,
    SimResult,
    parse_ebn0_range,
    run_ppc_sim,
    run_sim,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SAT", "boxplus", "boxplus_minsum", "clamp", "sat_add",
    "channel_llrs", "modulate", "noise_sigma",
    "PolarCode", "bhattacharyya_order", "build_code", "butterfly_transform",
    "encode", "extract_info", "insert_info",
    "FastScanDecoder", "fast_scan_decode",
    "LatencyReport", "gain", "latency_table", "ppc_latency", "scan_latency", "schedule_latency",
    "PpcConfig", "PpcOutput", "ProductPolarCode", "ppc_decode", "ppc_encode",
    "MessageMemory", "ScanConfig", "ScanDecoder", "ScanOutput", "init_messages", "scan_decode",
    "sc_decode", "sc_latency",
    "DEFAULT_TYPES", "KERNEL_TYPES", "DecodingSchedule", "NodeDescriptor", "NodeType",
    "build_schedule", "census_csv", "classify", "node_census", "parse_node_types",
    "default_sequence", "load_reliability_sequence", "subcode_order",
    "ChannelConfig", "DecoderSpec", "SimPoint", "SimResult", "parse_ebn0_range",
    "run_ppc_sim", "run_sim",
    "__version__",
]
