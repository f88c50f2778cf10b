"""Monte-Carlo harness: determinism, stopping rules, CSV output."""

import functools
import multiprocessing
import pickle

import pytest

from polarscan import (
    ChannelConfig,
    DecoderSpec,
    ProductPolarCode,
    PpcConfig,
    build_code,
    parse_ebn0_range,
    run_ppc_sim,
    run_sim,
    simulate,
)


def small_run(workers, decoder="scan", seed=11, max_frames=1500, min_errors=40):
    code = build_code(64, 32)
    spec = DecoderSpec(kind=decoder, iterations=1)
    chan = ChannelConfig(ebn0_db=(1.0, 2.0), seed=seed)
    return run_sim(code, spec, chan, max_frames=max_frames,
                   min_block_errors=min_errors, workers=workers)


def counts(res):
    return tuple((p.frames, p.block_errors, p.bit_errors) for p in res.points)


def test_worker_count_does_not_change_results():
    a = small_run(workers=1)
    b = small_run(workers=2)
    assert a.to_csv() == b.to_csv()


def test_seed_changes_results():
    a = small_run(workers=1, seed=11)
    b = small_run(workers=1, seed=12)
    assert a.to_csv() != b.to_csv()


def test_scan_and_fast_scan_same_counts():
    a = small_run(workers=1, decoder="scan")
    b = small_run(workers=1, decoder="fast_scan")
    assert a.to_csv() == b.to_csv()


def test_csv_schema():
    res = small_run(workers=1, max_frames=600, min_errors=10)
    lines = res.to_csv().strip().split("\n")
    assert lines[0] == "ebn0_db,frames,block_errors,bit_errors,bler,ber"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    frames, blocks, bits = int(first[1]), int(first[2]), int(first[3])
    assert 0 < blocks <= frames
    assert blocks <= bits
    assert float(first[4]) == pytest.approx(blocks / frames)
    assert float(first[5]) == pytest.approx(bits / (frames * 32))


def test_stopping_rules():
    res = small_run(workers=1, max_frames=512, min_errors=10 ** 9)
    for p in res.points:
        assert p.frames == 512  # frame budget binds
    res = small_run(workers=1, max_frames=10 ** 6, min_errors=5)
    for p in res.points:
        assert p.block_errors >= 5
        assert p.frames < 10 ** 6  # error target reached much earlier
    # pinned counts: the stopping chunk is the same for every worker count
    code, comp = build_code(64, 32), build_code(16, 11)
    chan = ChannelConfig((1.0, 3.0), seed=11)
    for workers in (1, 2, 3):
        polar = [counts(run_sim(code, DecoderSpec("scan", 1), chan, max_frames=300, min_block_errors=m,
                                workers=workers, chunk_frames=64)) for m in (10, 20)]
        assert polar == [((64, 24, 168), (256, 14, 116)),   # stops mid-wave
                         ((64, 24, 168), (300, 15, 120))]   # the budget ends on a 44-frame chunk
        product = run_ppc_sim(ProductPolarCode(comp, comp), PpcConfig(2), ChannelConfig((2.0, 3.5), seed=9),
                              max_frames=50, min_block_errors=5, workers=workers, chunk_frames=8)
        assert counts(product) == ((16, 6, 196), (50, 1, 2))


def test_high_snr_zero_errors():
    code = build_code(32, 8)
    spec = DecoderSpec(kind="scan", iterations=1)
    res = run_sim(code, spec, ChannelConfig(ebn0_db=(12.0,), seed=5),
                  max_frames=256, min_block_errors=1000)
    p = res.points[0]
    assert p.block_errors == 0
    assert p.bler == 0.0


def test_invalid_inputs():
    code = build_code(32, 16)
    spec = DecoderSpec(kind="scan")
    with pytest.raises(ValueError, match="empty SNR list"):
        run_sim(code, spec, ChannelConfig(ebn0_db=(), seed=1))
    for ebn0 in (2.0, "2", ((1.0, 2.0),)):
        with pytest.raises(ValueError, match="ebn0_db must be a sequence"):
            run_sim(code, spec, ChannelConfig(ebn0_db=ebn0, seed=1))
    for name, value in (("workers", 0), ("workers", -2), ("workers", 1.5), ("max_frames", 100.5),
                        ("chunk_frames", 2.5), ("min_block_errors", 0), ("min_block_errors", -1),
                        ("min_block_errors", 2.5)):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1, got {value}"):
            run_sim(code, spec, ChannelConfig(ebn0_db=(1.0,), seed=1), **{"max_frames": 64, name: value})
    with pytest.raises(ValueError):
        run_sim(code, spec, ChannelConfig(ebn0_db=(1.0,), seed=1), max_frames=0)
    with pytest.raises(ValueError, match="chunk_frames"):
        run_sim(code, spec, ChannelConfig(ebn0_db=(1.0,), seed=1), max_frames=64, chunk_frames=0)


def test_frame_budget_rejects_bools():
    # True is a numbers.Integral: max_frames=True decoded one frame
    code = build_code(32, 16)
    with pytest.raises(ValueError, match="max_frames must be an integer >= 1, got True"):
        run_sim(code, DecoderSpec(kind="scan"), ChannelConfig(ebn0_db=(1.0,), seed=1), max_frames=True)


def test_invalid_decoder_settings_fail_before_workers_start():
    # the spec is checked where it is made, so a bad one fails before any
    # worker starts (there is no pool initializer to fail in)
    for kw in ({"iterations": 0}, {"iterations": 2.5}, {"arithmetic": "float"},
               {"node_types": frozenset({"spc"})}):
        with pytest.raises(ValueError):
            DecoderSpec(kind="scan", **kw)


@pytest.mark.parametrize("decoder", ["sc", "bogus"])
def test_ppc_sim_rejects_a_component_decoder_before_workers_start(monkeypatch, decoder):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was made")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    comp = build_code(16, 11)
    with pytest.raises(ValueError, match=f"'{decoder}'"):
        run_ppc_sim(ProductPolarCode(comp, comp), PpcConfig(2), ChannelConfig((3.0,), seed=1),
                    decoder=decoder, max_frames=16, workers=2)


def test_chunk_jobs_survive_pickling():
    # a pool sends the job to its workers by pickle: the copy scores a chunk as the original does
    comp = build_code(8, 6)
    jobs = (functools.partial(simulate._polar_chunk, build_code(32, 16), DecoderSpec("fast_scan", 2)),
            functools.partial(simulate._ppc_chunk, ProductPolarCode(comp, comp), PpcConfig(2), "scan"))
    task = (0, 3, 2.0, 7, 40)   # point, chunk, Eb/N0, seed, frames
    for job in jobs:
        frames, block_errors, bit_errors = job(*task)
        assert frames == 40 and 0 < block_errors <= bit_errors
        assert pickle.loads(pickle.dumps(job))(*task) == (frames, block_errors, bit_errors)


def test_ppc_sim_determinism():
    code = build_code(16, 11)
    ppc = ProductPolarCode(row_code=code, col_code=code)
    cfg = PpcConfig(half_iteration_pairs=2)
    chan = ChannelConfig(ebn0_db=(3.0,), seed=3)
    a = run_ppc_sim(ppc, cfg, chan, max_frames=400, min_block_errors=10, workers=1)
    b = run_ppc_sim(ppc, cfg, chan, max_frames=400, min_block_errors=10, workers=2)
    assert a.to_csv() == b.to_csv()
    assert a.K == 121


def test_parse_ebn0_range():
    assert parse_ebn0_range("0:2:0.5") == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert parse_ebn0_range("1,2.5,4") == (1.0, 2.5, 4.0)
    assert parse_ebn0_range("3") == (3.0,)
    with pytest.raises(ValueError):
        parse_ebn0_range("2:1:0.5")
    with pytest.raises(ValueError):
        parse_ebn0_range("0:2:0")
    with pytest.raises(ValueError):
        parse_ebn0_range("a:b")
    for text in ("nan", "1,inf", "-inf", "0:nan:1", "0:inf:1"):
        with pytest.raises(ValueError):
            parse_ebn0_range(text)
