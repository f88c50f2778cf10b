"""Command-line interface smoke tests (in-process via main())."""

import json
import warnings

from polarscan.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_construct(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--n", "8", "--k", "4")
    assert rc == 0
    payload = json.loads(out)
    assert payload == {"N": 8, "K": 4, "frozen": [0, 1, 2, 4]}


def test_construct_bhattacharyya(capsys):
    rc, out, _ = run_cli(capsys, "construct", "--n", "16", "--k", "8",
                         "--method", "bhattacharyya", "--design-snr", "2.0")
    assert rc == 0
    assert len(json.loads(out)["frozen"]) == 8


def test_encode(capsys):
    rc, out, _ = run_cli(capsys, "encode", "--n", "8", "--k", "4", "--info", "1,1,0,1")
    assert rc == 0
    bits = [int(t) for t in out.strip().split(",")]
    assert len(bits) == 8 and set(bits) <= {0, 1}


def test_encode_rejects_info_that_is_not_bits(capsys):
    for info, bad in (("1,2,0,1", "2"), ("1,-1,0,1", "-1")):
        rc, out, err = run_cli(capsys, "encode", "--n", "8", "--k", "4", "--info", info)
        assert rc == 1 and out == ""
        assert err == f"error: bits must be 0 or 1, got {bad}\n"


def test_decode_roundtrip(capsys):
    rc, out, _ = run_cli(capsys, "encode", "--n", "8", "--k", "4", "--info", "1,0,1,1")
    x = [int(t) for t in out.strip().split(",")]
    llrs = ",".join("-2" if b else "2" for b in x)
    for decoder in ("sc", "scan", "fast_scan"):
        # --llrs=... keeps a leading minus from parsing as an option
        rc, out, _ = run_cli(capsys, "decode", "--n", "8", "--k", "4",
                             "--decoder", decoder, "--llrs=" + llrs)
        assert rc == 0
        payload = json.loads(out)
        assert payload["info"] == [1, 0, 1, 1]
        assert payload["x_hat"] == x


def test_decode_llr_file(capsys, tmp_path):
    path = tmp_path / "llrs.txt"
    path.write_text("2 2 2 2 2 2 2 2\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = run_cli(capsys, "decode", "--n", "8", "--k", "4",
                             "--llr-file", str(path))
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]   # the file is closed
    assert json.loads(out)["u_hat"] == [0] * 8


def test_decode_requires_llrs(capsys):
    rc, _, err = run_cli(capsys, "decode", "--n", "8", "--k", "4")
    assert rc == 1
    assert "error:" in err


def test_latency_csv(capsys):
    rc, out, _ = run_cli(capsys, "latency", "--codes", "128:16,256:239",
                         "--format", "csv")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "code,scan_cycles,fast_cycles,gain_pct"
    assert lines[1] == "(128,16),762,50,93.4"
    assert lines[2] == "(256,239),1530,58,96.2"


def test_latency_text_single_code(capsys):
    rc, out, _ = run_cli(capsys, "latency", "--n", "128", "--k", "64")
    assert rc == 0
    assert "(128,64)" in out and "762" in out


def test_latency_without_a_code_returns_error(capsys):
    rc, out, err = run_cli(capsys, "latency", "--n", "128")
    assert rc == 1 and out == ""
    assert "error: latency needs --codes or both --n and --k" in err


def test_census(capsys):
    rc, out, _ = run_cli(capsys, "census", "--n", "8", "--k", "4")
    assert rc == 0
    assert out == "kind,size,count\nrep,4,1\nspc,4,1\n"


def test_schedule(capsys):
    rc, out, _ = run_cli(capsys, "schedule", "--n", "256", "--k", "239")
    assert rc == 0
    payload = json.loads(out)
    assert payload["node_count"] == 17
    assert payload["total_cycles"] == 58
    assert len(payload["nodes"]) == 17


def test_simulate(capsys):
    rc, out, _ = run_cli(capsys, "simulate", "--n", "32", "--k", "16",
                         "--ebn0", "2", "--seed", "1",
                         "--max-frames", "300", "--min-errors", "10")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "ebn0_db,frames,block_errors,bit_errors,bler,ber"
    assert len(lines) == 2


def test_simulate_out_file(capsys, tmp_path):
    path = tmp_path / "bler.csv"
    rc, out, _ = run_cli(capsys, "simulate", "--n", "32", "--k", "16",
                         "--ebn0", "2", "--max-frames", "300",
                         "--min-errors", "10", "--out", str(path))
    assert rc == 0
    assert out == ""
    assert path.read_text().startswith("ebn0_db,")


def test_ppc_simulate(capsys):
    rc, out, _ = run_cli(capsys, "ppc-simulate", "--n", "8", "--k", "6",
                         "--pairs", "2", "--ebn0", "4", "--seed", "1",
                         "--max-frames", "200", "--min-errors", "5")
    assert rc == 0
    assert out.startswith("ebn0_db,")


def test_bad_ebn0_returns_error(capsys):
    rc, _, err = run_cli(capsys, "simulate", "--n", "32", "--k", "16",
                         "--ebn0", "5:1:1", "--max-frames", "100")
    assert rc == 1
    assert "error:" in err
