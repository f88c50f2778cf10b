"""A/B runs of perfbench/run.py between two checkouts, recorded raw.

Run from the repository root, with the baseline checked out elsewhere:

    python3 scripts/ab_bench.py --base ../polarscan-base --change . \
        --workload softout-128 --seed 7 --pairs 10 --out BENCH_27.json

Each pair runs the benchmark once in each checkout (--trace 0, for the
run_seconds of BENCHMARK.json, which both checkouts must agree on), the
side that goes first alternating from pair to pair. The last stdout line
of every run is appended, as printed, to the JSON list in --out, with the
side, workload, seed, pair, its place in the pair, the checkout's git
revision (with "-dirty" when its tracked files differ from it), the git
tree id of its src/ as it ran, and the Python and numpy versions that ran
it. The tree id names the source even in a dirty checkout: once those
files are committed, `git rev-parse <commit>:src` prints the same id. Each
record also carries the state of the host as the run ended: its CPU count,
the CPUs this process may run on and the 1-, 5- and 15-minute load
averages, since on a shared host the same code's figures move with them. A
summary of the end-to-end metrics per side, over this call's pairs,
follows on stdout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


def revision(root):
    """git revision of the checkout at root, "-dirty" if its tracked files changed; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def source_tree(root):
    """git tree id of root's src/ as it is on disk, untracked files included
    and ignored ones left out; None outside git."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))   # the checkout's own index stays as it is
        if subprocess.run(["git", "-C", root, "add", "--", "src"], env=env, capture_output=True).returncode:
            return None
        out = subprocess.run(["git", "-C", root, "write-tree", "--prefix=src/"], env=env,
                             capture_output=True, text=True, check=True)
    return out.stdout.strip()


def run_seconds(roots):
    """The run_seconds that the BENCHMARK.json of every checkout in roots names."""
    seconds = set()
    for root in roots:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            seconds.add(json.load(fh)["run_seconds"])
    if len(seconds) != 1:
        raise SystemExit(f"the checkouts' BENCHMARK.json disagree on run_seconds: {sorted(seconds)}")
    return seconds.pop()


def versions():
    out = subprocess.run([sys.executable, "-c", "import sys, numpy; print(sys.version.split()[0], numpy.__version__)"],
                         capture_output=True, text=True, check=True)
    python, numpy = out.stdout.split()
    return python, numpy


def host_state():
    """CPU count, usable CPUs and load averages of the host, as of now."""
    return {"cpu_count": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg())}


def run_once(root, workload, seed, seconds):
    """The last stdout line of one untraced benchmark run in root.

    The run may write Python's bytecode cache, whatever the environment
    says: setup_s times imports of polarscan, and one that finds no cache
    compiles the package, which doubles its time. A checkout without a
    cache would otherwise lose every setup_s comparison."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    out = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, env=env, capture_output=True, text=True, check=True)
    line = out.stdout.strip().splitlines()[-1]
    json.loads(line)   # must be the result object
    return line


def summary(records):
    """Median of each end-to-end metric per (workload, side), and pairs won per metric."""
    rows = {}
    for r in records:
        metrics = json.loads(r["line"])["metrics"]
        for name, m in metrics.items():
            rows.setdefault((r["workload"], r["seed"], name), {}).setdefault(r["side"], {})[r["pair"]] = m["value"]
    lines = []
    for (workload, seed, name), sides in sorted(rows.items()):
        base, change = sides.get("base", {}), sides.get("change", {})
        pairs = sorted(set(base) & set(change))
        if not pairs:
            continue
        b, c = [base[p] for p in pairs], [change[p] for p in pairs]
        lower = name in ("setup_s", "peak_alloc_mb")
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        q = statistics.quantiles(b, n=4, method="inclusive") if len(b) > 1 else [b[0]] * 3   # as perfbench/run.py
        lines.append(f"{workload} seed {seed} {name}: base {statistics.median(b):.6g} (IQR {q[0]:.6g}-{q[2]:.6g}), "
                     f"change {statistics.median(c):.6g}, change better in {wins}/{len(pairs)} pairs")
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="checkout of the baseline")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="JSON list to append the runs to")
    args = p.parse_args(argv)

    records = []
    if os.path.exists(args.out):
        with open(args.out) as fh:
            records = json.load(fh)
    python, numpy = versions()
    sides = {"base": os.path.abspath(args.base), "change": os.path.abspath(args.change)}
    seconds = run_seconds(sides.values())
    revs = {side: revision(root) for side, root in sides.items()}
    trees = {side: source_tree(root) for side, root in sides.items()}
    ran = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        for place, side in enumerate(order):
            line = run_once(sides[side], args.workload, args.seed, seconds)
            ran.append({"side": side, "workload": args.workload, "seed": args.seed, "pair": pair, "order": place,
                        "rev": revs[side], "src_tree": trees[side], "python": python, "numpy": numpy,
                        **host_state(), "line": line})
            with open(args.out, "w") as fh:   # rewritten after every run, so a cut series keeps its runs
                json.dump(records + ran, fh, indent=1)
                fh.write("\n")
            print(f"pair {pair} {side}: {line}", flush=True)
    print("\n".join(summary(ran)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
