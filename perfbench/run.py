#!/usr/bin/env python3
"""Build and run the igr benchmark harness.

One run (prints the harness output; its last line is the result JSON):

    python3 perfbench/run.py --workload jet3d-fp64 --seed 1 --seconds 20 --trace 0

Steadiness mode: run one workload K times with seeds s, s+1, ... and print,
for every metric, the median, the quartiles and (IQR / median) against the
metric's bound in BENCHMARK.json:

    python3 perfbench/run.py --steady 10 --workload campaign-mix --seed 1 --seconds 20

Run from the repository root. The harness is a Cargo package of its own
(perfbench/Cargo.toml) that builds the workspace crates from source, into
CARGO_TARGET_DIR when set.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
OUT_DIR = HERE / "out"


def build():
    """Build the harness; return the path of its executable."""
    cmd = [
        "cargo", "build", "--release", "--quiet",
        "--manifest-path", str(MANIFEST),
        "--message-format=json-render-diagnostics",
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("build failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            if msg["target"]["name"] == "igr-perfbench":
                exe = msg["executable"]
    if exe is None:
        sys.exit("build produced no igr-perfbench executable")
    return exe


def source_digest():
    """SHA-256 over the sources the harness builds from (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    paths = []
    for top in ("crates", "vendor", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and p.suffix in (".rs", ".toml", ".lock") and "target" not in p.parts:
                paths.append(p)
    for name in ("Cargo.toml", "Cargo.lock"):
        if (ROOT / name).is_file():
            paths.append(ROOT / name)
    for p in paths:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_once(exe, workload, seed, seconds, trace, provenance, capture):
    cmd = [
        exe, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ] + provenance
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def steady(exe, args, provenance):
    bounds = {}
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        spec = json.loads(bench.read_text())
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    values = {}
    units = {}
    for k in range(args.steady):
        seed = args.seed + k
        code, result = run_once(exe, args.workload, seed, args.seconds, args.trace, provenance, True)
        if code != 0 or result is None:
            sys.exit(f"run with seed {seed} failed (exit {code})")
        status = "ok" if result["correct"] else "INCORRECT"
        print(f"seed {seed}: {status}, attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr)
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{args.workload}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
    print(f"{'metric':<40} {'unit':>8} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6} {'spread/bound':>12}")
    worst = 0.0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        ratio = spread / bound if bound else None
        if ratio is not None and name != "setup_s":
            worst = max(worst, ratio)
        print(f"{name:<40} {units[name]:>8} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '-':>6} "
              f"{'' if ratio is None else f'{ratio:.3f}':>12}")
    print(f"largest spread/bound (setup_s excluded): {worst:.3f} (target < 0.333)")
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"steady-{args.workload}-trace{args.trace}-seed{args.seed}x{args.steady}.json"
    record.write_text(json.dumps({"workload": args.workload, "seeds": [args.seed + k for k in range(args.steady)],
                                  "seconds": args.seconds, "trace": args.trace, "values": values}, indent=1))
    print(f"per-run values: {record}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, metavar="K",
                    help="run the workload K times with consecutive seeds and report spreads")
    args = ap.parse_args()

    exe = build()
    provenance = ["--source-digest", source_digest()]
    commit = git_commit()
    if commit:
        provenance += ["--commit", commit]
    if args.steady:
        steady(exe, args, provenance)
        return 0
    code, _ = run_once(exe, args.workload, args.seed, args.seconds, args.trace, provenance, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
