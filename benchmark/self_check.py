"""Self-check of the benchmark; run from the root of a source checkout:

    python3 benchmark/self_check.py

1. The oracle's forward model agrees with lorentzpol's own constructions,
   the oracle rejects a perturbed q and a wrong exit code, and a traced
   recovery records the CLI's calls and restores its names.
2. A short run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, records latency_us_p99, and no op
   fails.
3. In a directory holding only BENCHMARK.json and the benchmark, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import truth

CONFIG = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check_forward_model(lp) -> None:
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = rng.uniform(-0.5, 0.5, 3) + 1j * rng.uniform(-0.5, 0.5, 3)
        k = lp.k_from_q(q)
        assert np.abs(truth.mueller_from_k(k) - lp.lorentz_from_k(k)).max() < 1e-12
    for axis in (1, 2, 3):
        spec = ("boost", axis, 0.7)
        assert np.abs(truth.mueller_from_k(truth.spinor_of(spec))
                      - lp.boost_mueller(axis, 0.7)).max() < 1e-12
        n = np.zeros(4)
        n[0], n[axis] = np.cos(0.2), np.sin(0.2)
        assert np.abs(truth.mueller_from_k(n) - lp.rotation_mueller(axis, 0.4)).max() < 1e-12


def check_oracle_rejects(lp) -> None:
    bench = run.Bench(lp, 0, None)
    cases = truth.draw_block(np.random.default_rng(1), truth.RECOVER_DECK, True)
    general = next(c for c in cases if c.expect == "lorentz")
    code, text = bench.recover_chain(general.text)
    assert truth.check_recovery(general, code, text) is None
    report = json.loads(text)
    report["q"]["re"][0] += 1e-6
    assert truth.check_recovery(general, code, json.dumps(report)) is not None, "perturbed q passed"
    assert truth.check_recovery(general, 4, text) is not None, "wrong exit code passed"
    halfwave = next(c for c in cases if c.expect == "near-pi")
    code, text = bench.recover_chain(halfwave.text)
    assert code == 4 and truth.check_recovery(halfwave, code, text) is None
    assert truth.check_recovery(halfwave, 0, text) is not None, "exit 0 on a half-wave plate passed"
    noisy = next(c for c in cases if c.expect == "not-lorentzian")
    wrong = dataclasses.replace(noisy, matrix=noisy.matrix + 1e-3)
    code, text = bench.recover_chain(noisy.text)
    assert truth.check_recovery(noisy, code, text) is None
    assert truth.check_recovery(wrong, code, text) is not None, "wrong matrix passed"


def check_tracing(lp) -> None:
    """A traced recovery records spans for the calls lorentzpol.cli makes,
    and leaves the CLI's names as they were."""
    bench = run.Bench(lp, 0, run.Tracer())
    before = {attr: getattr(lp.cli, attr) for attr in bench.cli_traced}
    general = next(c for c in truth.draw_block(np.random.default_rng(2), truth.RECOVER_DECK, True)
                   if c.expect == "lorentz")
    with bench.tracing():
        code, text = bench.recover_chain(general.text)
    assert truth.check_recovery(general, code, text) is None
    names = ("probes.from_json", "algebra.is_lorentzian", "lorentz.recover_parameters",
             "jsonio.dumps")
    calls = bench.tracer.call_metrics(names)
    assert all(calls[f"{name}.calls"][0] == 1 for name in names), calls
    assert all(getattr(lp.cli, attr) is value for attr, value in before.items()), "names not restored"


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        CONFIG["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_short_runs() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in CONFIG[key]}
        for workload in (w["name"] for w in CONFIG["workloads"]):
            proc = run_benchmark(run.ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, f"{workload} trace {trace}: {set(got) ^ set(wanted)}"
            for name, m in result["metrics"].items():
                assert math.isfinite(m["value"]), f"{workload} {name} = {m['value']}"
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            record = json.loads(proc.stdout.splitlines()[-2])["record"]
            if trace == 0:
                p99 = record["ungated"]["latency_us_p99"]
                assert math.isfinite(p99["value"]) and p99["unit"] == "us", p99
            print(f"ok  {workload:13s} trace {trace}  {result['attempted']} ops, 0 failed")


def check_refuses_without_sources() -> None:
    run.TMP.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.TMP))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in CONFIG["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, CONFIG["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without sources"
        assert '"metrics"' not in proc.stdout, "printed a result without sources"
        print("ok  refuses to run without sources")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    lp = run.load_library()
    check_forward_model(lp)
    check_oracle_rejects(lp)
    check_tracing(lp)
    print("ok  forward model, oracle and tracing")
    check_short_runs()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
