"""Self-test of the benchmark; run from the root of a checkout:

    python3 bench/selftest.py

Runs one cycle of every workload, untraced and traced, and checks that
every metric BENCHMARK.json names is emitted, that only the known-defect
probes fail, that the output digest is the same traced and untraced, that
a deliberately wrong expected value counts as a failure, and that the
benchmark refuses to run without the toolkit's sources.
"""

import collections
import json
import random
import shutil
import subprocess
import sys

import harness
import run

WRONG = {"thm41(4) dtadfa size": (15, 3391)}


def one_cycle(name, trace=False, known=None):
    return harness.run_workload(name, seed=7, seconds=0, trace=trace, min_jobs=0, known=known)


def main() -> int:
    bench = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((harness.ROOT / "bench" / "spec.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(harness.END_TO_END)
    assert {m["name"] for m in bench["per_layer"]} == set(harness.PER_LAYER)
    for m in bench["end_to_end"] + bench["per_layer"]:
        units = harness.END_TO_END if m in bench["end_to_end"] else harness.PER_LAYER
        assert m["unit"] == units[m["name"]], m

    harness.load_toolkit()
    import workloads
    for name in run.WORKLOADS:
        plain = one_cycle(name)
        traced = one_cycle(name, trace=True)
        traced.pop("spans")
        assert set(plain["end_to_end"]) == set(harness.END_TO_END), name
        assert set(traced["per_layer"]) == set(harness.PER_LAYER), name
        for r in (plain, traced):
            assert r["correct"] and not r["unexpected_failures"], r["unexpected_failures"]
            assert r["failed"] > 0, f"{name}: the known-defect probes should fail"
        assert plain["digest"] == traced["digest"], name
        wl = workloads.WORKLOADS[name]
        fx = wl.setup(random.Random(7), harness.Tracer(False), {})
        jobs = wl.cycle(fx)
        if wl.cleanup:
            wl.cleanup(fx)
        listed = spec["workloads"][name]
        assert collections.Counter(j.key for j in jobs if not j.probe) == listed["job_mix"], name
        assert all(listed["known_defect_probes"][j.key] == j.probe for j in jobs if j.probe)
        print(f"ok {name}: {plain['attempted']} jobs, digest {plain['digest']}, "
              f"failed {plain['failures']}")

    for name, key, kind in (("construct", "thm41(4) nta_to_dtadfa", "size"),
                            ("cli", "size d4.uta", "stdout")):
        r = one_cycle(name, known=WRONG)
        assert f"{key}: {kind}" in r["unexpected_failures"], r["failures"]
        assert not r["correct"]
        print(f"ok {name}: a wrong expected size fails {key!r}")

    bare = harness.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(harness.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
    try:
        p = subprocess.run([sys.executable, "bench/run.py", "--workload", "construct",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0 and '"metrics"' not in p.stdout, (p.returncode, p.stdout)
    print(f"ok without sources: exit {p.returncode}, {p.stderr.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
