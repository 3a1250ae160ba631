"""Write reference.json from the package as it stands.

    python3 perfbench/freeze.py

The references are the outputs of the seed commit.  Later changes must
reproduce them within tolerance; they are not re-frozen to fit a change.
Seed-dependent jobs (random polynomials) are checked by oracles instead
and freeze an empty entry.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> None:
    out = {}
    workdir = HERE.parent / ".bench_build" / "perfbench" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in workloads.WORKLOADS.items():
            ctx = workload.setup(str(workdir), 0)
            out[name] = {job.name: workloads.to_json(job.check(job.run()))
                         for job in workload.jobs(ctx)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
