"""Regenerate the committed answers the benchmark checks against.

    python3 perfbench/make_expected.py

Writes ``expected/sweeps.json`` (the selected plan of every grid cell of
both sweeps on the default seed) and ``expected/serve.json`` (the
service's answer to every catalogue entry).  Run it only when a change
is meant to alter selected plans, and say why in the change.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.service.planservice import PlanRequest, PlanService

    from perfbench.common import DEFAULT_SEED, EXPECTED_DIR, answer
    from perfbench.run import SWEEPS
    from perfbench.sweeps import cold_pass
    from perfbench.workloads import serve_catalogue, sweep_spec

    sweeps = {}
    for workload in SWEEPS:
        spec = sweep_spec(workload, DEFAULT_SEED)
        run = cold_pass(spec, spec.cells())
        sweeps[workload] = {
            f"{8 * m}x{b}": answer(p.config_label, p.throughput)
            for (m, b), p in zip(spec.cells(), run.plans)
        }
    serve = {}
    with PlanService() as service:
        for model, gpus, batch in serve_catalogue():
            resp = service.plan(PlanRequest(model=model, gpus=gpus,
                                            batch=batch))
            serve[f"{model}/{gpus}/{batch}"] = answer(resp.config_label,
                                                      resp.throughput)
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, data in (("sweeps.json", sweeps), ("serve.json", serve)):
        with open(EXPECTED_DIR / name, "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
