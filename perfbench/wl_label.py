"""`label` workload: `dataset.build_dataset` on seed-drawn paper-grid contexts.

A fault context is one line, one fault location and one motor share. The seed
draws one line and location and two distinct motor shares, so the build has
two contexts and solves two equilibria. All nine paper clearing times (3-11
cycles) are labelled: the odd ones coincide with the CCT coarse scan and hit
the trace cache, the even ones miss it and simulate again.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from hostclock import now

UNIT = "labelled scenario"
LATENCY = "time of one build_dataset call"
ALIASES = {"throughput_per_s": "label_scenarios_per_s"}


def generate(seed: int, work, tiny: bool) -> dict:
    from tsakit import packaged_network_path
    from tsakit.dataset import paper_grid
    from tsakit.grid_model import load_network

    grid = paper_grid(load_network(packaged_network_path()))
    rng = np.random.default_rng(seed)
    fracs = rng.choice(grid.motor_fractions, size=2, replace=False)
    fields = {
        "lines": (int(rng.choice(grid.lines)),),
        "location_fractions": (float(rng.choice(grid.location_fractions)),),
        "motor_fractions": tuple(sorted(float(f) for f in fracs)),
        "clearing_cycles": grid.clearing_cycles,
    }
    if tiny:  # one odd and one even clearing time; trace just past the CCT bracket
        fields.update(clearing_cycles=(3.0, 4.0), duration_s=1.6)
    n_scenarios = 2 * len(fields["clearing_cycles"])
    return {"grid": fields, "check_id": int(rng.integers(n_scenarios)), "seed": seed,
            "work": work}


def setup(inputs: dict) -> dict:
    import tsakit.cli  # noqa: F401  (the entry point imports every layer)
    from tsakit import packaged_network_path
    from tsakit.dataset import GridConfig, validate_grid
    from tsakit.grid_model import load_network

    network = load_network(packaged_network_path())
    cfg = GridConfig(**inputs["grid"])
    validate_grid(cfg, network)
    return {"network": network, "cfg": cfg}


def make_op(env: dict, inputs: dict):
    """One operation: build the dataset (timed), then save it (untimed).

    Functions are looked up on their module at each call, so spans see them.
    """
    from tsakit import dataset

    path = inputs["work"] / "dataset.tsd"

    def op() -> dict:
        t0, w0 = now(), time.perf_counter()
        samples, manifest = dataset.build_dataset(env["network"], env["cfg"], seed=inputs["seed"])
        elapsed, wall = now() - t0, time.perf_counter() - w0
        dataset.save_dataset(samples, path)
        raw = path.read_bytes()
        return {
            "time_s": elapsed,
            "wall_s": wall,
            "items": manifest["n_scenarios"],
            "latency_s": [elapsed],
            "digests": {"dataset_sha256": hashlib.sha256(raw).hexdigest()},
            "samples": samples,
            "manifest": manifest,
            "dataset_bytes": len(raw),
        }

    return op


def check(env: dict, inputs: dict, records: list, warnings: list) -> tuple[dict, list]:
    """Output checks, and failed scenarios against scenarios."""
    from tsakit.dataset import enumerate_scenarios, extract_features
    from tsakit.labeling import tsi, tvs
    from tsakit.tds import clearing_time_s, run_simulation, solve_equilibrium

    network, cfg = env["network"], env["cfg"]
    manifests = [r["manifest"] for r in records]
    checks = {
        "samples_equal_scenarios_minus_failed": all(
            m["n_samples"] == m["n_scenarios"] - m["n_failed"] for m in manifests
        ),
    }
    sid = inputs["check_id"]
    sample = next((s for s in records[0]["samples"] if s.scenario_id == sid), None)
    if sample is None:
        checks["resimulated_scenario_matches"] = False
    else:
        sc = enumerate_scenarios(cfg)[sid]
        net_f = network.with_motor_fraction(sc.motor_fraction)
        trace = run_simulation(
            net_f, solve_equilibrium(net_f), fault=sc.fault,
            clear_s=clearing_time_s(sc, network.nominal_hz),
            fault_start_s=cfg.fault_start_s, duration_s=cfg.duration_s, step_s=cfg.step_s,
        )
        features, _ = extract_features(
            trace, int(round(cfg.fault_start_s / cfg.step_s)), cfg.window_steps
        )
        checks["resimulated_scenario_matches"] = (
            tsi(trace).stable == sample.tas_stable
            and tvs(trace).stable == sample.tvs_stable
            and np.array_equal(features, sample.features)
        )
    failed = sum(int(m["n_failed"]) for m in manifests)
    return checks, [("failed scenarios", failed, sum(int(m["n_scenarios"]) for m in manifests))]
