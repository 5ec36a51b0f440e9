"""Correctness gate, run after timing with every daemon stopped.

Checks, each failure recorded as one message:

* every served plan, re-scored through canonical
  :func:`repro.core.utility.evaluate_plan`, matches its reported
  utility bit for bit;
* every cache hit equals the miss that first served that request;
* every sweep point reports ``parity_ok``;
* sampled ``whatif`` answers match an in-benchmark
  :func:`repro.simulator.engine.simulate_batch` on the event engine
  within ``ANALYTIC_RTOL``;
* (fleet) sampled fleet plans equal the plan a solo solver pool
  returns for the same request.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.cloud import resolve_provider
from repro.cloud.storage import Tier
from repro.cloud.vm import ClusterSpec
from repro.core.plan import TieringPlan
from repro.core.utility import evaluate_plan, per_vm_capacity
from repro.profiler import build_model_matrix
from repro.service.pool import SolverPool
from repro.simulator.engine import HELPER_INTERMEDIATE_GB_PER_VM, simulate_batch
from repro.simulator.vectorized import ANALYTIC_RTOL
from repro.workloads.io import workload_from_dict

from loadgen import Req

#: Fields a cache hit must repeat exactly.
_PLAN_FIELDS = ("plan", "utility", "makespan_min", "cost_total_usd", "fingerprint")


def _rescore(params: Dict[str, Any], result: Dict[str, Any]) -> float:
    provider = resolve_provider(params["provider"])
    cluster = ClusterSpec(n_vms=params["n_vms"], vm=provider.default_vm)
    matrix = build_model_matrix(provider=provider, cluster_spec=cluster)
    workload = workload_from_dict(dict(params["spec"]))
    plan = TieringPlan.from_dict(result["plan"])
    return evaluate_plan(workload, plan, cluster, matrix, provider,
                         reuse_aware=True).utility


def _whatif_reference(params: Dict[str, Any]) -> List[float]:
    """Per-job total seconds of the whatif deployment, on the engine
    (the deployment ``repro.experiments.measure.measure_plan`` builds)."""
    provider = resolve_provider(params["provider"])
    cluster = ClusterSpec(n_vms=params["n_vms"])
    workload = workload_from_dict(dict(params["spec"]))
    if "plan" in params:
        plan = TieringPlan.from_dict(params["plan"])
    else:
        plan = TieringPlan.uniform(workload, Tier(params["tier"]))
    pvc = per_vm_capacity(plan, cluster, provider)
    items = []
    for job in workload.jobs:
        tier = plan.tier_of(job.job_id)
        caps = dict(pvc)
        helper = provider.service(tier).requires_intermediate
        if helper is not None:
            caps[helper] = max(caps.get(helper, 0.0), HELPER_INTERMEDIATE_GB_PER_VM)
        items.append((job, tier, caps))
    return [r.total_s for r in simulate_batch(items, cluster, provider, fast_path=False)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ANALYTIC_RTOL * max(abs(a), abs(b), 1e-12)


def check(reqs: List[Req], cfg: Dict[str, Any], seed: int, fleet: bool) -> List[str]:
    """Return the mismatches (empty when every check passes)."""
    errors: List[str] = []
    ok = [r for r in reqs if r.ok]
    plans = [r for r in ok if r.op == "plan"]
    first_served: Dict[str, Dict[str, Any]] = {}
    for r in sorted(plans, key=lambda r: r.done):
        if r.cached:
            continue
        first_served.setdefault(r.result["fingerprint"], r.result)
        utility = _rescore(r.params, r.result)
        if utility != r.result["utility"]:
            errors.append(f"{r.kind} #{r.index}: re-scored utility {utility!r} "
                          f"!= served {r.result['utility']!r}")
    for r in plans:
        if not r.cached:
            continue
        original = first_served.get(r.result["fingerprint"])
        if original is None:
            errors.append(f"plan hit #{r.index} has no served miss to compare to")
            continue
        for field in _PLAN_FIELDS:
            if r.result.get(field) != original.get(field):
                errors.append(f"plan hit #{r.index}: {field} differs from its miss")
    for r in ok:
        if r.op == "sweep":
            bad = [p["index"] for p in r.result["points"] if not p["parity_ok"]]
            if bad or not r.result["parity_ok"]:
                errors.append(f"sweep points {bad} failed canonical parity")
    rng = np.random.default_rng([seed, 7])
    whatifs = [r for r in ok if r.op == "whatif"]
    n_check = min(len(whatifs), cfg["gate"]["whatif_samples"])
    for i in sorted(rng.choice(len(whatifs), size=n_check, replace=False)):
        r = whatifs[int(i)]
        ref = _whatif_reference(r.params)
        got = [r.result["per_job"][j["job_id"]]["total_s"] for j in r.params["spec"]["jobs"]]
        if len(ref) != len(got) or not all(_close(a, b) for a, b in zip(ref, got)):
            errors.append(f"whatif #{r.index}: per-job times differ from simulate_batch")
        elif not _close(sum(ref), r.result["makespan_s"]):
            errors.append(f"whatif #{r.index}: makespan differs from simulate_batch")
    if fleet:
        misses = [r for r in plans if not r.cached]
        sample = misses[: cfg["gate"]["fleet_solo_samples"]]
        pool = SolverPool()  # the defaults ``cast-plan serve`` runs with
        try:
            for r in sample:
                request = {k: v for k, v in r.params.items() if k != "tenant"}
                solo = pool.solve_sync(dict(request, op="plan"))
                if solo["plan"] != r.result["plan"] or solo["utility"] != r.result["utility"]:
                    errors.append(f"fleet {r.kind} #{r.index}: plan differs from a solo solve")
        finally:
            pool.shutdown()
    return errors
